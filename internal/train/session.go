// Package train runs distributed data-parallel training sessions on the
// simulated cluster: P trainers (one per rank), each holding a workload
// replica (VGG, LSTM or BERT), an error-feedback residual, and a
// gradient-reduction algorithm, stepped collectively one iteration at a
// time with per-phase modeled timing. It also provides the algorithm
// and workload factories the experiments layer builds configurations
// from, and checkpoint integration for stop/resume.
package train

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/allreduce"
	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/netmodel"
	"repro/internal/optimizer"
	"repro/internal/sparsecoll"
	"repro/internal/tensor"
)

// AlgorithmNames lists the seven schemes of the paper's evaluation in
// figure order.
var AlgorithmNames = []string{"Dense", "DenseOvlp", "TopkA", "TopkDSA", "gTopk", "Gaussiank", "OkTopk"}

// EffectiveNet returns the default machine constants for training
// sessions: Piz Daint wire parameters degraded to the *effective*
// per-message latency and bandwidth of the paper's software stack
// (PyTorch tensors staged through host memory and sent with mpi4py).
// Calibration: the paper's Figure 8 shows ≈0.33 s for a dense allreduce
// of 2·14.7M·(15/16) words at 16 nodes, i.e. ≈12 ns/word effective —
// about 12× the raw Aries wire β — and software per-message overheads
// around 15 µs. The raw wire parameters remain available via
// netmodel.PizDaint for pure algorithm studies, where only ratios
// matter.
func EffectiveNet() netmodel.Params {
	p := netmodel.PizDaint()
	p.Alpha = 15e-6
	p.Beta *= 12
	return p
}

// NewAlgorithm constructs one rank's instance of the named reduction
// scheme.
func NewAlgorithm(name string, cfg allreduce.Config) allreduce.Algorithm {
	switch name {
	case "Dense":
		return allreduce.NewDense()
	case "DenseOvlp":
		return allreduce.NewDenseOvlp(cfg)
	case "TopkA":
		return sparsecoll.NewTopkA(cfg)
	case "TopkDSA":
		return sparsecoll.NewTopkDSA(cfg)
	case "gTopk":
		return sparsecoll.NewGTopk(cfg)
	case "Gaussiank":
		return sparsecoll.NewGaussiank(cfg)
	case "OkTopk":
		return core.NewDefault(cfg)
	case "Hierarchical":
		// Node-aware dense baseline (not in the paper's seven): the
		// two-level schedule the topo scenario runner compares against
		// the flat collectives on non-uniform networks.
		return allreduce.NewHierDense(cfg.NodeSize)
	}
	panic(fmt.Sprintf("train: unknown algorithm %q", name))
}

// Config describes one distributed training run.
type Config struct {
	Workload  string // "VGG" | "LSTM" | "BERT"
	Algorithm string // one of AlgorithmNames
	P         int    // number of workers
	Batch     int    // per-worker batch size
	Seed      int64

	// Reduction configuration (density, τ, τ′, ...).
	Reduce allreduce.Config

	// LR is the base learning rate; Schedule (optional) maps iteration →
	// learning rate. Schedule is process-local state, not part of the
	// serialized configuration a worker launcher ships.
	LR       float64
	Schedule func(t int) float64 `json:"-"`
	// Adam selects the raw-gradient + Adam structure (the paper's BERT
	// configuration); otherwise plain SGD per Algorithm 2.
	Adam bool

	// Net are the α-β machine constants; zero value means PizDaint. The
	// β is automatically scaled by PaperN/N so communication volumes
	// match the paper-scale models (see DESIGN.md); set NoBetaScale to
	// disable.
	Net         netmodel.Params
	NoBetaScale bool

	// Topology overlays a network topology (hierarchy, rail contention,
	// straggler/jitter injection) on the machine constants; the zero
	// value keeps the flat network. Kept separate from Net so it
	// composes with the zero-Net default: it is merged into Net.Topo
	// after default resolution.
	Topology netmodel.Topology

	// Wire selects the collective wire format: the default WireF64
	// (8-byte values, the seed behavior) or WireF32 (float32 values
	// rounded at the send edge, half-word accounting — the paper's
	// systems ship float32 gradients). Compute stays float64 either way.
	Wire cluster.Wire

	// CaptureAcc enables per-iteration accumulator capture (ξ studies).
	CaptureAcc bool

	// Transport selects the cluster backend: TransportInproc (default,
	// all P ranks as goroutines in this process) or TransportTCP (this
	// process hosts the single rank TCP.Rank of a multi-process job).
	// TCP sessions must be built with NewDistributedSession, which can
	// report rendezvous failures as errors.
	Transport cluster.TransportKind
	// TCP configures the tcp backend for this process (rank, rendezvous
	// address, timeout); Size is forced to P. Ignored for inproc. The
	// field carries a callback and is process-local, so launchers rebuild
	// it on the worker side rather than serializing it.
	TCP cluster.TCPOptions `json:"-"`
}

// Session owns a cluster plus its per-rank trainers.
type Session struct {
	Cfg      Config
	Cluster  *cluster.Cluster
	Trainers []*Trainer
	rngs     []*rand.Rand
	iter     int
	stats    []StepStats // RunIteration's per-rank scratch
}

// IterStats aggregates one collective iteration.
type IterStats struct {
	Iter        int
	Loss        float64    // mean over ranks
	Accuracy    float64    // correct/total over all ranks
	LocalK      float64    // mean local selection count
	GlobalK     float64    // mean global selection count
	Phase       [3]float64 // mean per-rank modeled seconds [compute, sparsify, comm]
	IterSeconds float64    // max over ranks (the iteration's critical path)
}

// NewSession builds the cluster, workload replicas and trainers on the
// in-process transport. TCP configurations must use
// NewDistributedSession (rendezvous can fail, and NewSession has no
// error path).
func NewSession(cfg Config) *Session {
	if cfg.Transport == cluster.TransportTCP {
		panic("train: tcp sessions must be built with NewDistributedSession")
	}
	s, err := NewDistributedSession(cfg)
	if err != nil {
		// Unreachable for inproc: only rendezvous produces errors.
		panic(err)
	}
	return s
}

// NewDistributedSession builds a session on the transport cfg.Transport
// selects. On TransportTCP this process hosts only rank cfg.TCP.Rank:
// Trainers and rngs keep rank indexing but hold nil for remote ranks,
// and the call blocks in rendezvous until all P worker processes have
// joined (or cfg.TCP.Timeout expires). The caller owns the session and
// must Close it.
func NewDistributedSession(cfg Config) (*Session, error) {
	if cfg.P <= 0 {
		panic("train: P must be positive")
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 8
	}
	if cfg.LR == 0 {
		cfg.LR = 0.1
	}
	probe := NewWorkload(cfg.Workload, cfg.Seed, cfg.Seed+1)
	net := cfg.Net
	if net == (netmodel.Params{}) {
		net = EffectiveNet()
	}
	if !cfg.NoBetaScale {
		// Communication and sparsification costs are both proportional
		// to the gradient size, so both scale by PaperN/N to put the
		// scaled-down substrate models in the paper-scale cost regime.
		ratio := float64(probe.PaperN()) / float64(probe.N())
		net.Beta *= ratio
		cfg.Reduce = cfg.Reduce.Defaults()
		cfg.Reduce.SortFlops *= ratio
		cfg.Reduce.ScanFlops *= ratio
	}
	if cfg.Topology.Active() {
		net.Topo = cfg.Topology
	}
	var c *cluster.Cluster
	switch cfg.Transport {
	case cluster.TransportInproc, "":
		c = cluster.NewWire(cfg.P, net, cfg.Wire)
	case cluster.TransportTCP:
		opts := cfg.TCP
		opts.Size = cfg.P
		var err error
		c, err = cluster.NewTCP(opts, net, cfg.Wire)
		if err != nil {
			return nil, err
		}
	default:
		panic(fmt.Sprintf("train: unknown transport %q", cfg.Transport))
	}
	s := &Session{
		Cfg:      cfg,
		Cluster:  c,
		Trainers: make([]*Trainer, cfg.P),
		rngs:     make([]*rand.Rand, cfg.P),
		stats:    make([]StepStats, cfg.P),
	}
	for _, r := range c.LocalRanks() {
		var w Workload
		if r == 0 {
			w = probe
		} else {
			w = NewWorkload(cfg.Workload, cfg.Seed, cfg.Seed+1)
		}
		var adam *optimizer.Adam
		if cfg.Adam {
			adam = optimizer.NewAdam(0.9, 0.999, 0.01)
		}
		tr := NewTrainer(w, NewAlgorithm(cfg.Algorithm, cfg.Reduce), adam, cfg.LR, cfg.Batch)
		tr.CaptureAcc = cfg.CaptureAcc
		s.Trainers[r] = tr
		s.rngs[r] = tensor.RNG(cfg.Seed + 1000 + int64(r))
	}
	return s, nil
}

// Close releases the session's cluster (TCP connections and reader
// goroutines; a no-op for inproc).
func (s *Session) Close() error { return s.Cluster.Close() }

// N returns the gradient size of the workload.
func (s *Session) N() int {
	for _, tr := range s.Trainers {
		if tr != nil {
			return tr.W.N()
		}
	}
	panic("train: session has no local trainers")
}

// RunIteration executes one collective training step on all locally
// hosted ranks and returns the aggregated statistics. On a
// multi-process (tcp) session the aggregate is complete only in the
// process hosting rank 0; other processes get their own rank's
// contribution.
func (s *Session) RunIteration() IterStats {
	s.iter++
	t := s.iter
	if s.Cfg.Schedule != nil {
		lr := s.Cfg.Schedule(t)
		for _, tr := range s.Trainers {
			if tr != nil {
				tr.LR = lr
			}
		}
	}
	stats := s.stats
	clear(stats)
	allLocal := s.Cluster.AllLocal()
	err := s.Cluster.Run(func(cm *cluster.Comm) error {
		st := s.Trainers[cm.Rank()].Step(cm, t, s.rngs[cm.Rank()])
		if allLocal {
			stats[cm.Rank()] = st
			return nil
		}
		// Multi-process job: ship the per-rank stats over the (uncosted)
		// control plane so the rank-0 process can aggregate. Other
		// processes see only their own rank's contribution.
		blob, err := json.Marshal(st)
		if err != nil {
			return err
		}
		blobs := cm.Gather(blob)
		stats[cm.Rank()] = st
		if cm.Rank() != 0 {
			return nil
		}
		for r, b := range blobs {
			if err := json.Unmarshal(b, &stats[r]); err != nil {
				return fmt.Errorf("train: rank %d stats: %w", r, err)
			}
		}
		return nil
	})
	if err != nil {
		panic(err)
	}
	agg := IterStats{Iter: t}
	var correct, total int
	for _, st := range stats {
		agg.Loss += st.Loss
		correct += st.Correct
		total += st.Total
		agg.LocalK += float64(st.LocalK)
		agg.GlobalK += float64(st.GlobalK)
		for i := 0; i < 3; i++ {
			agg.Phase[i] += st.Phase[i]
		}
		if st.IterSeconds > agg.IterSeconds {
			agg.IterSeconds = st.IterSeconds
		}
	}
	p := float64(s.Cfg.P)
	agg.Loss /= p
	agg.LocalK /= p
	agg.GlobalK /= p
	for i := 0; i < 3; i++ {
		agg.Phase[i] /= p
	}
	if total > 0 {
		agg.Accuracy = float64(correct) / float64(total)
	}
	return agg
}

// RunIterations executes count steps, invoking cb (if non-nil) after
// each.
func (s *Session) RunIterations(count int, cb func(IterStats)) {
	for i := 0; i < count; i++ {
		st := s.RunIteration()
		if cb != nil {
			cb(st)
		}
	}
}

// Evaluate runs the rank-0 replica's held-out metric (all replicas hold
// identical parameters, which ReplicaDivergence can assert).
func (s *Session) Evaluate(samples int) float64 {
	r := tensor.RNG(s.Cfg.Seed + 999)
	return s.Trainers[0].W.Evaluate(r, samples)
}

// MetricName reports the workload's evaluation metric.
func (s *Session) MetricName() string { return s.Trainers[0].W.MetricName() }

// rankState serializes one locally hosted rank's training state,
// including its absolute modeled-clock state (bit-exact resume needs
// the absolute clock, not an elapsed total — see netmodel.ClockState).
func (s *Session) rankState(r int) checkpoint.RankState {
	tr := s.Trainers[r]
	rs := checkpoint.RankState{
		Params:   append([]float64(nil), tr.W.Params()...),
		Residual: append([]float64(nil), tr.residual...),
		Clock:    s.Cluster.Comm(r).Clock().State(),
	}
	if tr.Adam != nil {
		m, v, t := tr.Adam.State()
		rs.AdamM = append([]float64(nil), m...)
		rs.AdamV = append([]float64(nil), v...)
		rs.AdamT = t
	}
	return rs
}

// Checkpoint snapshots the session's full training state (parameters,
// residuals, Adam moments, per-rank clocks, iteration counter) for
// later Restore. All ranks must be in-process; multi-process sessions
// use GatherCheckpoint.
func (s *Session) Checkpoint() *checkpoint.Checkpoint {
	if !s.Cluster.AllLocal() {
		panic("train: checkpointing needs every rank in-process")
	}
	c := &checkpoint.Checkpoint{
		Workload:  s.Cfg.Workload,
		Algorithm: s.Cfg.Algorithm,
		Iteration: s.iter,
	}
	for r := range s.Trainers {
		c.Ranks = append(c.Ranks, s.rankState(r))
	}
	return c
}

// GatherCheckpoint assembles a full-job checkpoint on a session of any
// transport. In-process sessions take the direct snapshot; on a
// multi-process (tcp) session every rank gob-encodes its local state
// and ships it over the uncosted control plane, so only the process
// hosting rank 0 returns a non-nil checkpoint — the others return
// (nil, nil) and rely on rank 0 to persist it. simSeconds is the
// job-level modeled total to stamp into the checkpoint (gob, not JSON,
// because training state can legitimately hold NaN/Inf and must round-
// trip bit-exactly).
func (s *Session) GatherCheckpoint(simSeconds float64) (*checkpoint.Checkpoint, error) {
	if s.Cluster.AllLocal() {
		c := s.Checkpoint()
		c.SimSeconds = simSeconds
		return c, nil
	}
	var out *checkpoint.Checkpoint
	err := s.Cluster.Run(func(cm *cluster.Comm) error {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(s.rankState(cm.Rank())); err != nil {
			return fmt.Errorf("train: checkpoint rank %d: %w", cm.Rank(), err)
		}
		blobs := cm.Gather(buf.Bytes())
		if cm.Rank() != 0 {
			return nil
		}
		c := &checkpoint.Checkpoint{
			Workload:   s.Cfg.Workload,
			Algorithm:  s.Cfg.Algorithm,
			Iteration:  s.iter,
			SimSeconds: simSeconds,
			Ranks:      make([]checkpoint.RankState, s.Cfg.P),
		}
		for r, b := range blobs {
			if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&c.Ranks[r]); err != nil {
				return fmt.Errorf("train: checkpoint rank %d decode: %w", r, err)
			}
		}
		out = c
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Restore installs a checkpoint taken from a session with the same
// configuration. It returns an error on shape or metadata mismatches.
// After Restore, continuing the session reproduces the original
// trajectory bit-for-bit (the data RNGs are re-derived from the
// iteration counter being advanced identically, so Restore must be
// applied to a session that has run the same number of iterations —
// typically a fresh session fast-forwarded via SkipTo). Only locally
// hosted ranks are restored — on a multi-process session each worker
// restores its own rank from the shared checkpoint file — and each
// restored rank's modeled clock is set to its checkpointed absolute
// state, which is what keeps resumed modeled time bit-identical.
func (s *Session) Restore(c *checkpoint.Checkpoint) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if c.Workload != s.Cfg.Workload || c.Algorithm != s.Cfg.Algorithm {
		return fmt.Errorf("train: checkpoint is %s/%s, session is %s/%s",
			c.Workload, c.Algorithm, s.Cfg.Workload, s.Cfg.Algorithm)
	}
	if len(c.Ranks) != len(s.Trainers) {
		return fmt.Errorf("train: checkpoint has %d ranks, session has %d", len(c.Ranks), len(s.Trainers))
	}
	if len(c.Ranks[0].Params) != s.N() {
		return fmt.Errorf("train: checkpoint n=%d, session n=%d", len(c.Ranks[0].Params), s.N())
	}
	for _, r := range s.Cluster.LocalRanks() {
		tr := s.Trainers[r]
		rs := c.Ranks[r]
		copy(tr.W.Params(), rs.Params)
		copy(tr.residual, rs.Residual)
		if tr.Adam != nil && rs.AdamM != nil {
			tr.Adam.SetState(rs.AdamM, rs.AdamV, rs.AdamT)
		}
		s.Cluster.Comm(r).Clock().SetState(rs.Clock)
	}
	s.iter = c.Iteration
	return nil
}

// SkipTo advances the per-rank data RNG streams to the state they would
// have after `iteration` training steps, without updating any model
// state — used before Restore on a fresh session so the continuation
// draws the same batches the original run would have. The RNG
// consumption per iteration is workload-dependent (BERT's masking draws
// a variable count), so the streams are advanced by replaying the batch
// draws; gradients touched by the replay are discarded by the next
// step's ZeroGrads.
func (s *Session) SkipTo(iteration int) {
	local := s.Cluster.LocalRanks()
	for _, r := range local {
		s.rngs[r] = tensor.RNG(s.Cfg.Seed + 1000 + int64(r))
	}
	for it := 0; it < iteration; it++ {
		for _, r := range local {
			tr := s.Trainers[r]
			_, _, _ = tr.W.ComputeBatch(s.rngs[r], tr.Batch)
		}
	}
	s.iter = iteration
}

// ReplicaDivergence returns the maximum absolute parameter difference
// between rank 0 and any other rank — zero for a correct data-parallel
// implementation.
func (s *Session) ReplicaDivergence() float64 {
	if !s.Cluster.AllLocal() {
		panic("train: replica divergence needs every rank in-process")
	}
	base := s.Trainers[0].W.Params()
	var maxDiff float64
	for _, tr := range s.Trainers[1:] {
		p := tr.W.Params()
		for i := range base {
			d := p[i] - base[i]
			if d < 0 {
				d = -d
			}
			if d > maxDiff {
				maxDiff = d
			}
		}
	}
	return maxDiff
}
