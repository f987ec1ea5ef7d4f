// Package conformance is the cross-backend pin for the transport
// refactor: one table-driven harness that runs every collective
// algorithm on a cluster and digests everything the paper's figures
// depend on — the reduced update vectors bit-for-bit, the contributed
// index sets, the per-rank wire-word accounting, and the post-barrier
// simulated clock. The same harness body runs unmodified on the inproc
// and tcp transports; the test suite (and the multi-process tests in
// internal/worker) assert the resulting Reports are identical, so a
// transport can never drift from the semantics PRs 1–5 pinned without
// a red build.
//
// The package deliberately builds its own synthetic gradients instead
// of borrowing internal/experiments' generator: each rank derives its
// gradient only from (seed, rank, iteration), so a rank computes the
// same inputs whether it lives in a goroutine or in its own process,
// and the package stays import-cycle-free (worker → conformance,
// experiments → worker).
package conformance

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"

	"repro/internal/allreduce"
	"repro/internal/cluster"
	"repro/internal/tensor"
	"repro/internal/train"
)

// Spec is one conformance job: every algorithm in Algos runs Iters
// reduces over deterministic synthetic gradients on a P-rank cluster.
type Spec struct {
	// Algos names the train.Schemes rows to exercise (default: the
	// paper's seven, train.AlgorithmNames).
	Algos []string
	// P is the cluster size; N the gradient length; K the
	// sparsification budget.
	P, N, K int
	// Iters is the number of reduce iterations per algorithm.
	Iters int
	// Seed drives the synthetic gradients.
	Seed int64
	// CrashRank/CrashIter (with Crash set) inject a failure: CrashRank
	// calls Crash at the start of iteration CrashIter of the FIRST
	// algorithm, standing in for a worker process dying mid-reduce.
	// CrashIter 0 disables injection.
	CrashRank, CrashIter int
	// Crash is the injected failure action (os.Exit in worker
	// processes, a transport teardown in loopback tests). Not part of
	// the serialized spec — launchers re-attach it.
	Crash func() `json:"-"`
}

// withDefaults fills the zero fields.
func (s Spec) withDefaults() Spec {
	if len(s.Algos) == 0 {
		s.Algos = train.AlgorithmNames
	}
	if s.N == 0 {
		s.N = 4096
	}
	if s.K == 0 {
		s.K = 64
	}
	if s.Iters == 0 {
		s.Iters = 6
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// RankRecord is one rank's digested view of a conformance job. Two
// transports implement the same semantics exactly when every rank's
// record matches field for field.
type RankRecord struct {
	Rank int
	// Digests holds one FNV-1a digest per algorithm (spec order),
	// folding every iteration's globally-agreed Result fields: the
	// update vector's float64 bit patterns, the All flag and GlobalK.
	// An allreduce returns the same answer on every rank, so these must
	// agree across ranks as well as across backends.
	Digests []uint64
	// LocalDigests folds the rank-local Result fields per algorithm —
	// the Contributed index set and LocalK differ between ranks by
	// design, but for a fixed rank they must not differ between
	// transports.
	LocalDigests []uint64
	// SentWords / SentMsgs are the rank's netmodel accounting — the
	// quantity every figure's communication-volume axis is built from.
	SentWords, SentMsgs int64
	// ClockBits is the final simulated time's bit pattern, taken after
	// a closing barrier, so it must agree across ranks as well as
	// across backends.
	ClockBits uint64
}

// Report is the gathered job outcome (rank records in rank order).
type Report struct {
	Algos []string
	Ranks []RankRecord
}

// gradient fills g with rank r's deterministic iteration-t gradient: a
// small-noise bulk plus heavy entries clustered around centers shared
// by all ranks (the region-wise agreement the paper's sparse
// collectives exploit). Only (seed, rank, iter) matter — never the
// transport, never which process computes it.
func gradient(g []float64, seed int64, p, rank, iter, heavy int) {
	n := len(g)
	base := tensor.RNG(seed)
	centers := make([]int, 8)
	for i := range centers {
		centers[i] = base.Intn(n)
	}
	rng := tensor.RNG(seed + int64(iter)*1_000_003 + int64(rank) + 1)
	for i := range g {
		g[i] = rng.NormFloat64() * 0.001
	}
	for h := 0; h < heavy; h++ {
		var idx int
		if rng.Float64() < 0.7 {
			c := centers[rng.Intn(len(centers))]
			off := int(rng.NormFloat64() * float64(n) * 0.02)
			idx = ((c+off)%n + n) % n
		} else {
			idx = rng.Intn(n)
		}
		v := rng.Float64() + 0.5
		if rng.Intn(2) == 0 {
			v = -v
		}
		g[idx] = v
	}
}

type hasher interface{ Write([]byte) (int, error) }

func putU64(h hasher, u uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], u)
	h.Write(b[:])
}

// digestGlobal folds the Result fields every rank must agree on into h
// with unambiguous framing.
func digestGlobal(h hasher, res allreduce.Result) {
	putU64(h, uint64(len(res.Update)))
	for _, v := range res.Update {
		putU64(h, math.Float64bits(v))
	}
	if res.All {
		putU64(h, 1)
	} else {
		putU64(h, 0)
	}
	putU64(h, uint64(res.GlobalK))
}

// digestLocal folds the rank-local Result fields into h.
func digestLocal(h hasher, res allreduce.Result) {
	putU64(h, uint64(len(res.Contributed)))
	for _, idx := range res.Contributed {
		putU64(h, uint64(idx))
	}
	putU64(h, uint64(res.LocalK))
}

// runRank executes the job body for one rank and returns its record.
func runRank(cm *cluster.Comm, spec Spec) (RankRecord, error) {
	rec := RankRecord{
		Rank:         cm.Rank(),
		Digests:      make([]uint64, 0, len(spec.Algos)),
		LocalDigests: make([]uint64, 0, len(spec.Algos)),
	}
	cfg := allreduce.Config{K: spec.K, TauPrime: 2, Tau: 4}
	acc := make([]float64, spec.N)
	for ai, name := range spec.Algos {
		algo := train.NewAlgorithm(name, cfg)
		hg, hl := fnv.New64a(), fnv.New64a()
		for t := 1; t <= spec.Iters; t++ {
			// Key jitter draws to the iteration; on a flat topology this
			// is a plain store with no observable effect, so the stamp is
			// unconditional (and identical on every backend).
			cm.Clock().SetStep(t)
			if ai == 0 && spec.CrashIter > 0 && t == spec.CrashIter && cm.Rank() == spec.CrashRank && spec.Crash != nil {
				spec.Crash()
			}
			gradient(acc, spec.Seed, spec.P, cm.Rank(), t, spec.K)
			res := algo.Reduce(cm, acc, t)
			digestGlobal(hg, res)
			digestLocal(hl, res)
		}
		rec.Digests = append(rec.Digests, hg.Sum64())
		rec.LocalDigests = append(rec.LocalDigests, hl.Sum64())
		// Per-algorithm barrier: ranks must not race ahead into the next
		// algorithm's tag space while a peer still drains this one.
		cm.Barrier()
	}
	cm.DrainSends()
	cm.Barrier()
	st := cm.Clock().Snapshot()
	rec.SentWords, rec.SentMsgs = st.SentWords, st.SentMsgs
	rec.ClockBits = math.Float64bits(st.Time)
	return rec, nil
}

// Run executes the conformance job on every rank of c hosted in this
// process and gathers the records over the control plane. The Report
// is returned where rank 0 lives; other processes get nil. The caller
// owns c (including Close for tcp-backed clusters).
func Run(c *cluster.Cluster, spec Spec) (*Report, error) {
	spec = spec.withDefaults()
	if spec.P == 0 {
		spec.P = c.Size()
	}
	if spec.P != c.Size() {
		return nil, fmt.Errorf("conformance: spec.P=%d but cluster size %d", spec.P, c.Size())
	}
	var mu sync.Mutex
	var report *Report
	err := c.Run(func(cm *cluster.Comm) error {
		rec, err := runRank(cm, spec)
		if err != nil {
			return err
		}
		blob, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		blobs := cm.Gather(blob)
		if cm.Rank() != 0 {
			return nil
		}
		rep := &Report{Algos: spec.Algos, Ranks: make([]RankRecord, len(blobs))}
		for r, b := range blobs {
			if err := json.Unmarshal(b, &rep.Ranks[r]); err != nil {
				return fmt.Errorf("conformance: rank %d record: %w", r, err)
			}
		}
		mu.Lock()
		report = rep
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return report, nil
}

// Check validates the invariants a single Report must satisfy on ANY
// correct transport — before any cross-backend comparison: records in
// rank order, every rank agreeing on every algorithm digest (an
// allreduce returns the same result everywhere) and on the
// post-barrier clock.
func (r *Report) Check() error {
	if r == nil {
		return fmt.Errorf("conformance: nil report")
	}
	for i, rec := range r.Ranks {
		if rec.Rank != i {
			return fmt.Errorf("conformance: record %d came from rank %d", i, rec.Rank)
		}
		if len(rec.Digests) != len(r.Algos) || len(rec.LocalDigests) != len(r.Algos) {
			return fmt.Errorf("conformance: rank %d has %d/%d digests for %d algorithms",
				i, len(rec.Digests), len(rec.LocalDigests), len(r.Algos))
		}
	}
	r0 := r.Ranks[0]
	for _, rec := range r.Ranks[1:] {
		for a := range r.Algos {
			if rec.Digests[a] != r0.Digests[a] {
				return fmt.Errorf("conformance: %s result diverges between rank 0 (%016x) and rank %d (%016x)",
					r.Algos[a], r0.Digests[a], rec.Rank, rec.Digests[a])
			}
		}
		if rec.ClockBits != r0.ClockBits {
			return fmt.Errorf("conformance: post-barrier clock diverges between rank 0 (%016x) and rank %d (%016x)",
				r0.ClockBits, rec.Rank, rec.ClockBits)
		}
	}
	return nil
}

// Diff compares two Reports (typically inproc vs tcp) and returns a
// human-readable description of every divergence, or nil when they are
// identical. Wall-clock quantities are deliberately absent from
// RankRecord, so identical means identical.
func Diff(a, b *Report) []string {
	var diffs []string
	if len(a.Algos) != len(b.Algos) || len(a.Ranks) != len(b.Ranks) {
		return []string{fmt.Sprintf("shape mismatch: %d algos × %d ranks vs %d algos × %d ranks",
			len(a.Algos), len(a.Ranks), len(b.Algos), len(b.Ranks))}
	}
	for r := range a.Ranks {
		ra, rb := a.Ranks[r], b.Ranks[r]
		for i, name := range a.Algos {
			if ra.Digests[i] != rb.Digests[i] {
				diffs = append(diffs, fmt.Sprintf("rank %d %s: result digest %016x vs %016x", r, name, ra.Digests[i], rb.Digests[i]))
			}
			if ra.LocalDigests[i] != rb.LocalDigests[i] {
				diffs = append(diffs, fmt.Sprintf("rank %d %s: local digest %016x vs %016x", r, name, ra.LocalDigests[i], rb.LocalDigests[i]))
			}
		}
		if ra.SentWords != rb.SentWords {
			diffs = append(diffs, fmt.Sprintf("rank %d: sent words %d vs %d", r, ra.SentWords, rb.SentWords))
		}
		if ra.SentMsgs != rb.SentMsgs {
			diffs = append(diffs, fmt.Sprintf("rank %d: sent msgs %d vs %d", r, ra.SentMsgs, rb.SentMsgs))
		}
		if ra.ClockBits != rb.ClockBits {
			diffs = append(diffs, fmt.Sprintf("rank %d: clock bits %016x vs %016x", r, ra.ClockBits, rb.ClockBits))
		}
	}
	sort.Strings(diffs)
	return diffs
}
