// Package allreduce defines the common interface all gradient-reduction
// algorithms implement — the two dense baselines (Dense, DenseOvlp), the
// four sparse baselines in internal/sparsecoll (TopkA, TopkDSA, gTopk,
// Gaussiank) and the paper's contribution in internal/core (Ok-Topk) —
// plus the shared configuration and sparsification cost accounting.
//
// An Algorithm instance is per-worker state (thresholds, residual-free
// controllers, region boundaries); the distributed training loop creates
// one instance per rank and calls Reduce collectively each iteration.
package allreduce

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/collectives"
	"repro/internal/netmodel"
	"repro/internal/tensor"
)

// Result is the outcome of one collective gradient reduction.
//
// Ownership: Update and Contributed are instance-owned scratch of the
// Algorithm that produced them — valid until the next Reduce call on
// the same instance, at which point they are reused. Callers that need
// the data longer must copy it. A sparse scheme's Update is the buffer
// of a SparseUpdate, which restricts what a caller may write into it.
type Result struct {
	// Update is the dense sum over workers of the (selected) gradient
	// contributions. The SGD step applies Update/P.
	Update []float64
	// Contributed lists the local indexes of acc that made it into
	// Update; the optimizer zeroes exactly these in the residual
	// (Algorithm 2 line 6). Ignored when All is true.
	Contributed []int32
	// All marks dense semantics: every index contributed, residuals are
	// always empty.
	All bool
	// LocalK and GlobalK count the locally selected values and the
	// values present in Update, feeding the Figure-6 accounting.
	LocalK, GlobalK int
}

// SparseUpdate is the storage behind a sparse scheme's Result.Update:
// an n-word buffer that is all-zero at the start of every call, and the
// list of indexes written since. Ok-Topk and the four sparse baselines
// each keep one per instance, so no Reduce materializes a fresh n-word
// vector or sweeps one with a memset in steady state.
//
// Update may be read freely and its EXISTING entries scaled or zeroed
// in place (the trainer's averaging does this), but callers must not
// write a nonzero into an entry that is zero: Begin restores the
// all-zero buffer by re-zeroing only the written indexes, so a nonzero
// smuggled in elsewhere would survive into every later Result.
type SparseUpdate struct {
	buf     []float64
	written []int32
}

// Begin returns the buffer for a gradient of n components, all-zero.
// It re-zeroes the indexes written since the last Begin (duplicates
// are fine), an O(k) scatter, or clears the whole buffer once they
// reach 1/8 of it, beyond which the scatter's cache misses cost more
// than the memset. A new n allocates a new buffer.
func (s *SparseUpdate) Begin(n int) []float64 {
	switch {
	case len(s.buf) != n:
		s.buf = make([]float64, n)
	case len(s.written)*8 >= n:
		clear(s.buf)
	default:
		for _, i := range s.written {
			s.buf[i] = 0
		}
	}
	s.written = s.written[:0]
	return s.buf
}

// Set writes vals at idx, bit for bit (a −0 stays −0).
func (s *SparseUpdate) Set(idx []int32, vals []float64) {
	buf := s.buf
	for i, j := range idx {
		buf[j] = vals[i]
	}
	s.written = append(s.written, idx...)
}

// Add accumulates vals at idx and returns the count of newly nonzero
// entries: the additions that found their entry zero and left it
// nonzero. An entry whose sum cancels to zero counts again when a
// later addition makes it nonzero.
func (s *SparseUpdate) Add(idx []int32, vals []float64) (nz int) {
	buf := s.buf
	for i, j := range idx {
		if buf[j] == 0 && vals[i] != 0 {
			nz++
		}
		buf[j] += vals[i]
	}
	s.written = append(s.written, idx...)
	return nz
}

// Reserve gives the written list room for c indexes, for a caller that
// knows its result's size ahead: a list grown by appends would leave
// each outgrown array to the GC.
func (s *SparseUpdate) Reserve(c int) {
	if cap(s.written) < c {
		s.written = make([]int32, 0, c)
	}
}

// Algorithm is a collective gradient reduction. Reduce must be called by
// all ranks of the communicator with the same iteration number t
// (1-based); it is a collective operation.
type Algorithm interface {
	Name() string
	// OverlapsBackward reports whether the implementation overlaps its
	// communication with backward computation (DenseOvlp). Such
	// algorithms also implement Overlapped; the training loop drives
	// their reduction bucket by bucket against the backward schedule.
	// One the loop cannot see as Overlapped (hidden behind a wrapper)
	// gets the monolithic Reduce, charged in full.
	OverlapsBackward() bool
	Reduce(cm cluster.Endpoint, acc []float64, t int) Result
}

// Overlapped is implemented by algorithms whose reduction can be
// pipelined bucket by bucket against the backward pass. The training
// loop splits one logical Reduce into Buckets(n) IssueBucket calls —
// each launched, inside a netmodel overlap window, the moment the last
// layer contributing to that bucket finishes its backward — followed by
// one DrainOverlap that completes the reduction and assembles the
// Result. All ranks must issue the same buckets in the same order
// (IssueBucket is collective), and every bucket must be issued exactly
// once before DrainOverlap. Reduce remains available as the monolithic,
// non-pipelined path and computes bit-identical sums.
type Overlapped interface {
	Algorithm
	// Buckets returns the number of pipeline buckets used for a gradient
	// of n components.
	Buckets(n int) int
	// BucketBounds returns bucket b's half-open [lo, hi) range in the
	// flat gradient vector. Buckets tile [0, n) in index order.
	BucketBounds(n, b int) (lo, hi int)
	// IssueBucket launches bucket b's reduction of acc[lo:hi).
	IssueBucket(cm cluster.Endpoint, acc []float64, b int)
	// DrainOverlap completes the pipelined reduction and returns the
	// Result (same ownership contract as Reduce).
	DrainOverlap(cm cluster.Endpoint, acc []float64, t int) Result
}

// Config carries the knobs shared by the sparse algorithms. Zero values
// are replaced by the paper's defaults via Defaults.
type Config struct {
	// Density is k/n; K overrides it when nonzero.
	Density float64
	K       int
	// TauPrime is the threshold re-evaluation period τ′ (§3.1.3).
	TauPrime int
	// Tau is the space-repartition period τ (§3.1.1).
	Tau int
	// BucketSize is the number of simultaneous non-blocking transfers in
	// the split-and-reduce phase (§3.1.1, Figure 2c).
	BucketSize int
	// Rotation enables destination rotation (Figure 2b); disabling it
	// reproduces the endpoint-congested naive pattern for ablations.
	Rotation bool
	// Repartition enables balanced space repartition; disabling it uses
	// equal-size regions ("naive reduce" in Figure 7a).
	Repartition bool
	// DataBalance enables the conditional balancing step before the
	// final allgatherv (§3.1.2); disabling reproduces "direct
	// allgatherv" in Figure 7b.
	DataBalance bool
	// DenseBuckets is the number of gradient buckets DenseOvlp pipelines.
	DenseBuckets int
	// NodeSize is the ranks-per-node the Hierarchical algorithm groups
	// by (0 picks the topology's node size, falling back to 4).
	NodeSize int
	// SortFlops and ScanFlops are the modeled per-element costs (in
	// flop-equivalents) of sort-based top-k selection and of an O(n)
	// threshold scan. Sort-based selection on GPUs is memory-bound and
	// slow — the paper's motivation for threshold reuse — so SortFlops
	// is two to three orders of magnitude larger than ScanFlops.
	SortFlops float64
	ScanFlops float64
}

// Defaults fills unset fields with the paper's values.
func (c Config) Defaults() Config {
	if c.Density == 0 && c.K == 0 {
		c.Density = 0.01
	}
	if c.TauPrime == 0 {
		c.TauPrime = 32
	}
	if c.Tau == 0 {
		c.Tau = 64
	}
	if c.BucketSize == 0 {
		c.BucketSize = 8
	}
	if c.DenseBuckets == 0 {
		c.DenseBuckets = 8
	}
	if c.SortFlops == 0 {
		// Calibrated to torch.topk on a P100: ≈0.12 s for n=14.7M
		// (Figure 8's TopkA sparsification bar) at γ=1e-12 s/flop.
		c.SortFlops = 8000
	}
	if c.ScanFlops == 0 {
		c.ScanFlops = 3
	}
	return c
}

// KFor resolves the target k for a gradient of n components.
func (c Config) KFor(n int) int {
	k := c.K
	if k == 0 {
		k = int(c.Density * float64(n))
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// ChargeSort accounts an exact (sort-based) top-k selection over n
// elements under the sparsification phase.
func ChargeSort(cm cluster.Endpoint, cfg Config, n int) {
	prev := cm.Clock().CurrentPhase()
	cm.Clock().SetPhase(netmodel.PhaseSparsify)
	cm.Clock().Compute(cfg.SortFlops * float64(n))
	cm.Clock().SetPhase(prev)
}

// ChargeScan accounts an O(n) threshold scan under the sparsification
// phase.
func ChargeScan(cm cluster.Endpoint, cfg Config, n int) {
	prev := cm.Clock().CurrentPhase()
	cm.Clock().SetPhase(netmodel.PhaseSparsify)
	cm.Clock().Compute(cfg.ScanFlops * float64(n))
	cm.Clock().SetPhase(prev)
}

// Dense is the single-allreduce baseline: one Rabenseifner/ring allreduce
// over the full aggregated gradient (2n(P−1)/P volume). The allreduce
// reads acc and writes the sum straight into the instance-owned result
// buffer, which every call fully overwrites; acc is never copied.
type Dense struct {
	sum []float64
}

// NewDense returns the dense baseline.
func NewDense() *Dense { return &Dense{} }

func (*Dense) Name() string           { return "Dense" }
func (*Dense) OverlapsBackward() bool { return false }

// Reduce sums acc across all ranks densely.
func (d *Dense) Reduce(cm cluster.Endpoint, acc []float64, t int) Result {
	cm.Clock().SetPhase(netmodel.PhaseComm)
	sum := tensor.Ensure(d.sum, len(acc))
	d.sum = sum
	collectives.AllreduceFrom(cm, acc, sum)
	cm.Clock().SetPhase(netmodel.PhaseCompute)
	return Result{Update: sum, All: true, LocalK: len(acc), GlobalK: len(acc)}
}

// DenseOvlp is the bucketed dense allreduce: the gradient is cut into
// DenseBuckets chunks, each reduced by its own allreduce so that bucket
// i's communication overlaps the backward computation that produces
// bucket i+1. The training loop drives that pipeline through the
// Overlapped interface (IssueBucket inside a netmodel overlap window);
// Reduce remains the monolithic path — volume measurements, and callers
// that cannot see Overlapped — producing bit-identical sums.
type DenseOvlp struct {
	cfg    Config
	sum    []float64
	issued int
}

// NewDenseOvlp returns the overlapped dense baseline.
func NewDenseOvlp(cfg Config) *DenseOvlp { return &DenseOvlp{cfg: cfg.Defaults()} }

var _ Overlapped = (*DenseOvlp)(nil)

func (*DenseOvlp) Name() string           { return "DenseOvlp" }
func (*DenseOvlp) OverlapsBackward() bool { return true }

// Buckets returns the pipeline depth for n gradient components.
func (d *DenseOvlp) Buckets(n int) int {
	nb := d.cfg.DenseBuckets
	if nb > n {
		nb = n
	}
	return nb
}

// BucketBounds returns bucket b's [lo, hi) slice of the flat vector.
func (d *DenseOvlp) BucketBounds(n, b int) (lo, hi int) {
	nb := d.Buckets(n)
	return b * n / nb, (b + 1) * n / nb
}

// IssueBucket launches bucket b's allreduce over acc[lo:hi), reading
// acc and writing the bucket's sum into the result buffer without
// copying acc first. Collective: all ranks must issue the same buckets
// in the same order.
func (d *DenseOvlp) IssueBucket(cm cluster.Endpoint, acc []float64, b int) {
	cm.Clock().SetPhase(netmodel.PhaseComm)
	if d.issued == 0 {
		d.sum = tensor.Ensure(d.sum, len(acc))
	}
	lo, hi := d.BucketBounds(len(acc), b)
	collectives.AllreduceFrom(cm, acc[lo:hi], d.sum[lo:hi])
	d.issued++
}

// DrainOverlap completes the pipelined reduction after every bucket was
// issued and returns the Result.
func (d *DenseOvlp) DrainOverlap(cm cluster.Endpoint, acc []float64, t int) Result {
	if nb := d.Buckets(len(acc)); d.issued != nb {
		panic(fmt.Sprintf("allreduce: DenseOvlp drained after %d of %d buckets", d.issued, nb))
	}
	d.issued = 0
	cm.Clock().SetPhase(netmodel.PhaseCompute)
	return Result{Update: d.sum, All: true, LocalK: len(acc), GlobalK: len(acc)}
}

// Reduce sums acc across all ranks with bucketed allreduces, issued
// back to back (no overlap window).
func (d *DenseOvlp) Reduce(cm cluster.Endpoint, acc []float64, t int) Result {
	for b := 0; b < d.Buckets(len(acc)); b++ {
		d.IssueBucket(cm, acc, b)
	}
	return d.DrainOverlap(cm, acc, t)
}
