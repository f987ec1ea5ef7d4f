// Package sparse implements the coordinate (COO) sparse-vector format the
// paper assumes for all sparse allreduce algorithms: a sparse gradient of
// k nonzeros is stored as k (index, value) pairs and therefore occupies
// 2k words on the wire. The package provides construction from dense
// vectors, sorted merging with value accumulation (the reduction kernel
// of every sparse allreduce), densification and intersection of index
// sets.
package sparse

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/topk"
)

// Vec is a sparse vector in COO format. Indexes are kept sorted and
// unique; Values[i] corresponds to Indexes[i]. Dim is the logical length
// of the underlying dense vector (n in the paper).
type Vec struct {
	Dim     int
	Indexes []int32
	Values  []float64
}

// New returns an empty sparse vector of the given dimension.
func New(dim int) *Vec {
	return &Vec{Dim: dim}
}

// NNZ returns the number of stored nonzeros.
func (v *Vec) NNZ() int { return len(v.Indexes) }

// Words returns the wire size in words under the paper's COO accounting:
// one word per value plus one word per index (2k total).
func (v *Vec) Words() int { return 2 * len(v.Indexes) }

// Density returns NNZ/Dim, the paper's "density" metric (k/n).
func (v *Vec) Density() float64 {
	if v.Dim == 0 {
		return 0
	}
	return float64(v.NNZ()) / float64(v.Dim)
}

// Clone returns a deep copy of v.
func (v *Vec) Clone() *Vec {
	w := &Vec{Dim: v.Dim}
	w.Indexes = append([]int32(nil), v.Indexes...)
	w.Values = append([]float64(nil), v.Values...)
	return w
}

// Validate checks the structural invariants: sorted unique in-range
// indexes and matching slice lengths. It returns a descriptive error so
// property tests can report the exact violation.
func (v *Vec) Validate() error {
	if len(v.Indexes) != len(v.Values) {
		return fmt.Errorf("sparse: %d indexes but %d values", len(v.Indexes), len(v.Values))
	}
	for i, idx := range v.Indexes {
		if idx < 0 || int(idx) >= v.Dim {
			return fmt.Errorf("sparse: index %d out of range [0,%d)", idx, v.Dim)
		}
		if i > 0 && v.Indexes[i-1] >= idx {
			return fmt.Errorf("sparse: indexes not strictly increasing at %d (%d >= %d)",
				i, v.Indexes[i-1], idx)
		}
	}
	return nil
}

// Narrow32 rounds x into a freshly allocated []float32 — the
// convert-at-the-edge step for fan-out payloads on the f32 wire, which
// must never alias pools or instance scratch.
func Narrow32(x []float64) []float32 {
	out := make([]float32, len(x))
	for i, v := range x {
		out[i] = float32(v)
	}
	return out
}

// SetWire fills v's contents from a received wire payload: indexes are
// copied, and values arrive as exactly one of vals (f64 wire) or vals32
// (f32 wire, widened back to compute precision here). v must have been
// sized to len(idx) nonzeros, typically by Pool.Get — this is how a
// receiver rebuilds a mergeable compute-precision vector from the
// narrow wire without the wire buffers ever entering the merge kernels.
func (v *Vec) SetWire(idx []int32, vals []float64, vals32 []float32) {
	if len(v.Indexes) != len(idx) {
		panic(fmt.Sprintf("sparse: SetWire size mismatch %d != %d", len(v.Indexes), len(idx)))
	}
	copy(v.Indexes, idx)
	if vals32 != nil {
		for i, x := range vals32 {
			v.Values[i] = float64(x)
		}
		return
	}
	copy(v.Values, vals)
}

// FromDense builds a sparse vector from the nonzero entries of d.
func FromDense(d []float64) *Vec {
	v := New(len(d))
	for i, x := range d {
		if x != 0 {
			v.Indexes = append(v.Indexes, int32(i))
			v.Values = append(v.Values, x)
		}
	}
	return v
}

// FromDenseThreshold builds a sparse vector from the nonzero entries of
// d whose absolute value is at least th. This is the O(n)
// threshold-based sparsification kernel the paper's selection strategy
// relies on (topk's selection scan, keeping the values).
func FromDenseThreshold(d []float64, th float64) *Vec {
	return FromDenseThresholdInto(nil, d, th)
}

// ZeroIndexes restores buf's all-zero invariant given the indexes
// written into it since the last zeroing (duplicates are fine): an
// O(written) scatter when the write set is sparse, falling back to a
// sequential clear once it exceeds 1/8 of the buffer — beyond that the
// random scatter's cache misses cost more than the memset.
func ZeroIndexes(buf []float64, written []int32) {
	if len(written)*8 >= len(buf) {
		clear(buf)
		return
	}
	for _, idx := range written {
		buf[idx] = 0
	}
}

// FromDenseThresholdInto is FromDenseThreshold building into dst's
// reused backing arrays (dst may be nil on first use) — the steady-state
// form the per-iteration local selections of the sparse collectives use.
// It returns dst.
func FromDenseThresholdInto(dst *Vec, d []float64, th float64) *Vec {
	if dst == nil {
		dst = New(len(d))
	}
	dst.Dim = len(d)
	dst.Indexes, dst.Values = topk.AppendSelectValuesByThreshold(dst.Indexes[:0], dst.Values[:0], d, th)
	return dst
}

// FromPairs builds a sparse vector from possibly unsorted (index, value)
// pairs, sorting and summing duplicates.
func FromPairs(dim int, indexes []int32, values []float64) *Vec {
	if len(indexes) != len(values) {
		panic("sparse: FromPairs length mismatch")
	}
	type pair struct {
		idx int32
		val float64
	}
	ps := make([]pair, len(indexes))
	for i := range indexes {
		ps[i] = pair{indexes[i], values[i]}
	}
	slices.SortStableFunc(ps, func(a, b pair) int { return cmp.Compare(a.idx, b.idx) })
	v := New(dim)
	for _, p := range ps {
		if n := len(v.Indexes); n > 0 && v.Indexes[n-1] == p.idx {
			v.Values[n-1] += p.val
		} else {
			v.Indexes = append(v.Indexes, p.idx)
			v.Values = append(v.Values, p.val)
		}
	}
	return v
}

// Dense materializes v into a freshly allocated dense vector.
func (v *Vec) Dense() []float64 {
	d := make([]float64, v.Dim)
	for i, idx := range v.Indexes {
		d[idx] = v.Values[i]
	}
	return d
}

// Add returns the element-wise sum a+b as a new sparse vector. Both
// inputs must share the same dimension. The merge is the standard
// two-pointer walk over the sorted index lists; overlapping indexes are
// accumulated (this is where "fill-in" does not occur), disjoint indexes
// concatenate (this is fill-in: the result has up to NNZ(a)+NNZ(b)
// nonzeros).
func Add(a, b *Vec) *Vec {
	return AddTo(New(a.Dim), a, b)
}

// AddTo computes the element-wise sum a+b into out, reusing out's
// backing arrays (the steady-state form of Add — TopkDSA's recursive
// halving ping-pongs two of these). out must not alias a or b. It
// returns out.
func AddTo(out, a, b *Vec) *Vec {
	if a.Dim != b.Dim {
		panic(fmt.Sprintf("sparse: Add dimension mismatch %d != %d", a.Dim, b.Dim))
	}
	need := len(a.Indexes) + len(b.Indexes)
	if cap(out.Indexes) < need {
		out.Indexes = make([]int32, 0, need)
		out.Values = make([]float64, 0, need)
	}
	out.Dim = a.Dim
	out.Indexes = out.Indexes[:0]
	out.Values = out.Values[:0]
	i, j := 0, 0
	for i < len(a.Indexes) && j < len(b.Indexes) {
		switch {
		case a.Indexes[i] < b.Indexes[j]:
			out.Indexes = append(out.Indexes, a.Indexes[i])
			out.Values = append(out.Values, a.Values[i])
			i++
		case a.Indexes[i] > b.Indexes[j]:
			out.Indexes = append(out.Indexes, b.Indexes[j])
			out.Values = append(out.Values, b.Values[j])
			j++
		default:
			s := a.Values[i] + b.Values[j]
			out.Indexes = append(out.Indexes, a.Indexes[i])
			out.Values = append(out.Values, s)
			i++
			j++
		}
	}
	out.Indexes = append(out.Indexes, a.Indexes[i:]...)
	out.Values = append(out.Values, a.Values[i:]...)
	out.Indexes = append(out.Indexes, b.Indexes[j:]...)
	out.Values = append(out.Values, b.Values[j:]...)
	return out
}

// Reduce sums a list of sparse vectors with a single multi-way heap
// merge over the sorted per-source runs: O(total nnz · log len(vs))
// comparisons with no intermediate vectors (the pairwise tree it
// replaces materialized a partially filled-in vector per level).
// Duplicate indexes accumulate in ascending source order, so the
// result is independent of scheduling.
func Reduce(vs []*Vec) *Vec {
	switch len(vs) {
	case 0:
		panic("sparse: Reduce of empty list")
	case 1:
		return vs[0].Clone()
	}
	total := 0
	for _, v := range vs {
		total += v.NNZ()
	}
	out := New(vs[0].Dim)
	out.Indexes = make([]int32, 0, total)
	out.Values = make([]float64, 0, total)

	pos := make([]int, len(vs))
	heap := make([]mergeHead, 0, len(vs))
	for s, v := range vs {
		if v.Dim != vs[0].Dim {
			panic(fmt.Sprintf("sparse: Reduce dimension mismatch %d != %d", v.Dim, vs[0].Dim))
		}
		if v.NNZ() > 0 {
			heap = append(heap, mergeHead{idx: v.Indexes[0], src: int32(s)})
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		heapDown(heap, i)
	}
	for len(heap) > 0 {
		head := heap[0]
		src := vs[head.src]
		p := pos[head.src]
		if n := len(out.Indexes); n > 0 && out.Indexes[n-1] == head.idx {
			out.Values[n-1] += src.Values[p]
		} else {
			out.Indexes = append(out.Indexes, head.idx)
			out.Values = append(out.Values, src.Values[p])
		}
		p++
		pos[head.src] = p
		if p < src.NNZ() {
			heap[0].idx = src.Indexes[p]
			heapDown(heap, 0)
		} else {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
			heapDown(heap, 0)
		}
	}
	return out
}

// Slice returns the sub-vector of v restricted to indexes in [lo, hi),
// re-based so the caller sees original coordinates (indexes unchanged).
func (v *Vec) Slice(lo, hi int32) *Vec {
	out := New(v.Dim)
	start := sort.Search(len(v.Indexes), func(i int) bool { return v.Indexes[i] >= lo })
	end := sort.Search(len(v.Indexes), func(i int) bool { return v.Indexes[i] >= hi })
	out.Indexes = append(out.Indexes, v.Indexes[start:end]...)
	out.Values = append(out.Values, v.Values[start:end]...)
	return out
}

// AppendIntersect appends the sorted indexes present in both a and b to
// dst (typically a reused scratch slice sliced to length zero, so
// steady-state callers avoid reallocating the intersection buffer every
// iteration). Ok-Topk uses this to find which local top-k values
// contributed to the global top-k result (Algorithm 1 line 14).
func AppendIntersect(dst []int32, a, b []int32) []int32 {
	out := dst
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}
