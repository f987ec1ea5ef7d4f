package tensor

import (
	"fmt"
	"sync"
)

// Dense matrix kernels, parallelized over the shared worker pool with
// strict output-row ownership: each row of C is produced by exactly one
// block, and the per-row floating-point operation order is independent
// of the partition, so results are bit-identical at any worker count
// (see pool.go). Inner loops are unrolled 4-way; the unrolled forms are
// used on every path (serial and parallel) so the rounding behavior is
// one single function of the inputs.

// parMinFlops is the amount of work (in flops) worth one dispatch to
// the pool; blocks are sized so each carries at least this much.
const parMinFlops = 1 << 13

// GrainFor returns the ParallelFor grain for a loop doing flopsPerUnit
// work per index, sized so each dispatched block carries at least
// parMinFlops of work. Callers outside this package (the nn layers'
// per-row loops) use it so the grain policy has a single home.
func GrainFor(flopsPerUnit int) int {
	if flopsPerUnit <= 0 {
		return 1
	}
	g := parMinFlops / flopsPerUnit
	if g < 1 {
		g = 1
	}
	return g
}

// axpyTo computes y[j] += a*x[j] over len(y) elements with a 4-way
// unrolled loop. Each y[j] receives exactly one fused update, so the
// unrolling does not change any element's operation order.
func axpyTo(y []float64, a float64, x []float64) {
	x = x[:len(y)]
	n := len(y) &^ 3
	for j := 0; j < n; j += 4 {
		y[j] += a * x[j]
		y[j+1] += a * x[j+1]
		y[j+2] += a * x[j+2]
		y[j+3] += a * x[j+3]
	}
	for j := n; j < len(y); j++ {
		y[j] += a * x[j]
	}
}

// dot4 is the 4-accumulator unrolled inner product used by GemmTB and
// MatMulTB. The four partial sums break the add dependency chain; the
// summation order is fixed, so every caller sees the same rounding.
func dot4(x, y []float64) float64 {
	y = y[:len(x)]
	var s0, s1, s2, s3 float64
	n := len(x) &^ 3
	for j := 0; j < n; j += 4 {
		s0 += x[j] * y[j]
		s1 += x[j+1] * y[j+1]
		s2 += x[j+2] * y[j+2]
		s3 += x[j+3] * y[j+3]
	}
	s := (s0 + s1) + (s2 + s3)
	for j := n; j < len(x); j++ {
		s += x[j] * y[j]
	}
	return s
}

// Zero skipping in the backward kernels. Backprop through ReLU and
// max-pool leaves most of a gradient exactly zero, and GemmTA/MatMulTB
// drop every term with a zero gradient factor. That changes no bit:
// under round-to-nearest x+y is −0 only when both are −0, so an
// accumulator that starts at +0 is never −0, and adding the ±0 product
// of a zero and a finite factor leaves it unchanged. Each surviving term
// keeps its operands and its place in the order. A row takes the sparse
// path by its own nonzero count only, so the choice is the same at any
// worker count.
//
// sparseCap is the capacity of the stack-resident nonzero lists; a row
// with more nonzeros than that, or than half its length, takes the
// dense loop.
const sparseCap = 64

// nonzeros lists row's nonzero entries in ascending order into idx/val
// and returns their count, or -1 if the row is dense.
func nonzeros(row []float64, idx *[sparseCap]int32, val *[sparseCap]float64) int {
	limit := min(len(row)/2, sparseCap)
	nz := 0
	for j, v := range row {
		if v != 0 {
			if nz == limit {
				return -1
			}
			idx[nz], val[nz] = int32(j), v
			nz++
		}
	}
	return nz
}

// nonzerosByLane is nonzeros in dot4's summation order: the nonzeros of
// the unrolled body lane by lane (index mod 4), each lane ascending,
// then those of the tail. ends[l] is where lane l's run ends in idx/val,
// ends[4] where the tail's does, which is also the count.
func nonzerosByLane(row []float64, idx *[sparseCap]int32, val *[sparseCap]float64, ends *[5]int) int {
	limit := min(len(row)/2, sparseCap)
	n := len(row) &^ 3
	nz := 0
	for lane := 0; lane < 5; lane++ {
		lo, hi, step := lane, n, 4
		if lane == 4 {
			lo, hi, step = n, len(row), 1
		}
		for j := lo; j < hi; j += step {
			if v := row[j]; v != 0 {
				if nz == limit {
					return -1
				}
				idx[nz], val[nz] = int32(j), v
				nz++
			}
		}
		ends[lane] = nz
	}
	return nz
}

// sparseDot4 is dot4(x, y) for an x listed by nonzerosByLane: the same
// partial sums over the same surviving terms in the same order.
func sparseDot4(idx []int32, val []float64, ends *[5]int, y []float64) float64 {
	var s0, s1, s2, s3 float64
	t := 0
	for ; t < ends[0]; t++ {
		s0 += val[t] * y[idx[t]]
	}
	for ; t < ends[1]; t++ {
		s1 += val[t] * y[idx[t]]
	}
	for ; t < ends[2]; t++ {
		s2 += val[t] * y[idx[t]]
	}
	for ; t < ends[3]; t++ {
		s3 += val[t] * y[idx[t]]
	}
	s := (s0 + s1) + (s2 + s3)
	for ; t < ends[4]; t++ {
		s += val[t] * y[idx[t]]
	}
	return s
}

func gemmShapeCheck(a, b, c *Mat) {
	if a.Cols != b.Rows || a.Rows != c.Rows || b.Cols != c.Cols {
		panic(fmt.Sprintf("tensor: gemm shape mismatch (%dx%d)*(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
}

// job holds one kernel call's operands for its blocks to read. A kernel
// takes its operands as arguments, and a body capturing them would be a
// fresh closure on every call (see Body), so the call stores them in a
// job drawn from a pool instead and passes the job, viewed as the
// kernel's body type, to ParallelFor. Each kernel has a named type of
// job whose Range is its row loop.
type job struct {
	a, b, c *Mat
	bias    []float64
}

var jobs = sync.Pool{New: func() any { return new(job) }}

// newJob draws a job holding the given operands from the pool.
func newJob(a, b, c *Mat, bias []float64) *job {
	j := jobs.Get().(*job)
	*j = job{a: a, b: b, c: c, bias: bias}
	return j
}

// done returns the job to the pool with its operand references dropped.
func (j *job) done() {
	*j = job{}
	jobs.Put(j)
}

// MatMul computes C = A * B (overwriting C), A (M×K), B (K×N), C (M×N).
// Output rows are zeroed and accumulated inside their owning block, so
// the full product costs one pass over C.
func MatMul(a, b, c *Mat) {
	gemmShapeCheck(a, b, c)
	j := newJob(a, b, c, nil)
	ParallelFor(a.Rows, GrainFor(2*a.Cols*b.Cols), (*matMulJob)(j))
	j.done()
}

type matMulJob job

func (j *matMulJob) Range(lo, hi int) {
	for i := lo; i < hi; i++ {
		crow := j.c.Row(i)
		clear(crow)
		gemmRow(crow, j.a.Row(i), j.b)
	}
}

// Gemm computes C += A * B where A is (M×K), B is (K×N), C is (M×N).
// Row i of C accumulates a.Row(i)[k]*b.Row(k) in ascending k for every
// partition, keeping results bit-identical at any worker count.
func Gemm(a, b, c *Mat) {
	gemmShapeCheck(a, b, c)
	j := newJob(a, b, c, nil)
	ParallelFor(a.Rows, GrainFor(2*a.Cols*b.Cols), (*gemmJob)(j))
	j.done()
}

type gemmJob job

func (j *gemmJob) Range(lo, hi int) {
	for i := lo; i < hi; i++ {
		gemmRow(j.c.Row(i), j.a.Row(i), j.b)
	}
}

// gemmRow accumulates one output row: crow += Σ_k arow[k] * b.Row(k).
// Zero A entries are skipped (gradients are often sparse); the skip is
// identical on every path.
func gemmRow(crow, arow []float64, b *Mat) {
	for k, av := range arow {
		if av == 0 {
			continue
		}
		axpyTo(crow, av, b.Row(k))
	}
}

// GemmTA computes C += Aᵀ * B where A is (K×M), B is (K×N), C is (M×N).
// The partition is over output rows (columns of A); within a block the
// loop stays k-major, so each C element still accumulates in ascending
// k — the same order as the serial loop. Terms with a zero factor on
// either side are skipped (see sparseCap): B is the output gradient in
// every backward pass, so a row of B that is all zero costs one scan,
// and a sparse one updates only its nonzero columns of C.
func GemmTA(a, b, c *Mat) {
	if a.Rows != b.Rows || a.Cols != c.Rows || b.Cols != c.Cols {
		panic("tensor: gemmTA shape mismatch")
	}
	j := newJob(a, b, c, nil)
	ParallelFor(a.Cols, GrainFor(2*a.Rows*b.Cols), (*gemmTAJob)(j))
	j.done()
}

type gemmTAJob job

func (j *gemmTAJob) Range(lo, hi int) {
	a, b, c := j.a, j.b, j.c
	var idx [sparseCap]int32
	var val [sparseCap]float64
	for k := 0; k < a.Rows; k++ {
		arow := a.Row(k)[lo:hi]
		brow := b.Row(k)
		switch nz := nonzeros(brow, &idx, &val); {
		case nz == 0: // the row adds nothing
		case nz < 0:
			for ii, av := range arow {
				if av != 0 {
					axpyTo(c.Row(lo+ii), av, brow)
				}
			}
		default:
			cols, vals := idx[:nz], val[:nz]
			for ii, av := range arow {
				if av == 0 {
					continue
				}
				crow := c.Row(lo + ii)
				for t, j := range cols {
					crow[j] += av * vals[t]
				}
			}
		}
	}
}

// GemmTB computes C += A * Bᵀ where A is (M×K), B is (N×K), C is (M×N).
func GemmTB(a, b, c *Mat) {
	if a.Cols != b.Cols || a.Rows != c.Rows || b.Rows != c.Cols {
		panic("tensor: gemmTB shape mismatch")
	}
	j := newJob(a, b, c, nil)
	ParallelFor(a.Rows, GrainFor(2*a.Cols*b.Rows), (*gemmTBJob)(j))
	j.done()
}

type gemmTBJob job

func (j *gemmTBJob) Range(lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := j.a.Row(i)
		crow := j.c.Row(i)
		for k := range crow {
			crow[k] += dot4(arow, j.b.Row(k))
		}
	}
}

// MatMulBias computes Y = X·W + bias (overwriting Y, bias broadcast
// over rows) — the fused Linear-forward kernel. Each output row is
// initialized to the bias and accumulated by its owning block.
func MatMulBias(x, w *Mat, bias []float64, y *Mat) {
	gemmShapeCheck(x, w, y)
	if len(bias) != y.Cols {
		panic("tensor: matmulbias bias length mismatch")
	}
	j := newJob(x, w, y, bias)
	ParallelFor(x.Rows, GrainFor(2*x.Cols*w.Cols), (*matMulBiasJob)(j))
	j.done()
}

type matMulBiasJob job

func (j *matMulBiasJob) Range(lo, hi int) {
	for i := lo; i < hi; i++ {
		yrow := j.c.Row(i)
		copy(yrow, j.bias)
		gemmRow(yrow, j.a.Row(i), j.b)
	}
}

// MatMulTB computes C = A·Bᵀ (overwriting C), A (M×K), B (N×K). A is
// the output gradient in every backward pass, and its zeros are skipped
// (see sparseCap): an all-zero row of A gives a zero row of C, and a
// sparse one computes each C element as dot4 over its nonzeros only.
func MatMulTB(a, b, c *Mat) {
	if a.Cols != b.Cols || a.Rows != c.Rows || b.Rows != c.Cols {
		panic("tensor: matmulTB shape mismatch")
	}
	j := newJob(a, b, c, nil)
	ParallelFor(a.Rows, GrainFor(2*a.Cols*b.Rows), (*matMulTBJob)(j))
	j.done()
}

type matMulTBJob job

func (j *matMulTBJob) Range(lo, hi int) {
	a, b, c := j.a, j.b, j.c
	var idx [sparseCap]int32
	var val [sparseCap]float64
	var ends [5]int
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		switch nz := nonzerosByLane(arow, &idx, &val, &ends); {
		case nz == 0:
			clear(crow)
		case nz < 0:
			for j := range crow {
				crow[j] = dot4(arow, b.Row(j))
			}
		default:
			ks, vs := idx[:nz], val[:nz]
			for j := range crow {
				crow[j] = sparseDot4(ks, vs, &ends, b.Row(j))
			}
		}
	}
}

// ScaleAdd computes dst = a*x + y element-wise — the fused
// residual-accumulation kernel of the training loop (acc = ε + α·G).
func ScaleAdd(dst []float64, a float64, x, y []float64) {
	if len(x) != len(dst) || len(y) != len(dst) {
		panic("tensor: scaleadd length mismatch")
	}
	x, y = x[:len(dst)], y[:len(dst)]
	n := len(dst) &^ 3
	for i := 0; i < n; i += 4 {
		dst[i] = a*x[i] + y[i]
		dst[i+1] = a*x[i+1] + y[i+1]
		dst[i+2] = a*x[i+2] + y[i+2]
		dst[i+3] = a*x[i+3] + y[i+3]
	}
	for i := n; i < len(dst); i++ {
		dst[i] = a*x[i] + y[i]
	}
}

// Ensure returns a length-n vector reusing x's backing array when the
// capacity suffices (contents unspecified — callers overwrite the full
// length); the scratch-reuse counterpart of Copy. A nil x allocates.
func Ensure(x []float64, n int) []float64 {
	if cap(x) < n {
		return make([]float64, n)
	}
	return x[:n]
}

// EnsureMat resizes m to rows×cols, reusing its backing array when the
// capacity suffices, and zeroes the contents — the steady-state
// replacement for NewMat in per-step layer scratch. A nil m allocates.
// A backing array that is too small is replaced by one at least twice
// as large, so scratch whose shape varies per step (BERT's masked rows)
// stops allocating once it reaches its high-water mark.
func EnsureMat(m *Mat, rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic("tensor: negative matrix dimension")
	}
	n := rows * cols
	if m == nil {
		return NewMat(rows, cols)
	}
	if cap(m.Data) < n {
		m.Data = grown(m.Data, n)
	} else {
		m.Data = m.Data[:n]
		clear(m.Data)
	}
	m.Rows, m.Cols = rows, cols
	return m
}

// EnsureMatUninit is EnsureMat without the zeroing pass, for
// destinations every element of which is overwritten (MatMul outputs,
// repack buffers). Reused contents are unspecified.
func EnsureMatUninit(m *Mat, rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic("tensor: negative matrix dimension")
	}
	n := rows * cols
	if m == nil {
		return &Mat{Rows: rows, Cols: cols, Data: make([]float64, n)}
	}
	if cap(m.Data) < n {
		m.Data = grown(m.Data, n)
	} else {
		m.Data = m.Data[:n]
	}
	m.Rows, m.Cols = rows, cols
	return m
}

// grown returns a zeroed length-n replacement for x, which is too small,
// with room for at least twice what x held.
func grown(x []float64, n int) []float64 {
	return make([]float64, n, max(n, 2*cap(x)))
}
