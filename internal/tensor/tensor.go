// Package tensor provides the dense compute kernels used by the
// neural-network substrate and the sparse-allreduce algorithms: seeded
// random number generation, vector arithmetic (axpy, scale, dot) and
// matrix multiplies (MatMul, Gemm, GemmTA, GemmTB, MatMulTB)
// parallelized over a shared worker pool with deterministic row-block
// ownership — results are bit-identical at any worker count
// (SetWorkers). The backward kernels GemmTA and MatMulTB skip the zeros
// of the output gradient without changing a bit of the result (see
// sparseCap in kernels.go). Everything
// operates on []float64 and plain row-major matrices; there is
// deliberately no tensor abstraction beyond Mat, keeping the hot paths
// transparent.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// RNG returns a deterministic pseudo-random generator for the given seed.
// All randomness in the repository flows through seeded generators so
// experiments reproduce bit-for-bit.
func RNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Fill sets every element of x to v.
func Fill(x []float64, v float64) {
	for i := range x {
		x[i] = v
	}
}

// Copy returns a newly allocated copy of x.
func Copy(x []float64) []float64 {
	y := make([]float64, len(x))
	copy(y, x)
	return y
}

// Axpy computes y += a*x element-wise. x and y must have equal length.
func Axpy(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("tensor: axpy length mismatch %d != %d", len(x), len(y)))
	}
	axpyTo(y, a, x)
}

// Scale multiplies every element of x by a in place.
func Scale(a float64, x []float64) {
	for i := range x {
		x[i] *= a
	}
}

// Add computes z = x + y into z. All three must have equal length.
func Add(x, y, z []float64) {
	if len(x) != len(y) || len(x) != len(z) {
		panic("tensor: add length mismatch")
	}
	for i := range x {
		z[i] = x[i] + y[i]
	}
}

// Dot returns the inner product of x and y.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("tensor: dot length mismatch")
	}
	var s float64
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// Mean returns the arithmetic mean of x (0 for empty x).
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Std returns the population standard deviation of x.
func Std(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	m := Mean(x)
	var s float64
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(x)))
}

// Mat is a dense row-major matrix.
type Mat struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMat allocates a zeroed Rows×Cols matrix.
func NewMat(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic("tensor: negative matrix dimension")
	}
	return &Mat{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// NewMatFrom wraps data (not copied) as a Rows×Cols matrix.
func NewMatFrom(rows, cols int, data []float64) *Mat {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Mat{Rows: rows, Cols: cols, Data: data}
}

// At returns element (i, j).
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a slice aliasing row i.
func (m *Mat) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Mat) Clone() *Mat {
	return &Mat{Rows: m.Rows, Cols: m.Cols, Data: Copy(m.Data)}
}

// RandN fills x with N(0, sigma) samples from r.
func RandN(r *rand.Rand, x []float64, sigma float64) {
	for i := range x {
		x[i] = r.NormFloat64() * sigma
	}
}

// RandUniform fills x with uniform samples in [lo, hi).
func RandUniform(r *rand.Rand, x []float64, lo, hi float64) {
	for i := range x {
		x[i] = lo + r.Float64()*(hi-lo)
	}
}

// XavierInit fills w with Xavier/Glorot-uniform initialization for a layer
// with the given fan-in and fan-out.
func XavierInit(r *rand.Rand, w []float64, fanIn, fanOut int) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	RandUniform(r, w, -limit, limit)
}
