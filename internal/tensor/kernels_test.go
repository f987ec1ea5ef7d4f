package tensor

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// refGemm is the reference C += A*B in the exact (i, k, j) order the
// parallel kernel must reproduce per output row.
func refGemm(a, b, c *Mat) {
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			av := at(a, i, k)
			if av == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				c.Data[i*c.Cols+j] += av * at(b, k, j)
			}
		}
	}
}

// refGemmTA is GemmTA before it skipped zeros in B: every term with a
// nonzero A factor, in ascending k, one axpy per (k, output row).
func refGemmTA(a, b, c *Mat) {
	for k := 0; k < a.Rows; k++ {
		brow := b.Row(k)
		for i, av := range a.Row(k) {
			if av == 0 {
				continue
			}
			axpyTo(c.Row(i), av, brow)
		}
	}
}

// refMatMulTB is MatMulTB before it skipped zeros in A: one full dot4
// per output element.
func refMatMulTB(a, b, c *Mat) {
	for i := 0; i < a.Rows; i++ {
		crow := c.Row(i)
		for j := range crow {
			crow[j] = dot4(a.Row(i), b.Row(j))
		}
	}
}

// gradMat returns a rows×cols matrix shaped like a backprop gradient:
// every fourth row is all zero, every other entry is zero with
// probability frac, zeros take either sign, and the rest are N(0, 1).
func gradMat(seed int64, rows, cols int, frac float64) *Mat {
	r := RNG(seed)
	m := NewMat(rows, cols)
	for i := range m.Data {
		v := r.NormFloat64()
		if i/cols%4 == 3 || r.Float64() < frac {
			v = math.Copysign(0, v)
		}
		m.Data[i] = v
	}
	return m
}

// TestBackwardKernelsMatchReference pins the zero-skipping GemmTA and
// MatMulTB to the loops they replaced, bit for bit, across gradient
// densities, row lengths (the dot4 tail, the lane split, the list
// capacity), all-zero rows, ±0 in both operands and worker counts. The
// row length K is the gradient operand's: GemmTA's output width, and
// MatMulTB's inner dimension.
func TestBackwardKernelsMatchReference(t *testing.T) {
	seed := int64(100)
	for _, frac := range []float64{0, 0.5, 0.8, 0.97, 1} {
		for _, k := range []int{1, 3, 4, 7, 16, 64, 65, 200} {
			seed++
			// GemmTA: C (40×k) += Aᵀ·B, A (24×40) activations, B (24×k)
			// the gradient; C's zeros are made +0, since a −0 in C is a
			// documented edge case (TestBackwardKernelsZeroSkipEdges).
			a, b := gradMat(seed, 24, 40, 0.1), gradMat(seed+1000, 24, k, frac)
			c0 := gradMat(seed+2000, 40, k, 0.1)
			for i, v := range c0.Data {
				c0.Data[i] = math.Abs(v)
			}
			wantTA := cloneMat(c0)
			refGemmTA(a, b, wantTA)
			// MatMulTB: C (48×11) = A·Bᵀ, A (48×k) the gradient, B (11×k)
			// weights; C starts as garbage the kernel must overwrite.
			ga, w := gradMat(seed+3000, 48, k, frac), gradMat(seed+4000, 11, k, 0.1)
			wantTB := NewMat(48, 11)
			refMatMulTB(ga, w, wantTB)
			for _, workers := range []int{1, 2, 3, 8} {
				withWorkers(t, workers, func() {
					gotTA := cloneMat(c0)
					GemmTA(a, b, gotTA)
					if !matsEqual(wantTA, gotTA) {
						t.Fatalf("GemmTA zero fraction %v K=%d workers=%d differs from reference", frac, k, workers)
					}
					gotTB := NewMat(48, 11)
					Fill(gotTB.Data, math.NaN())
					MatMulTB(ga, w, gotTB)
					if !matsEqual(wantTB, gotTB) {
						t.Fatalf("MatMulTB zero fraction %v K=%d workers=%d differs from reference", frac, k, workers)
					}
				})
			}
		}
	}
}

// TestBackwardKernelsZeroSkipEdges pins the documented departures from
// the reference loops, which only inputs no caller produces reach: a
// zero gradient entry skips its partner even when that is NaN or ±Inf,
// and a −0 already in GemmTA's C stays −0. A dense row still multiplies
// every entry, as the reference does.
func TestBackwardKernelsZeroSkipEdges(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	negZero := math.Copysign(0, -1)

	// GemmTA, sparse B row (one nonzero of four): only column 1 is touched.
	a := NewMatFrom(1, 1, []float64{inf})
	b := NewMatFrom(1, 4, []float64{0, 2, negZero, 0})
	c := NewMatFrom(1, 4, []float64{negZero, 1, 5, 0})
	GemmTA(a, b, c)
	if got := c.Row(0); math.Float64bits(got[0]) != math.Float64bits(negZero) ||
		!math.IsInf(got[1], 1) || got[2] != 5 || math.Float64bits(got[3]) != 0 {
		t.Fatalf("GemmTA sparse row: got %v, want [-0 +Inf 5 0]", got)
	}
	// The same with a dense B row (three nonzeros of four) is the reference.
	b = NewMatFrom(1, 4, []float64{0, 2, 3, 4})
	want, got := NewMatFrom(1, 4, []float64{negZero, 1, 5, 0}), NewMatFrom(1, 4, []float64{negZero, 1, 5, 0})
	refGemmTA(a, b, want)
	GemmTA(a, b, got)
	if !math.IsNaN(got.Data[0]) || !matsEqual(want, got) {
		t.Fatalf("GemmTA dense row: got %v, want %v", got.Data, want.Data)
	}
	// −0 in C meets +0 products: the reference gives +0, the kernel keeps −0.
	a = NewMatFrom(1, 1, []float64{1})
	b = NewMatFrom(1, 4, []float64{0, 2, 0, 0})
	c = NewMatFrom(1, 4, []float64{negZero, 0, negZero, negZero})
	GemmTA(a, b, c)
	for _, j := range []int{0, 2, 3} {
		if !math.Signbit(c.Data[j]) {
			t.Fatalf("GemmTA: -0 in C at %d became %v", j, c.Data[j])
		}
	}

	// MatMulTB, sparse A row: the NaN and Inf facing zeros are skipped.
	w := NewMatFrom(2, 4, []float64{nan, inf, 1, negZero, 1, 1, 1, 1})
	ga := NewMatFrom(2, 4, []float64{0, negZero, 3, 0, 0, 0, 0, 0})
	out := NewMat(2, 2)
	Fill(out.Data, 7)
	MatMulTB(ga, w, out)
	if want := []float64{3, 3, 0, 0}; !matsEqual(out, NewMatFrom(2, 2, want)) {
		t.Fatalf("MatMulTB sparse and zero rows: got %v, want %v", out.Data, want)
	}
	// A dense A row multiplies the NaN like the reference.
	ga = NewMatFrom(1, 4, []float64{1, 0, 3, 2})
	w = NewMatFrom(1, 4, []float64{nan, inf, 1, 1})
	out = NewMat(1, 1)
	MatMulTB(ga, w, out)
	if !math.IsNaN(out.Data[0]) {
		t.Fatalf("MatMulTB dense row: got %v, want NaN", out.Data[0])
	}
}

// FuzzBackwardKernels derives shapes, a zero mask and finite values from
// the input and requires GemmTA and MatMulTB to equal their reference
// loops bit for bit at one and three workers. Byte 3 is the zero
// threshold; each later byte, read cyclically, is one matrix entry:
// below the threshold a zero whose sign is the byte's low bit, else a
// small finite value. The seed corpus is testdata/fuzz/FuzzBackwardKernels.
func FuzzBackwardKernels(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		m, k, n, thresh, stream := 1+int(data[0])%12, 1+int(data[1])%150, 1+int(data[2])%12, data[3], data[4:]
		e := 0
		fill := func(rows, cols int) *Mat {
			x := NewMat(rows, cols)
			for i := range x.Data {
				switch bt := stream[e%len(stream)]; {
				case bt < thresh && bt&1 == 1:
					x.Data[i] = math.Copysign(0, -1)
				case bt < thresh:
					x.Data[i] = 0
				default:
					x.Data[i] = float64(int8(bt)) / 16 * (1 + float64(e%5)/8)
				}
				e++
			}
			return x
		}
		// GemmTA: A (m×n) activations, B (m×k) the gradient, C (n×k).
		a, b, c := fill(m, n), fill(m, k), fill(n, k)
		for i, v := range c.Data {
			c.Data[i] = math.Abs(v) // no −0 in C: the documented edge
		}
		wantTA := cloneMat(c)
		refGemmTA(a, b, wantTA)
		// MatMulTB: A (m×k) the gradient, B (n×k) weights, C (m×n).
		ga, w := fill(m, k), fill(n, k)
		wantTB := NewMat(m, n)
		refMatMulTB(ga, w, wantTB)
		for _, workers := range []int{1, 3} {
			withWorkers(t, workers, func() {
				gotTA := cloneMat(c)
				GemmTA(a, b, gotTA)
				if !matsEqual(wantTA, gotTA) {
					t.Fatalf("GemmTA m=%d k=%d n=%d workers=%d differs from reference", m, k, n, workers)
				}
				gotTB := NewMat(m, n)
				MatMulTB(ga, w, gotTB)
				if !matsEqual(wantTB, gotTB) {
					t.Fatalf("MatMulTB m=%d k=%d n=%d workers=%d differs from reference", m, k, n, workers)
				}
			})
		}
	})
}

func randMat(seed int64, rows, cols int) *Mat {
	m := NewMat(rows, cols)
	RandN(RNG(seed), m.Data, 1)
	// Sprinkle exact zeros to exercise the skip branches.
	for i := 7; i < len(m.Data); i += 13 {
		m.Data[i] = 0
	}
	return m
}

// withWorkers runs fn at the given parallelism and restores the
// default afterwards.
func withWorkers(t *testing.T, n int, fn func()) {
	t.Helper()
	SetWorkers(n)
	defer SetWorkers(0)
	fn()
}

func matsEqual(a, b *Mat) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if math.Float64bits(v) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// TestGemmMatchesNaive pins the parallel Gemm to the reference loop
// order exactly (the unrolled axpy preserves per-element order).
func TestGemmMatchesNaive(t *testing.T) {
	for _, dims := range [][3]int{{1, 1, 1}, {3, 5, 7}, {17, 9, 33}, {64, 64, 64}} {
		m, k, n := dims[0], dims[1], dims[2]
		a, b := randMat(1, m, k), randMat(2, k, n)
		want := NewMat(m, n)
		refGemm(a, b, want)
		got := NewMat(m, n)
		Gemm(a, b, got)
		if !matsEqual(want, got) {
			t.Fatalf("Gemm(%dx%dx%d) differs from reference", m, k, n)
		}
	}
}

// TestKernelsDeterministicAcrossWorkers is the kernel-layer determinism
// contract: every GEMM variant is bit-identical at worker counts 1, 2,
// 3, 4 and 8 (including counts exceeding GOMAXPROCS). The kernels of a
// training step are also bit-identical when eight goroutines call them
// at once, which changes the number of blocks each call splits into.
func TestKernelsDeterministicAcrossWorkers(t *testing.T) {
	kernels := []struct {
		name string
		run  func() *Mat
	}{
		{"MatMul", func() *Mat {
			a, b, c := randMat(3, 37, 29), randMat(4, 29, 41), NewMat(37, 41)
			MatMul(a, b, c)
			return c
		}},
		{"Gemm", func() *Mat {
			a, b, c := randMat(5, 37, 29), randMat(6, 29, 41), randMat(7, 37, 41)
			Gemm(a, b, c)
			return c
		}},
		{"GemmTA", func() *Mat {
			a, b, c := randMat(8, 29, 37), randMat(9, 29, 41), randMat(10, 37, 41)
			GemmTA(a, b, c)
			return c
		}},
		{"GemmTB", func() *Mat {
			a, b, c := randMat(11, 37, 29), randMat(12, 41, 29), randMat(13, 37, 41)
			GemmTB(a, b, c)
			return c
		}},
		{"MatMulBias", func() *Mat {
			a, b, c := randMat(14, 37, 29), randMat(15, 29, 41), NewMat(37, 41)
			bias := make([]float64, 41)
			RandN(RNG(16), bias, 1)
			MatMulBias(a, b, bias, c)
			return c
		}},
		{"MatMulTB", func() *Mat {
			a, b, c := randMat(17, 37, 29), randMat(18, 41, 29), NewMat(37, 41)
			MatMulTB(a, b, c)
			return c
		}},
	}
	for _, kn := range kernels {
		t.Run(kn.name, func(t *testing.T) {
			var ref *Mat
			withWorkers(t, 1, func() { ref = cloneMat(kn.run()) })
			for _, w := range []int{2, 3, 4, 8} {
				var got *Mat
				withWorkers(t, w, func() { got = kn.run() })
				if !matsEqual(ref, got) {
					t.Fatalf("%s differs between workers=1 and workers=%d", kn.name, w)
				}
			}
			switch kn.name {
			case "MatMul", "GemmTA", "MatMulTB":
			default:
				return
			}
			withWorkers(t, 4, func() {
				var wg sync.WaitGroup
				differs := make([]bool, 8)
				for g := range differs {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for rep := 0; rep < 20; rep++ {
							differs[g] = differs[g] || !matsEqual(ref, kn.run())
						}
					}()
				}
				wg.Wait()
				for g, d := range differs {
					if d {
						t.Fatalf("%s called from goroutine %d of 8 differs from a lone call", kn.name, g)
					}
				}
			})
		})
	}
}

// TestParallelForCoversOnce checks the partition: every index in [0, n)
// is visited exactly once for a spread of sizes and worker counts.
func TestParallelForCoversOnce(t *testing.T) {
	for _, w := range []int{1, 2, 3, 7} {
		for _, n := range []int{0, 1, 2, 5, 64, 1000} {
			withWorkers(t, w, func() {
				counts := make([]int32, n)
				var mu sync.Mutex
				ParallelFor(n, 1, func(lo, hi int) {
					mu.Lock()
					for i := lo; i < hi; i++ {
						counts[i]++
					}
					mu.Unlock()
				})
				for i, c := range counts {
					if c != 1 {
						t.Fatalf("w=%d n=%d: index %d visited %d times", w, n, i, c)
					}
				}
			})
		}
	}
}

// TestParallelForConcurrentCallers drives many simultaneous top-level
// ParallelFor calls (the experiment-scheduler shape) through the shared
// pool; run with -race to validate the pool's synchronization.
func TestParallelForConcurrentCallers(t *testing.T) {
	withWorkers(t, 4, func() {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				for rep := 0; rep < 10; rep++ {
					a, b, c := randMat(seed, 33, 17), randMat(seed+1, 17, 21), NewMat(33, 21)
					MatMul(a, b, c)
				}
			}(int64(g))
		}
		wg.Wait()
	})
}

// TestParallelForForksOnlyOntoIdleWorkers checks the busy rule at two
// workers: alone, a call splits into two blocks; while another call is
// in progress, it runs as one block over the whole range.
func TestParallelForForksOnlyOntoIdleWorkers(t *testing.T) {
	const n = 1000
	blocks := func() [][2]int {
		var mu sync.Mutex
		var got [][2]int
		ParallelFor(n, 1, func(lo, hi int) {
			mu.Lock()
			got = append(got, [2]int{lo, hi})
			mu.Unlock()
		})
		return got
	}
	withWorkers(t, 2, func() {
		if got := blocks(); len(got) != 2 {
			t.Fatalf("alone, the call ran blocks %v, want 2 blocks", got)
		}
		entered, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			ParallelFor(1, 1, func(lo, hi int) {
				close(entered)
				<-release
			})
		}()
		<-entered
		got := blocks()
		close(release)
		<-done
		if len(got) != 1 || got[0] != [2]int{0, n} {
			t.Fatalf("beside a call in progress, the call ran blocks %v, want one block over (0, %d)", got, n)
		}
		if got := blocks(); len(got) != 2 {
			t.Fatalf("after the other call returned, the call ran blocks %v, want 2 blocks", got)
		}
	})
}

// TestEnsureMat covers reuse, growth and the zeroing contract.
func TestEnsureMat(t *testing.T) {
	m := EnsureMat(nil, 3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("bad shape %dx%d", m.Rows, m.Cols)
	}
	Fill(m.Data, 5)
	backing := &m.Data[0]
	m2 := EnsureMat(m, 2, 5)
	if m2 != m || &m2.Data[0] != backing {
		t.Fatal("EnsureMat reallocated despite sufficient capacity")
	}
	for _, v := range m2.Data {
		if v != 0 {
			t.Fatal("EnsureMat did not zero reused data")
		}
	}
	m3 := EnsureMat(m2, 10, 10)
	if len(m3.Data) != 100 {
		t.Fatal("EnsureMat failed to grow")
	}
	u := EnsureMatUninit(nil, 2, 2)
	Fill(u.Data, 3)
	u = EnsureMatUninit(u, 1, 4)
	if u.Rows != 1 || u.Cols != 4 {
		t.Fatal("EnsureMatUninit reshape failed")
	}
}

// TestScaleAdd checks the fused kernel against the scalar loop on an
// odd length (tail path included).
func TestScaleAdd(t *testing.T) {
	n := 101
	x, y, dst := make([]float64, n), make([]float64, n), make([]float64, n)
	RandN(RNG(21), x, 1)
	RandN(RNG(22), y, 1)
	ScaleAdd(dst, 0.25, x, y)
	for i := range dst {
		if want := 0.25*x[i] + y[i]; math.Float64bits(dst[i]) != math.Float64bits(want) {
			t.Fatalf("ScaleAdd[%d] = %v, want %v", i, dst[i], want)
		}
	}
}

// TestMatMulShapePanics keeps the shape checks intact on every variant.
func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape panic")
		}
	}()
	MatMul(NewMat(2, 3), NewMat(4, 5), NewMat(2, 5))
}

func ExampleSetWorkers() {
	a := NewMatFrom(2, 2, []float64{1, 2, 3, 4})
	b := NewMatFrom(2, 2, []float64{5, 6, 7, 8})
	c := NewMat(2, 2)
	SetWorkers(4)
	MatMul(a, b, c)
	SetWorkers(0)
	fmt.Println(c.Data)
	// Output: [19 22 43 50]
}
