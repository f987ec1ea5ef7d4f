package tensor

import (
	"fmt"
	"testing"
)

// raceEnabled is set by race_test.go in a -race build.
var raceEnabled bool

// rangeFunc adapts a closure to Body for the tests that inspect blocks.
type rangeFunc func(lo, hi int)

func (f rangeFunc) Range(lo, hi int) { f(lo, hi) }

// sumBody is a Body bound once: Range adds its block's indexes into
// per-index cells, which belong to the block that owns them.
type sumBody struct{ cells []int }

func (b *sumBody) Range(lo, hi int) {
	for i := lo; i < hi; i++ {
		b.cells[i] += i
	}
}

// TestKernelsAllocateNothing pins the zero: a ParallelFor call with a
// bound body, and every exported kernel, allocate nothing once the job
// and wait-group pools are warm, whether the blocks run inline (one
// worker) or go through the helpers' queue (two). The shapes are large
// enough to split at two workers, and A has zeros so the backward
// kernels take their sparse paths too.
func TestKernelsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	a, b, bt := randMat(1, 64, 48), randMat(2, 48, 40), randMat(3, 40, 48)
	for i := range a.Data {
		if i%3 != 0 {
			a.Data[i] = 0
		}
	}
	c, cTA, bTA := NewMat(64, 40), NewMat(48, 40), randMat(4, 64, 40)
	bias := make([]float64, 40)
	x, y, dst := make([]float64, 4096), make([]float64, 4096), make([]float64, 4096)
	body := &sumBody{cells: make([]int, 1<<16)}
	kernels := []struct {
		name string
		run  func()
	}{
		{"ParallelFor", func() { ParallelFor(len(body.cells), 1024, body) }},
		{"MatMul", func() { MatMul(a, b, c) }},
		{"MatMulTB", func() { MatMulTB(a, bt, c) }},
		{"MatMulBias", func() { MatMulBias(a, b, bias, c) }},
		{"GemmTA", func() { GemmTA(a, bTA, cTA) }},
		{"GemmTB", func() { GemmTB(a, bt, c) }},
		{"ScaleAdd", func() { ScaleAdd(dst, 0.5, x, y) }},
	}
	for _, w := range []int{1, 2} {
		for _, k := range kernels {
			t.Run(fmt.Sprintf("%s/workers=%d", k.name, w), func(t *testing.T) {
				withWorkers(t, w, func() {
					k.run()
					if got := testing.AllocsPerRun(20, k.run); got != 0 {
						t.Fatalf("%s allocates %v objects per call at %d workers, want 0", k.name, got, w)
					}
				})
			})
		}
	}
}
