package nn

import (
	"testing"

	"repro/internal/tensor"
)

// TestVGGNarrowLossAllocs bounds what one training step of the VGG
// workload's model allocates once its scratch is warm: the kernels'
// nonzero lists live on the stack, so the count is the ParallelFor
// closures and little else. One kernel worker runs every block inline,
// so the count does not depend on the host's cores.
func TestVGGNarrowLossAllocs(t *testing.T) {
	tensor.SetWorkers(1)
	defer tensor.SetWorkers(0)
	m := NewVGGNarrow(1, 16, 32, 64, 128, 10)
	x := tensor.NewMat(4, 3*32*32)
	tensor.RandN(tensor.RNG(2), x.Data, 1)
	y := []int{1, 4, 7, 9}
	m.Loss(x, y)
	allocs := testing.AllocsPerRun(5, func() {
		m.Store().ZeroGrads()
		m.Loss(x, y)
	})
	if allocs > 43 {
		t.Fatalf("VGGNarrow.Loss allocates %v times per call after warm-up, budget 43", allocs)
	}
	t.Logf("VGGNarrow.Loss: %v allocs per call", allocs)
}
