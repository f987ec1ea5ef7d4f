package nn

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// TestBindComputesOnAnotherStore checks that a model bound to another
// model's store computes exactly what that model computes, accumulates
// its gradients there and leaves its own former store alone.
func TestBindComputesOnAnotherStore(t *testing.T) {
	owner := NewVGGNarrow(1, 4, 8, 8, 16, 10)
	ref := NewVGGNarrow(1, 4, 8, 8, 16, 10)
	engine := NewVGGNarrow(2, 4, 8, 8, 16, 10)
	own := engine.Store()
	before := append([]float64(nil), own.Params...)
	x := tensor.NewMat(3, 3*32*32)
	tensor.RandN(tensor.RNG(3), x.Data, 1)
	y := []int{0, 5, 9}

	engine.Bind(owner.Store())
	if engine.Store() != owner.Store() {
		t.Fatal("Store does not report the bound store")
	}
	got, _ := engine.Loss(x, y)
	want, _ := ref.Loss(x, y)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("loss on the bound store %v, on the owner's model %v", got, want)
	}
	for i, g := range owner.Store().Grads {
		if math.Float64bits(g) != math.Float64bits(ref.Store().Grads[i]) {
			t.Fatalf("gradient %d: %v on the bound store, %v on the owner's model", i, g, ref.Store().Grads[i])
		}
	}
	for i, v := range own.Params {
		if v != before[i] || own.Grads[i] != 0 {
			t.Fatalf("the engine's former store changed at %d", i)
		}
	}
}

// TestBindAllocatesNothing: a compute engine is re-bound for every
// borrowed batch, so Bind must not allocate.
func TestBindAllocatesNothing(t *testing.T) {
	for _, m := range []interface {
		Bind(*Store)
		Store() *Store
	}{
		NewVGGNarrow(1, 4, 8, 8, 16, 10),
		NewLSTMClassifier(1, 5, 8, 3, 4),
		NewTinyBERT(1, 50, 8, 2, 2, 6, 16),
	} {
		n := len(m.Store().Params)
		a, b := NewStore(n), NewStore(n)
		if allocs := testing.AllocsPerRun(10, func() { m.Bind(b); m.Bind(a) }); allocs != 0 {
			t.Errorf("%T.Bind allocates %v times", m, allocs)
		}
	}
}
