package topk

import (
	"math"
	"math/rand"
	"testing"
)

// TestThresholdIntoMatchesThreshold: the scratch variant must be
// bit-identical to the allocating one and must not allocate in steady
// state.
func TestThresholdIntoMatchesThreshold(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	x := make([]float64, 5000)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	var scratch []float64
	for _, k := range []int{1, 7, 100, 5000} {
		want := Threshold(x, k)
		var got float64
		got, scratch = ThresholdInto(x, k, scratch)
		if math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("k=%d: ThresholdInto %v != Threshold %v", k, got, want)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		_, scratch = ThresholdInto(x, 100, scratch)
	})
	if allocs != 0 {
		t.Fatalf("steady-state ThresholdInto allocates %v times", allocs)
	}
	if th, _ := ThresholdInto(nil, 3, nil); !math.IsInf(th, 1) {
		t.Fatal("empty input should yield +Inf")
	}
}
