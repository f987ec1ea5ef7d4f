package optimizer

import (
	"math"
	"testing"
)

func TestAdamFirstStepIsLRSized(t *testing.T) {
	// With bias correction, the first Adam step is ≈lr·sign(g).
	a := NewAdam(0.9, 0.999, 0)
	p := []float64{0, 0}
	a.Apply(p, []float64{0.5, -2}, 0.001)
	if math.Abs(p[0]+0.001) > 1e-6 || math.Abs(p[1]-0.001) > 1e-6 {
		t.Fatalf("first step %v, want ±lr", p)
	}
}

func TestAdamWeightDecay(t *testing.T) {
	a := NewAdam(0.9, 0.999, 0.5)
	p := []float64{10}
	a.Apply(p, []float64{0}, 0.1)
	// Zero gradient: update is pure decoupled decay lr*wd*w = 0.5.
	if math.Abs(p[0]-9.5) > 1e-9 {
		t.Fatalf("p=%v want 9.5", p[0])
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize f(w) = (w-3)², gradient 2(w-3).
	a := NewAdam(0.9, 0.999, 0)
	p := []float64{0}
	for i := 0; i < 500; i++ {
		a.Apply(p, []float64{2 * (p[0] - 3)}, 0.1)
	}
	if math.Abs(p[0]-3) > 0.05 {
		t.Fatalf("Adam did not converge: w=%v", p[0])
	}
}

func TestLinearDecay(t *testing.T) {
	if LinearDecay(1.0, 0, 100) != 1.0 {
		t.Fatal("start")
	}
	if LinearDecay(1.0, 50, 100) != 0.5 {
		t.Fatal("middle")
	}
	if LinearDecay(1.0, 100, 100) != 0 || LinearDecay(1.0, 150, 100) != 0 {
		t.Fatal("end")
	}
}

func TestStepDecay(t *testing.T) {
	if StepDecay(1.0, 10, 100, 0.5, 0.8) != 1.0 {
		t.Fatal("before milestones")
	}
	if StepDecay(1.0, 50, 100, 0.5, 0.8) != 0.1 {
		t.Fatal("after first milestone")
	}
	if math.Abs(StepDecay(1.0, 90, 100, 0.5, 0.8)-0.01) > 1e-15 {
		t.Fatal("after both milestones")
	}
}
