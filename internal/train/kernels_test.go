package train

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/allreduce"
	"repro/internal/cluster"
	"repro/internal/netmodel"
	"repro/internal/tensor"
)

// runSteps trains a fresh P-rank cluster for iters steps at the given
// kernel worker count and returns rank 0's final parameters.
func runSteps(t *testing.T, workload string, workers, p, iters int) []float64 {
	t.Helper()
	tensor.SetWorkers(workers)
	defer tensor.SetWorkers(0)
	trainers := make([]*Trainer, p)
	for r := 0; r < p; r++ {
		w := NewWorkload(workload, 42, 43)
		algo := NewAlgorithm("OkTopk", allreduce.Config{Density: 0.02, Tau: 4, TauPrime: 4})
		trainers[r] = NewTrainer(w, algo, nil, 0.05, 4)
	}
	c := cluster.New(p, netmodel.PizDaint())
	for it := 1; it <= iters; it++ {
		if err := c.Run(func(cm *cluster.Comm) error {
			rng := tensor.RNG(int64(1000*cm.Rank() + it))
			trainers[cm.Rank()].Step(cm, it, rng)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	out := make([]float64, len(trainers[0].W.Params()))
	copy(out, trainers[0].W.Params())
	return out
}

// TestTrainStepDeterministicAcrossWorkers is the end-to-end determinism
// guarantee of the kernel layer: a full distributed training run —
// forward, backward, sparse allreduce, parameter update — produces
// byte-identical parameters at kernel worker counts 1, 4 and
// GOMAXPROCS.
func TestTrainStepDeterministicAcrossWorkers(t *testing.T) {
	for _, workload := range []string{"LSTM", "BERT"} {
		t.Run(workload, func(t *testing.T) {
			ref := runSteps(t, workload, 1, 2, 3)
			for _, w := range []int{4, runtime.GOMAXPROCS(0)} {
				got := runSteps(t, workload, w, 2, 3)
				for i := range ref {
					if math.Float64bits(ref[i]) != math.Float64bits(got[i]) {
						t.Fatalf("param %d differs between workers=1 and workers=%d: %v vs %v",
							i, w, ref[i], got[i])
					}
				}
			}
		})
	}
}
