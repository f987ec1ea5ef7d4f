package train

import (
	"fmt"
	"testing"

	"repro/internal/allreduce"
	"repro/internal/cluster"
	"repro/internal/netmodel"
	"repro/internal/optimizer"
	"repro/internal/tensor"
)

// BenchmarkTrainStep measures one full training iteration (forward,
// backward, Ok-Topk reduce, update) per op on a single rank, isolating
// the compute-kernel hot path the parallel kernel layer targets. BERT
// trains with Adam on raw gradients, as in Session; VGG and LSTM use
// Algorithm 2's inline update.
func BenchmarkTrainStep(b *testing.B) {
	cases := []struct {
		workload string
		batch    int
	}{
		{"LSTM", 8},
		{"BERT", 4},
		{"VGG", 4},
	}
	for _, tc := range cases {
		b.Run(fmt.Sprintf("%s/batch=%d", tc.workload, tc.batch), func(b *testing.B) {
			w := NewWorkload(tc.workload, 42, 43)
			algo := NewAlgorithm("OkTopk", allreduce.Config{Density: 0.01, Tau: 8, TauPrime: 8})
			var adam *optimizer.Adam
			if tc.workload == "BERT" {
				adam = optimizer.NewAdam(0.9, 0.999, 0.01)
			}
			tr := NewTrainer(w, algo, adam, 0.05, tc.batch)
			c := cluster.New(1, netmodel.PizDaint())
			rng := tensor.RNG(7)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Run(func(cm *cluster.Comm) error {
					tr.Step(cm, i+1, rng)
					return nil
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
