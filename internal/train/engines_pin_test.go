package train

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/optimizer"
)

// TestSharedEnginesPinned pins eight-rank training trajectories to the
// bit at GOMAXPROCS 1, 2 and 4, where one, two and four compute engines
// serve the eight ranks, so every rank's batches run on scratch that
// other ranks used before it. It compares every iteration's loss, one
// held-out evaluation after iteration 3, and a digest over every rank's
// parameters with constants recorded while every rank still held its
// own model replica.
func TestSharedEnginesPinned(t *testing.T) {
	const p, iters, evalAfter, evalSamples = 8, 6, 3, 64
	cases := []struct {
		name   string
		cfg    func() Config
		loss   [iters]uint64
		eval   uint64
		params uint64
	}{
		{
			name: "VGG/OkTopk/SGD",
			cfg:  func() Config { return quickCfg("VGG", "OkTopk", p) },
			loss: [iters]uint64{
				0x401508886de7414f, 0x4022389b1e64372b, 0x401b2576c1754603,
				0x400743ab353a98d8, 0x4005353f392d8ca5, 0x40036c787ef8e1e6,
			},
			eval:   0x3fbc000000000000,
			params: 0x5b6266304a4ec435,
		},
		{
			name: "LSTM/OkTopk/SGD",
			cfg:  func() Config { return quickCfg("LSTM", "OkTopk", p) },
			loss: [iters]uint64{
				0x40042573e91ffd8e, 0x40042436c025fd3c, 0x40031ec7d8539a92,
				0x400353d1f5d8f2a4, 0x400332e69c09d75d, 0x4003ba22640a8214,
			},
			eval:   0x3fe9000000000000,
			params: 0x24d0e9d4c1aa9cd5,
		},
		{
			name: "BERT/OkTopk/Adam+LinearDecay",
			cfg: func() Config {
				cfg := quickCfg("BERT", "OkTopk", p)
				cfg.Adam = true
				cfg.LR = 1e-3
				cfg.Schedule = func(it int) float64 { return optimizer.LinearDecay(1e-3, it, iters+1) }
				return cfg
			},
			loss: [iters]uint64{
				0x401bdbb7b414e104, 0x401b5ccce287452a, 0x401af10787d417d9,
				0x401a96d569b322a0, 0x401a49823e9060e0, 0x401a08e4cf2228a0,
			},
			eval:   0x401aaed2832d84fc,
			params: 0x36acc0ae06235265,
		},
	}
	for _, tc := range cases {
		for _, procs := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/GOMAXPROCS=%d", tc.name, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				s := NewSession(tc.cfg())
				for i := 1; i <= iters; i++ {
					st := s.RunIteration()
					if got := math.Float64bits(st.Loss); got != tc.loss[i-1] {
						t.Errorf("iteration %d: loss %v (bits %#x), want bits %#x", i, st.Loss, got, tc.loss[i-1])
					}
					if i == evalAfter {
						m := s.Evaluate(evalSamples)
						if got := math.Float64bits(m); got != tc.eval {
							t.Errorf("%s after iteration %d: %v (bits %#x), want bits %#x", s.MetricName(), i, m, got, tc.eval)
						}
					}
				}
				if got := paramDigest(s.Trainers); got != tc.params {
					t.Errorf("digest of every rank's parameters %#x, want %#x", got, tc.params)
				}
			})
		}
	}
}
