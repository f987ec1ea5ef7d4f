package train

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/optimizer"
)

// TestOptimizerPathsPinned pins both update paths of Trainer.Step to the
// bit across commits: Algorithm 2's inline update (VGG, learning rate
// folded into the accumulator) and the raw-gradient Adam path (BERT,
// with a linear-decay schedule). Every other optimizer test is relative
// (replicas agree, a resumed run equals an unbroken one), so only this
// one notices a change that moves both replicas the same way. The
// constants were recorded before the optimizer API was last reshaped.
func TestOptimizerPathsPinned(t *testing.T) {
	const iters = 6
	cases := []struct {
		name   string
		cfg    func() Config
		loss   [iters]uint64
		params uint64
	}{
		{
			name: "VGG/OkTopk/SGD",
			cfg:  func() Config { return quickCfg("VGG", "OkTopk", 2) },
			loss: [iters]uint64{
				0x4019538be93286e0, 0x4030441104c278bb, 0x4031a127823ee224,
				0x4001c84a31dcef02, 0x40035500103b4225, 0x400765dcd949c046,
			},
			params: 0x22408c223fe11da2,
		},
		{
			name: "BERT/OkTopk/Adam+LinearDecay",
			cfg: func() Config {
				cfg := quickCfg("BERT", "OkTopk", 2)
				cfg.Adam = true
				cfg.LR = 1e-3
				cfg.Schedule = func(it int) float64 { return optimizer.LinearDecay(1e-3, it, iters+1) }
				return cfg
			},
			loss: [iters]uint64{
				0x401bf379fe9e535c, 0x401b95db3f7d4036, 0x401b43d832952f40,
				0x401b1bd406ef7db0, 0x401a2d4355c9b8d5, 0x401a7bebefb43b20,
			},
			params: 0x9a38924fd0e3b63c,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSession(tc.cfg())
			for i := 0; i < iters; i++ {
				st := s.RunIteration()
				if got := math.Float64bits(st.Loss); got != tc.loss[i] {
					t.Errorf("iteration %d: loss %v (bits %#x), want bits %#x", i+1, st.Loss, got, tc.loss[i])
				}
			}
			h := fnv.New64a()
			var b [8]byte
			for _, v := range s.Trainers[0].W.Params() {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
			if got := h.Sum64(); got != tc.params {
				t.Errorf("rank 0 parameter digest %#x, want %#x", got, tc.params)
			}
		})
	}
}
