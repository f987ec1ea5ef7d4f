package allreduce

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/netmodel"
	"repro/internal/tensor"
)

// pinnedDenseInput is rank r's gradient for call c: a mix of the values
// where an allreduce can lose a bit — all-rank −0, mixed ±0, float64
// and float32 denormals, values above math.MaxFloat32 (which the f32
// wire narrows to +Inf), float32 halfway ties and plain normals.
func pinnedDenseInput(r, c, n int) []float64 {
	rng := tensor.RNG(int64(1000*c + r))
	x := make([]float64, n)
	for i := range x {
		switch i % 8 {
		case 0:
			x[i] = math.Copysign(0, -1)
		case 1:
			x[i] = math.Copysign(0, float64((r+i)%2)-0.5)
		case 2:
			x[i] = math.SmallestNonzeroFloat64 * float64(r+i%5+1)
		case 3:
			x[i] = 1e-40 * float64(r+1) * (1 + rng.Float64())
		case 4:
			x[i] = math.MaxFloat32 * (1.0001 + float64(r))
		case 5:
			// Halfway between two adjacent float32 values.
			f := float32(rng.NormFloat64())
			x[i] = float64(f) + (float64(math.Nextafter32(f, float32(math.Inf(1))))-float64(f))/2
		default:
			x[i] = rng.NormFloat64() * math.Pow(10, float64(i%7-3))
		}
	}
	return x
}

// pinnedDenseDigests are the FNV-64a digests of every rank's
// Result.Update after each of two Reduce calls on the same instances,
// over n ∈ {1, 3, 1000, 65537}, recorded before the dense allreduce
// reduced straight from acc and fused the owned block's rounding into
// its first allgather send.
var pinnedDenseDigests = map[string]uint64{
	"Dense/f64/P=1":              0x1975d7f03396c118,
	"Dense/f64/P=2":              0xf152a66a3b40ab19,
	"Dense/f64/P=3":              0xeb5840fd8a0ab4c4,
	"Dense/f64/P=4":              0x1f5cc2ab2c3214ad,
	"Dense/f64/P=5":              0x9872c32225ddeef9,
	"Dense/f64/P=8":              0x2579ab755b10c1b5,
	"Dense/f32/P=1":              0x1975d7f03396c118,
	"Dense/f32/P=2":              0x9268e5883778d5c5,
	"Dense/f32/P=3":              0x671b5ce329c6ce74,
	"Dense/f32/P=4":              0x1ea6ded619f7a2bd,
	"Dense/f32/P=5":              0xf4bd39c837c0a79e,
	"Dense/f32/P=8":              0xe5b72a132b597c5,
	"DenseOvlp/f64/P=1":          0x1975d7f03396c118,
	"DenseOvlp/f64/P=2":          0xf152a66a3b40ab19,
	"DenseOvlp/f64/P=3":          0x617f02809c85df3d,
	"DenseOvlp/f64/P=4":          0x1f5cc2ab2c3214ad,
	"DenseOvlp/f64/P=5":          0x8a33957c46807f1c,
	"DenseOvlp/f64/P=8":          0x2579ab755b10c1b5,
	"DenseOvlp/f32/P=1":          0x1975d7f03396c118,
	"DenseOvlp/f32/P=2":          0x5386d45adfe5fca5,
	"DenseOvlp/f32/P=3":          0x19525f2be10a325b,
	"DenseOvlp/f32/P=4":          0xb59e7cc66c7a2a85,
	"DenseOvlp/f32/P=5":          0x2388dca2eef9edad,
	"DenseOvlp/f32/P=8":          0x4af2df9f6bc27455,
	"DenseOvlpPipelined/f64/P=1": 0x1975d7f03396c118,
	"DenseOvlpPipelined/f64/P=2": 0xf152a66a3b40ab19,
	"DenseOvlpPipelined/f64/P=3": 0x617f02809c85df3d,
	"DenseOvlpPipelined/f64/P=4": 0x1f5cc2ab2c3214ad,
	"DenseOvlpPipelined/f64/P=5": 0x8a33957c46807f1c,
	"DenseOvlpPipelined/f64/P=8": 0x2579ab755b10c1b5,
	"DenseOvlpPipelined/f32/P=1": 0x1975d7f03396c118,
	"DenseOvlpPipelined/f32/P=2": 0x5386d45adfe5fca5,
	"DenseOvlpPipelined/f32/P=3": 0x19525f2be10a325b,
	"DenseOvlpPipelined/f32/P=4": 0xb59e7cc66c7a2a85,
	"DenseOvlpPipelined/f32/P=5": 0x2388dca2eef9edad,
	"DenseOvlpPipelined/f32/P=8": 0x4af2df9f6bc27455,
	"Hierarchical/f64/P=1":       0x1975d7f03396c118,
	"Hierarchical/f64/P=2":       0xf152a66a3b40ab19,
	"Hierarchical/f64/P=3":       0x5551bfccc50e67b3,
	"Hierarchical/f64/P=4":       0xdfc8962f5949470d,
	"Hierarchical/f64/P=5":       0xff9b167c26a1a088,
	"Hierarchical/f64/P=8":       0xfa3564f0db109285,
	"Hierarchical/f32/P=1":       0x1975d7f03396c118,
	"Hierarchical/f32/P=2":       0x71a6dc962d760a1,
	"Hierarchical/f32/P=3":       0xc35e0c13f4855596,
	"Hierarchical/f32/P=4":       0xe48a4e1684ca2a4d,
	"Hierarchical/f32/P=5":       0x8629453ae058acd3,
	"Hierarchical/f32/P=8":       0x55f0e033c9626425,
}

// TestDenseReducePinned pins the dense algorithms' results bit for bit
// on both wires, across power-of-two (Rabenseifner) and ring cluster
// sizes, for Dense, DenseOvlp (monolithic and pipelined) and
// Hierarchical. Two calls per instance exercise scratch reuse.
func TestDenseReducePinned(t *testing.T) {
	type variant struct {
		name string
		make func() Algorithm
		pipe bool
	}
	variants := []variant{
		{"Dense", func() Algorithm { return NewDense() }, false},
		{"DenseOvlp", func() Algorithm { return NewDenseOvlp(Config{}) }, false},
		{"DenseOvlpPipelined", func() Algorithm { return NewDenseOvlp(Config{}) }, true},
		{"Hierarchical", func() Algorithm { return NewHierDense(2) }, false},
	}
	for _, v := range variants {
		for _, wire := range []cluster.Wire{cluster.WireF64, cluster.WireF32} {
			for _, p := range []int{1, 2, 3, 4, 5, 8} {
				key := fmt.Sprintf("%s/%v/P=%d", v.name, wire, p)
				h := fnv.New64a()
				var word [8]byte
				for _, n := range []int{1, 3, 1000, 65537} {
					algos := make([]Algorithm, p)
					for r := range algos {
						algos[r] = v.make()
					}
					c := cluster.NewWire(p, netmodel.PizDaint(), wire)
					for call := 1; call <= 2; call++ {
						updates := make([][]float64, p)
						if err := c.Run(func(cm *cluster.Comm) error {
							acc := pinnedDenseInput(cm.Rank(), call, n)
							var res Result
							if v.pipe {
								a := algos[cm.Rank()].(Overlapped)
								for b := a.Buckets(n) - 1; b >= 0; b-- {
									a.IssueBucket(cm, acc, b)
								}
								res = a.DrainOverlap(cm, acc, call)
							} else {
								res = algos[cm.Rank()].Reduce(cm, acc, call)
							}
							updates[cm.Rank()] = append([]float64(nil), res.Update...)
							return nil
						}); err != nil {
							t.Fatalf("%s n=%d: %v", key, n, err)
						}
						for _, u := range updates {
							for _, x := range u {
								binary.LittleEndian.PutUint64(word[:], math.Float64bits(x))
								h.Write(word[:])
							}
						}
					}
				}
				if got, want := h.Sum64(), pinnedDenseDigests[key]; got != want {
					t.Errorf("%q: %#x, // pinned %#x", key, got, want)
				}
			}
		}
	}
}
