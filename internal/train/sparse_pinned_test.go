package train

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/allreduce"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/netmodel"
	"repro/internal/tensor"
)

// pinnedSparseInput is rank r's accumulator for call c. Flat inputs
// are heavy-tailed noise over the whole index space. Skewed inputs are
// flat at call 1 and then put every large value in the first eighth of
// the index space, so Ok-Topk's selection piles into the regions its
// call-1 repartition drew and the data-balancing step runs (calls 2 and
// 3, before the repartition at call 4 with Tau 3).
func pinnedSparseInput(r, c, n int, skewed bool) []float64 {
	rng := tensor.RNG(int64(1000*c + r))
	x := make([]float64, n)
	if !skewed || c == 1 {
		for i := range x {
			x[i] = rng.NormFloat64()
			if rng.Intn(20) == 0 {
				x[i] *= 10
			}
		}
		return x
	}
	for i := range x {
		x[i] = rng.NormFloat64() * 1e-3
	}
	band := max(1, n/8)
	for h := 0; h < max(1, n/20); h++ {
		x[rng.Intn(band)] = (rng.Float64() + 0.5) * 30 * float64(1-2*rng.Intn(2))
	}
	return x
}

// pinnedSparseDigests are FNV-64a digests over five Reduce calls on the
// same instances, n ∈ {5, 1000, 20000}, flat and skewed inputs, of
// every rank's Result (Update, Contributed, LocalK, GlobalK) and clock
// (Time, SentWords, RecvWords, SentMsgs) after each call. They were
// recorded while core and sparsecoll still narrowed and widened wire
// values at each call site, once gTopk's broadcast reached every rank
// at any P.
var pinnedSparseDigests = map[string]uint64{
	"TopkA/f64/P=1":       0x2dd657efcfa47fe3,
	"TopkA/f64/P=2":       0xb2169a3e050410a,
	"TopkA/f64/P=3":       0x446d59d05aeee1d2,
	"TopkA/f64/P=4":       0x9a66f70689c4f3db,
	"TopkA/f64/P=5":       0x1fa5343d0a8af4d1,
	"TopkA/f64/P=6":       0x934db3ac237c615b,
	"TopkA/f64/P=7":       0x3314b5494867a96a,
	"TopkA/f64/P=8":       0xee72fa992c941ec0,
	"TopkA/f32/P=1":       0x2dd657efcfa47fe3,
	"TopkA/f32/P=2":       0xdcd899fcbf463d56,
	"TopkA/f32/P=3":       0x626ce1771e586a4a,
	"TopkA/f32/P=4":       0xcca3410b38856e3f,
	"TopkA/f32/P=5":       0x888edbe11cab8b45,
	"TopkA/f32/P=6":       0xaba41bc2b1e1c06b,
	"TopkA/f32/P=7":       0xc1a23870a174a6c2,
	"TopkA/f32/P=8":       0xef37011274ddd0cc,
	"TopkDSA/f64/P=1":     0x60dda7c5a7401fb3,
	"TopkDSA/f64/P=2":     0x3d258cecf2daf4b7,
	"TopkDSA/f64/P=3":     0x446d59d05aeee1d2,
	"TopkDSA/f64/P=4":     0x97fe57f42d8bb3d4,
	"TopkDSA/f64/P=5":     0x1fa5343d0a8af4d1,
	"TopkDSA/f64/P=6":     0x934db3ac237c615b,
	"TopkDSA/f64/P=7":     0x3314b5494867a96a,
	"TopkDSA/f64/P=8":     0xf8e45e62f1a08103,
	"TopkDSA/f32/P=1":     0x60dda7c5a7401fb3,
	"TopkDSA/f32/P=2":     0x245c299d0e0e4455,
	"TopkDSA/f32/P=3":     0x626ce1771e586a4a,
	"TopkDSA/f32/P=4":     0xc885928be210f34a,
	"TopkDSA/f32/P=5":     0x888edbe11cab8b45,
	"TopkDSA/f32/P=6":     0xaba41bc2b1e1c06b,
	"TopkDSA/f32/P=7":     0xc1a23870a174a6c2,
	"TopkDSA/f32/P=8":     0x92c05bcb1c1cee07,
	"gTopk/f64/P=1":       0x60dda7c5a7401fb3,
	"gTopk/f64/P=2":       0x4017b1e5226772e0,
	"gTopk/f64/P=3":       0xe56a9ac93a6271c4,
	"gTopk/f64/P=4":       0x27f28e8f42e2c7d7,
	"gTopk/f64/P=5":       0xba4b3591c04dd0f5,
	"gTopk/f64/P=6":       0x3a14f96cbdf0f617,
	"gTopk/f64/P=7":       0x38758e508cd2e3e4,
	"gTopk/f64/P=8":       0xff32ece8d84b8bcb,
	"gTopk/f32/P=1":       0x60dda7c5a7401fb3,
	"gTopk/f32/P=2":       0x77e5e5aa70a74540,
	"gTopk/f32/P=3":       0xdb59f74b48d5883f,
	"gTopk/f32/P=4":       0x9e2e7ee79b949147,
	"gTopk/f32/P=5":       0x2690d2b98cc2279a,
	"gTopk/f32/P=6":       0xcc5e1ee1c1bbad6b,
	"gTopk/f32/P=7":       0xb2dce9275d6d9c71,
	"gTopk/f32/P=8":       0x89193c0c9947c42b,
	"Gaussiank/f64/P=1":   0x4eb2b7807f66dbd4,
	"Gaussiank/f64/P=2":   0xdfa2e5455a076112,
	"Gaussiank/f64/P=3":   0xdc4598ffca479e6d,
	"Gaussiank/f64/P=4":   0x7b48842f8ff0968f,
	"Gaussiank/f64/P=5":   0x35a3ddb6ad012cf6,
	"Gaussiank/f64/P=6":   0xdcd12a0f4a65ffe3,
	"Gaussiank/f64/P=7":   0x18c97e8f6a6ead07,
	"Gaussiank/f64/P=8":   0x99cff14b8ea641ce,
	"Gaussiank/f32/P=1":   0x4eb2b7807f66dbd4,
	"Gaussiank/f32/P=2":   0x2cd25a2991002439,
	"Gaussiank/f32/P=3":   0x9daa528ec3de3f,
	"Gaussiank/f32/P=4":   0xcdc744e368d1f035,
	"Gaussiank/f32/P=5":   0x4c2c209a66189ae,
	"Gaussiank/f32/P=6":   0x7452cc7704b749ef,
	"Gaussiank/f32/P=7":   0x8aee2ff4fa7ad853,
	"Gaussiank/f32/P=8":   0x986996d4027f37b7,
	"OkTopk/f64/P=1":      0x1fb20f6aaad60f3e,
	"OkTopk/f64/P=2":      0x154543cf35a893d3,
	"OkTopk/f64/P=3":      0xd7a529967055ef00,
	"OkTopk/f64/P=4":      0x684a84b6830748b1,
	"OkTopk/f64/P=5":      0x32c2eb5e44f0e2b9,
	"OkTopk/f64/P=6":      0x1f49f13c8f0d7f4d,
	"OkTopk/f64/P=7":      0x1181a8946e212a5e,
	"OkTopk/f64/P=8":      0x245ddc2d5a320098,
	"OkTopk/f32/P=1":      0x1fb20f6aaad60f3e,
	"OkTopk/f32/P=2":      0x17a06ffc746e9a08,
	"OkTopk/f32/P=3":      0xef48fb76e46c478a,
	"OkTopk/f32/P=4":      0xe70ea9653ae198b4,
	"OkTopk/f32/P=5":      0x402034871c513b64,
	"OkTopk/f32/P=6":      0x524b72cb219dcaa1,
	"OkTopk/f32/P=7":      0xcea14195a0820500,
	"OkTopk/f32/P=8":      0x9867cb217bffddc2,
	"OkTopkNaive/f64/P=1": 0x1fb20f6aaad60f3e,
	"OkTopkNaive/f64/P=2": 0xf3c8e27e9e336f6e,
	"OkTopkNaive/f64/P=3": 0x12ec55603c3d482c,
	"OkTopkNaive/f64/P=4": 0x50eb9c50d20d6775,
	"OkTopkNaive/f64/P=5": 0x46a8f942e0db7559,
	"OkTopkNaive/f64/P=6": 0x22561d58ddc76c57,
	"OkTopkNaive/f64/P=7": 0xc3583329e68a5668,
	"OkTopkNaive/f64/P=8": 0xf6df6c601a5cc940,
	"OkTopkNaive/f32/P=1": 0x1fb20f6aaad60f3e,
	"OkTopkNaive/f32/P=2": 0x46d0c98a854401bb,
	"OkTopkNaive/f32/P=3": 0x7f8b2fea7e84d655,
	"OkTopkNaive/f32/P=4": 0x24c1a6bfb5ffecd1,
	"OkTopkNaive/f32/P=5": 0xbc85043804cba595,
	"OkTopkNaive/f32/P=6": 0x775d4138516b8558,
	"OkTopkNaive/f32/P=7": 0xbe8803a10b426f16,
	"OkTopkNaive/f32/P=8": 0xa7fe74e0b5f8a1fc,
}

// TestSparseReducePinned pins the sparse algorithms' results, modeled
// time and word accounting bit for bit on both wires at P = 1..8: the
// Schemes rows TestDenseReducePinned leaves out, plus Ok-Topk with the
// naive (unrotated) split schedule.
func TestSparseReducePinned(t *testing.T) {
	type variant struct {
		name string
		make func(allreduce.Config) allreduce.Algorithm
	}
	var variants []variant
	for _, s := range Schemes {
		switch s.Name {
		case "Dense", "DenseOvlp", "Hierarchical":
			continue
		}
		variants = append(variants, variant{s.Name, s.New})
	}
	variants = append(variants, variant{"OkTopkNaive", func(c allreduce.Config) allreduce.Algorithm {
		c.Repartition, c.DataBalance = true, true
		return core.New(c)
	}})
	cfg := allreduce.Config{Tau: 3, TauPrime: 2}
	for _, v := range variants {
		for _, wire := range []cluster.Wire{cluster.WireF64, cluster.WireF32} {
			for p := 1; p <= 8; p++ {
				key := fmt.Sprintf("%s/%v/P=%d", v.name, wire, p)
				h := fnv.New64a()
				var word [8]byte
				put := func(x uint64) {
					binary.LittleEndian.PutUint64(word[:], x)
					h.Write(word[:])
				}
				for _, n := range []int{5, 1000, 20000} {
					for _, skewed := range []bool{false, true} {
						algos := make([]allreduce.Algorithm, p)
						for r := range algos {
							algos[r] = v.make(cfg)
						}
						c := cluster.NewWire(p, netmodel.PizDaint(), wire)
						for call := 1; call <= 5; call++ {
							results := make([]allreduce.Result, p)
							stats := make([]netmodel.Stats, p)
							if err := c.Run(func(cm *cluster.Comm) error {
								acc := pinnedSparseInput(cm.Rank(), call, n, skewed)
								res := algos[cm.Rank()].Reduce(cm, acc, call)
								res.Update = append([]float64(nil), res.Update...)
								res.Contributed = append([]int32(nil), res.Contributed...)
								results[cm.Rank()] = res
								stats[cm.Rank()] = cm.Clock().Snapshot()
								return nil
							}); err != nil {
								t.Fatalf("%s n=%d skewed=%v: %v", key, n, skewed, err)
							}
							for r, res := range results {
								for _, x := range res.Update {
									put(math.Float64bits(x))
								}
								for _, i := range res.Contributed {
									put(uint64(i))
								}
								put(uint64(res.LocalK))
								put(uint64(res.GlobalK))
								s := stats[r]
								put(math.Float64bits(s.Time))
								put(uint64(s.SentWords))
								put(uint64(s.RecvWords))
								put(uint64(s.SentMsgs))
							}
						}
					}
				}
				if got, want := h.Sum64(), pinnedSparseDigests[key]; got != want {
					t.Errorf("%q: %#x, // pinned %#x", key, got, want)
				}
			}
		}
	}
}
