package collectives

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/tensor"
)

// bitsDigest is the FNV-64a digest of x's bit patterns.
func bitsDigest(x []float64) uint64 {
	h := fnv.New64a()
	var word [8]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
		h.Write(word[:])
	}
	return h.Sum64()
}

// TestAllreduceFromContract: AllreduceFrom(cm, src, x) leaves src
// untouched, writes every element of x (x starts poisoned with NaN),
// equals the aliasing Allreduce bit for bit, agrees on every rank and
// matches the plain sum within the wire's tolerance — on Rabenseifner
// (P = 2, 4, 8), the ring (P = 3, 5, 6) and the P = 1 copy, both wires.
func TestAllreduceFromContract(t *testing.T) {
	for _, wire := range []cluster.Wire{cluster.WireF64, cluster.WireF32} {
		for _, p := range []int{1, 2, 4, 8, 3, 5, 6} {
			for _, n := range []int{1, 7, 1000} {
				t.Run(fmt.Sprintf("%v/P=%d/n=%d", wire, p, n), func(t *testing.T) {
					srcs := make([][]float64, p)
					want := make([]float64, n)
					for r := range srcs {
						rng := tensor.RNG(int64(17*r + n))
						srcs[r] = make([]float64, n)
						for i := range srcs[r] {
							srcs[r][i] = rng.NormFloat64() / 3
							want[i] += srcs[r][i]
						}
					}
					from := make([][]float64, p)
					aliased := make([][]float64, p)
					c := cluster.NewWire(p, testParams(), wire)
					if err := c.Run(func(cm *cluster.Comm) error {
						src := srcs[cm.Rank()]
						before := bitsDigest(src)
						x := make([]float64, n)
						for i := range x {
							x[i] = math.NaN()
						}
						AllreduceFrom(cm, src, x)
						if bitsDigest(src) != before {
							t.Errorf("rank %d: AllreduceFrom wrote into src", cm.Rank())
						}
						y := append([]float64(nil), src...)
						Allreduce(cm, y)
						from[cm.Rank()], aliased[cm.Rank()] = x, y
						return nil
					}); err != nil {
						t.Fatal(err)
					}
					near := almostEqual
					if wire == cluster.WireF32 && p > 1 {
						near = f32AlmostEqual
					}
					for r := range from {
						if bitsDigest(from[r]) != bitsDigest(aliased[r]) {
							t.Fatalf("rank %d: src≠x result differs from the aliasing call", r)
						}
						if bitsDigest(from[r]) != bitsDigest(from[0]) {
							t.Fatalf("rank %d differs from rank 0", r)
						}
						for i, v := range from[r] {
							if !near(v, want[i]) {
								t.Fatalf("rank %d: x[%d] = %v, plain sum %v", r, i, v, want[i])
							}
						}
					}
				})
			}
		}
	}
}

// edgeValues are the inputs where a kernel can lose a bit: NaN, ±Inf,
// ±0, float64 and float32 denormals, values that overflow float32, and
// a float32 halfway tie.
var edgeValues = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -1e-310, 1e-40, -1e-45,
	math.MaxFloat32 * 1.5, -math.MaxFloat64, 1 + 1.0/(1<<24), -1.0 / 3,
}

// TestAddIntoMatchesReference: the receive-edge accumulate of both
// wires equals the per-element dst[i] = a[i] + float64(b[i]) bit for
// bit, and the f32 wire's addRound sends f = float32(a[i] +
// float64(b[i])) and keeps float64(f), in place (dst = a) and out of
// place, at lengths 0–17 and 1M.
func TestAddIntoMatchesReference(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 1 << 20} {
		a := make([]float64, n)
		b64 := make([]float64, n)
		b32 := make([]float32, n)
		for i := range a {
			a[i] = edgeValues[i%len(edgeValues)]
			b64[i] = edgeValues[(i*5+3)%len(edgeValues)]
			if math.IsNaN(a[i]) && math.IsNaN(b64[i]) {
				// NaN + NaN may return either payload.
				b64[i] = 1
			}
			b32[i] = float32(b64[i])
		}
		checkAdd(t, "f64", n, a, b64)
		checkAdd(t, "f32", n, a, b32)

		got, sent := make([]float64, n), append([]float32(nil), b32...)
		addRound(got, a, sent)
		inPlace := append([]float64(nil), a...)
		addRound(inPlace, inPlace, append([]float32(nil), b32...))
		for i := range got {
			f := float32(a[i] + float64(b32[i]))
			w := math.Float64bits(float64(f))
			if math.Float32bits(sent[i]) != math.Float32bits(f) || math.Float64bits(got[i]) != w || math.Float64bits(inPlace[i]) != w {
				t.Fatalf("addRound n=%d: [%d] = %v sent %v / %v in place, want %v", n, i, got[i], sent[i], inPlace[i], f)
			}
		}
	}
}

func checkAdd[T float32 | float64](t *testing.T, name string, n int, a []float64, b []T) {
	t.Helper()
	want := make([]float64, n)
	for i := range want {
		want[i] = a[i] + float64(b[i])
	}
	got := make([]float64, n)
	addInto(got, a, b)
	inPlace := append([]float64(nil), a...)
	addInto(inPlace, inPlace, b)
	for i := range want {
		w := math.Float64bits(want[i])
		if math.Float64bits(got[i]) != w || math.Float64bits(inPlace[i]) != w {
			t.Fatalf("%s n=%d: [%d] = %v / %v in place, want %v", name, n, i, got[i], inPlace[i], want[i])
		}
	}
}

// BenchmarkAllreduceF32 is the reduce-dense-f32 shape: n = 1M, P = 4,
// f32 wire, in process, each rank reducing a read-only input into its
// own result buffer as Dense does.
func BenchmarkAllreduceF32(b *testing.B) {
	const p, n = 4, 1 << 20
	srcs := make([][]float64, p)
	sums := make([][]float64, p)
	for r := range srcs {
		srcs[r], sums[r] = rankVector(r, n), make([]float64, n)
	}
	c := cluster.NewWire(p, testParams(), cluster.WireF32)
	b.SetBytes(8 * n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Run(func(cm *cluster.Comm) error {
			AllreduceFrom(cm, srcs[cm.Rank()], sums[cm.Rank()])
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
}
