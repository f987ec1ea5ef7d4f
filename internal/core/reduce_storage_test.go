package core

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/allreduce"
	"repro/internal/cluster"
	"repro/internal/netmodel"
	"repro/internal/topk"
)

// The two intermediate results of Algorithm 1 that need storage of
// their own — the reduced owned region (line 8) and the allgathered
// reduced values the global threshold is taken from (lines 9–12) — are
// recomputed here in storage of their own, kept as a reference: a
// zeroed buffer the width of the region with a bitmap of its nonzero
// offsets, and the gathered values copied into one slice for
// topk.ThresholdInto. Reduce must agree with it bit for bit on every
// rank and call, and its Update must be the scatter of the global
// selection and nothing else.

// wireRound is a value after one trip over the wire.
func wireRound(wire cluster.Wire, v float64) float64 {
	if wire == cluster.WireF32 {
		return float64(float32(v))
	}
	return v
}

// refReduceRegion reduces rank's region [bounds[rank], bounds[rank+1])
// of every rank's local selection (selIdx[r], selVal[r]) in a zeroed
// buffer of its own, summing in splitAndReduce's order: the rank's own
// piece first, at full precision, then the other ranks' pieces as the
// wire delivers them, from sources rank−1, rank−2, … on the rotated
// schedule and in ascending rank order on the naive one. It returns
// every offset that received a nonzero value, ascending, with its sum.
func refReduceRegion(rank int, bounds []int, selIdx [][]int32, selVal [][]float64, rotation bool, wire cluster.Wire) ([]int32, []float64) {
	p := len(bounds) - 1
	lo, hi := bounds[rank], bounds[rank+1]
	buf := make([]float64, hi-lo)
	mask := make([]uint64, (hi-lo+63)/64)
	add := func(src int) {
		for i, idx := range selIdx[src] {
			if int(idx) < lo || int(idx) >= hi {
				continue
			}
			v := selVal[src][i]
			if src != rank {
				v = wireRound(wire, v)
			}
			off := int(idx) - lo
			if v != 0 {
				mask[off>>6] |= 1 << (off & 63)
			}
			buf[off] += v
		}
	}
	add(rank)
	for s := 1; s < p; s++ {
		if rotation {
			add((rank - s + p) % p)
		} else if src := s - 1; src < rank {
			add(src)
		} else {
			add(s)
		}
	}
	var idx []int32
	var val []float64
	for w, word := range mask {
		for ; word != 0; word &= word - 1 {
			off := w<<6 | bits.TrailingZeros64(word)
			idx = append(idx, int32(lo+off))
			val = append(val, buf[off])
		}
	}
	return idx, val
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// storageCase is one family of inputs: the gradient dimension at P
// ranks, the configuration (Rotation is set per run, DataBalance is
// on), and one rank's gradient at a call.
type storageCase struct {
	name string
	minP int
	n    func(p int) int
	cfg  allreduce.Config
	grad func(r *rand.Rand, n, p, call int) []float64
	// balances: at P ≥ 5 some call must run rebalance.
	balances bool
}

var storageCases = []storageCase{
	{
		// Heavy entries in a band that moves every call: with τ = 2 the
		// repartitioned regions widen and narrow from one period to the
		// next, and the reused thresholds meet values they were not
		// taken from.
		name: "drifting band",
		minP: 1,
		n:    func(p int) int { return 40*p + 37 },
		cfg:  allreduce.Config{Density: 0.12, Tau: 2, TauPrime: 3, BucketSize: 3, Repartition: true},
		grad: func(r *rand.Rand, n, p, call int) []float64 {
			g := make([]float64, n)
			for i := range g {
				g[i] = r.NormFloat64() * 0.01
			}
			band := n / 3
			lo := call * n / 5 % (n - band)
			for h := 0; h < n/6; h++ {
				g[lo+r.Intn(band)] = (r.Float64() + 0.5) * sign(r)
			}
			return g
		},
	},
	{
		// ±0, sums that cancel (±0.75 from several ranks at one index),
		// infinities of both signs that sum to NaN, and MaxFloat64s that
		// sum to infinity or round to it on the f32 wire; 1e-300 rounds
		// to zero there.
		name: "special values",
		minP: 1,
		n:    func(p int) int { return 24*p + 5 },
		cfg:  allreduce.Config{Density: 0.5, Tau: 2, TauPrime: 2, Repartition: true},
		grad: func(r *rand.Rand, n, p, call int) []float64 {
			palette := []float64{0, math.Copysign(0, -1), 0.75, -0.75, 0.75, -0.75, 3, -3,
				math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64, 1e-300}
			g := make([]float64, n)
			for i := range g {
				g[i] = palette[r.Intn(len(palette))]
			}
			return g
		},
	},
	{
		// k ≥ n, and n < P from P = 3 on, so some regions are empty.
		name: "k at least n",
		minP: 1,
		n:    func(p int) int { return p/2 + 1 },
		cfg:  allreduce.Config{K: 1 << 20, Tau: 2, TauPrime: 2, Repartition: true},
		grad: func(r *rand.Rand, n, p, call int) []float64 {
			g := make([]float64, n)
			for i := range g {
				if r.Intn(4) > 0 {
					g[i] = r.NormFloat64()
				}
			}
			return g
		},
	},
	{
		// Every heavy entry in rank 0's region of an equal split: rank 0
		// selects nearly the whole global top-k, and above P = 4 that is
		// more than balanceTrigger times the mean.
		name:     "skewed",
		minP:     5,
		n:        func(p int) int { return 64 * p },
		cfg:      allreduce.Config{Density: 0.05, Tau: 3, TauPrime: 3},
		balances: true,
		grad: func(r *rand.Rand, n, p, call int) []float64 {
			g := make([]float64, n)
			for i := range g {
				g[i] = r.NormFloat64() * 0.001
			}
			for h := 0; h < n/p/2; h++ {
				g[r.Intn(n/p)] = (r.Float64() + 0.5) * sign(r)
			}
			return g
		},
	},
}

// TestReduceStorageDifferential holds every rank's reduced region, the
// global threshold and Update against the reference above over seven
// calls (crossing τ and τ′) at P = 1…9, on both wires and both
// schedules. It also checks what the reference says about the
// balancing step: it can never run at P ≤ 4 (max ≤ P·mean), and the
// skewed inputs run it at every P ≥ 5.
func TestReduceStorageDifferential(t *testing.T) {
	for p := 1; p <= 9; p++ {
		for _, wire := range []cluster.Wire{cluster.WireF64, cluster.WireF32} {
			for _, rotation := range []bool{true, false} {
				for ci, c := range storageCases {
					if p < c.minP {
						continue
					}
					t.Run(fmt.Sprintf("P=%d/%v/rotation=%v/%s", p, wire, rotation, c.name), func(t *testing.T) {
						checkReduceStorage(t, rand.New(rand.NewSource(int64(100*p+ci))), p, wire, rotation, c)
					})
				}
			}
		}
	}
}

func checkReduceStorage(t *testing.T, r *rand.Rand, p int, wire cluster.Wire, rotation bool, c storageCase) {
	const calls = 7
	n := c.n(p)
	cfg := c.cfg
	cfg.Rotation, cfg.DataBalance = rotation, true
	algos := make([]*OkTopk, p)
	for i := range algos {
		algos[i] = New(cfg)
	}
	cfg = algos[0].cfg
	k := cfg.KFor(n)
	cl := cluster.NewWire(p, netmodel.PizDaint(), wire)
	results := make([]allreduce.Result, p)
	refIdx, refVal := make([][]int32, p), make([][]float64, p)
	selIdx, selVal := make([][]int32, p), make([][]float64, p)
	refTh := math.NaN()
	balanced := 0
	for call := 1; call <= calls; call++ {
		grads := make([][]float64, p)
		for rank := range grads {
			grads[rank] = c.grad(r, n, p, call)
		}
		if err := cl.Run(func(cm *cluster.Comm) error {
			results[cm.Rank()] = algos[cm.Rank()].Reduce(cm, grads[cm.Rank()], call)
			return nil
		}); err != nil {
			t.Fatalf("call %d: %v", call, err)
		}
		for rank, o := range algos {
			selIdx[rank], selVal[rank] = o.scratch.localIdx, o.scratch.localVal
		}
		dense := make([]float64, n)
		if p == 1 {
			for i, idx := range selIdx[0] {
				dense[idx] = selVal[0][i]
			}
		} else {
			bounds := algos[0].boundaries
			for rank, o := range algos {
				if !slices.Equal(o.boundaries, bounds) {
					t.Fatalf("call %d: rank %d has boundaries %v, rank 0 %v", call, rank, o.boundaries, bounds)
				}
				refIdx[rank], refVal[rank] = refReduceRegion(rank, bounds, selIdx, selVal, rotation, wire)
				gotIdx, gotVal := o.scratch.redIdx, o.scratch.redVal
				if !slices.Equal(gotIdx, refIdx[rank]) || !slices.EqualFunc(gotVal, refVal[rank], sameBits) {
					t.Fatalf("call %d rank %d, region [%d, %d): reduced %v/%v, reference %v/%v",
						call, rank, bounds[rank], bounds[rank+1], gotIdx, gotVal, refIdx[rank], refVal[rank])
				}
			}
			if (call-1)%cfg.TauPrime == 0 {
				var all []float64
				for _, vals := range refVal {
					for _, v := range vals {
						all = append(all, wireRound(wire, v))
					}
				}
				refTh, _ = topk.ThresholdInto(all, k, nil)
			}
			total, maxSize := 0, 0
			for rank, o := range algos {
				if th := o.globalCtl.Current(); !sameBits(th, refTh) {
					t.Fatalf("call %d rank %d: global threshold %v, reference %v", call, rank, th, refTh)
				}
				size := 0
				for i, v := range refVal[rank] {
					if v >= refTh || -v >= refTh {
						dense[refIdx[rank][i]] = wireRound(wire, v)
						size++
					}
				}
				total += size
				maxSize = max(maxSize, size)
			}
			if total > 0 && float64(maxSize) > balanceTrigger*float64(total)/float64(p) {
				balanced++
			}
		}
		for rank, res := range results {
			if !slices.EqualFunc(res.Update, dense, sameBits) {
				for i := range dense {
					if !sameBits(res.Update[i], dense[i]) {
						t.Fatalf("call %d rank %d: Update[%d] = %v, the scatter of the global selection gives %v",
							call, rank, i, res.Update[i], dense[i])
					}
				}
				t.Fatalf("call %d rank %d: Update has length %d, want %d", call, rank, len(res.Update), n)
			}
		}
	}
	if p <= 4 && balanced > 0 {
		t.Fatalf("balancing ran at P = %d, where max ≤ P·mean ≤ %d·mean", p, balanceTrigger)
	}
	if c.balances && p >= 5 && balanced == 0 {
		t.Fatalf("the skewed inputs never ran rebalance at P = %d", p)
	}
}
