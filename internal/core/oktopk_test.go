package core

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/allreduce"
	"repro/internal/cluster"
	"repro/internal/netmodel"
	"repro/internal/tensor"
)

// heavyTailGradient builds a gradient-like vector: most entries tiny
// Gaussian noise, a few heavy entries at random positions — the regime
// where top-k sparsification makes sense.
func heavyTailGradient(r *rand.Rand, n, heavy int, scale float64) []float64 {
	g := make([]float64, n)
	for i := range g {
		g[i] = r.NormFloat64() * 0.01 * scale
	}
	for h := 0; h < heavy; h++ {
		g[r.Intn(n)] = (r.Float64() + 0.5) * scale * sign(r)
	}
	return g
}

func sign(r *rand.Rand) float64 {
	if r.Intn(2) == 0 {
		return -1
	}
	return 1
}

// skewedGradient concentrates heavy entries in a narrow band of the
// index space — the load-imbalance case the repartition targets.
func skewedGradient(r *rand.Rand, n, heavy int, bandLo, bandHi int) []float64 {
	g := make([]float64, n)
	for i := range g {
		g[i] = r.NormFloat64() * 0.001
	}
	for h := 0; h < heavy; h++ {
		g[bandLo+r.Intn(bandHi-bandLo)] = (r.Float64() + 0.5) * sign(r)
	}
	return g
}

// runOkTopk runs one collective Reduce on the given per-rank gradients
// and returns the per-rank results plus the cluster for stats.
func runOkTopk(t *testing.T, cfg allreduce.Config, grads [][]float64, iters int) ([]allreduce.Result, *cluster.Cluster, []*OkTopk) {
	t.Helper()
	p := len(grads)
	c := cluster.New(p, netmodel.PizDaint())
	algos := make([]*OkTopk, p)
	for i := range algos {
		algos[i] = NewDefault(cfg)
	}
	results := make([]allreduce.Result, p)
	for it := 1; it <= iters; it++ {
		err := c.Run(func(cm *cluster.Comm) error {
			results[cm.Rank()] = algos[cm.Rank()].Reduce(cm, grads[cm.Rank()], it)
			return nil
		})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	}
	return results, c, algos
}

func TestReduceAgreesAcrossRanks(t *testing.T) {
	r := tensor.RNG(1)
	p, n := 8, 4096
	grads := make([][]float64, p)
	for i := range grads {
		grads[i] = heavyTailGradient(r, n, 40, 1)
	}
	results, _, _ := runOkTopk(t, allreduce.Config{Density: 0.02}, grads, 1)
	for rk := 1; rk < p; rk++ {
		if len(results[rk].Update) != n {
			t.Fatalf("rank %d: update len %d", rk, len(results[rk].Update))
		}
		for i := range results[0].Update {
			if results[rk].Update[i] != results[0].Update[i] {
				t.Fatalf("rank %d disagrees with rank 0 at index %d: %v vs %v",
					rk, i, results[rk].Update[i], results[0].Update[i])
			}
		}
		if results[rk].GlobalK != results[0].GlobalK {
			t.Fatalf("rank %d GlobalK %d != %d", rk, results[rk].GlobalK, results[0].GlobalK)
		}
	}
}

// TestUpdateValuesAreTrueSums verifies the semantic of the collective:
// every value in the update equals the exact sum, over all workers, of
// their locally selected contributions at that index.
func TestUpdateValuesAreTrueSums(t *testing.T) {
	r := tensor.RNG(2)
	p, n := 4, 2048
	k := 40
	grads := make([][]float64, p)
	for i := range grads {
		grads[i] = heavyTailGradient(r, n, 30, 1)
	}
	cfg := allreduce.Config{K: k}
	results, _, algos := runOkTopk(t, cfg, grads, 1)

	// Recompute the expected sum of local selections with the same
	// thresholds the workers used.
	expect := make([]float64, n)
	for i := range grads {
		th := algos[i].localCtl.Current()
		for j, v := range grads[i] {
			if math.Abs(v) >= th {
				expect[j] += v
			}
		}
	}
	update := results[0].Update
	for j := range update {
		if update[j] != 0 && math.Abs(update[j]-expect[j]) > 1e-12 {
			t.Fatalf("update[%d]=%v but true selected sum is %v", j, update[j], expect[j])
		}
	}
	// The update must contain roughly k entries (threshold estimation
	// wobble allowed).
	nz := 0
	for _, v := range update {
		if v != 0 {
			nz++
		}
	}
	if nz < k/2 || nz > 3*k {
		t.Fatalf("update has %d nonzeros, want ≈%d", nz, k)
	}
}

// TestContributedIsIntersection checks Algorithm 1 line 14: contributed
// indexes are exactly those local selections that appear in the global
// result.
func TestContributedIsIntersection(t *testing.T) {
	r := tensor.RNG(3)
	p, n := 4, 1024
	grads := make([][]float64, p)
	for i := range grads {
		grads[i] = heavyTailGradient(r, n, 25, 1)
	}
	results, _, algos := runOkTopk(t, allreduce.Config{Density: 0.03}, grads, 1)
	for rk := 0; rk < p; rk++ {
		th := algos[rk].localCtl.Current()
		update := results[rk].Update
		seen := map[int32]bool{}
		for _, idx := range results[rk].Contributed {
			seen[idx] = true
			if math.Abs(grads[rk][idx]) < th {
				t.Fatalf("rank %d: contributed index %d below local threshold", rk, idx)
			}
			if update[idx] == 0 {
				t.Fatalf("rank %d: contributed index %d absent from update", rk, idx)
			}
		}
		// Conversely: every local selection present in the update must be
		// listed.
		for j, v := range grads[rk] {
			if math.Abs(v) >= th && update[j] != 0 && !seen[int32(j)] {
				t.Fatalf("rank %d: index %d selected and global but not contributed", rk, j)
			}
		}
		// Contributed must be sorted.
		if !sort.SliceIsSorted(results[rk].Contributed, func(a, b int) bool {
			return results[rk].Contributed[a] < results[rk].Contributed[b]
		}) {
			t.Fatalf("rank %d: contributed not sorted", rk)
		}
	}
}

// TestCommVolumeBound asserts the paper's headline property: steady-state
// per-rank traffic stays below 6k(P−1)/P words (Theorem 3.1 gives the
// 2k(P−1)/P lower bound; Eq. 3 the 6k upper bound). Measured on the
// iterations where thresholds are reused (maintenance traffic is
// amortized and excluded by the paper's analysis).
func TestCommVolumeBound(t *testing.T) {
	r := tensor.RNG(4)
	for _, p := range []int{4, 8, 16} {
		n := 8192
		k := 200
		grads := make([][]float64, p)
		for i := range grads {
			grads[i] = heavyTailGradient(r, n, 80, 1)
		}
		cfg := allreduce.Config{K: k, TauPrime: 8, Tau: 16}
		c := cluster.New(p, netmodel.PizDaint())
		algos := make([]*OkTopk, p)
		for i := range algos {
			algos[i] = NewDefault(cfg)
		}
		// Iterations 2..TauPrime-1 reuse thresholds: measure there.
		for it := 1; it <= 4; it++ {
			if err := c.Run(func(cm *cluster.Comm) error {
				algos[cm.Rank()].Reduce(cm, grads[cm.Rank()], it)
				return nil
			}); err != nil {
				t.Fatalf("run: %v", err)
			}
			if it == 1 {
				continue // threshold/boundary evaluation iteration
			}
			bound := 6 * float64(k) * float64(p-1) / float64(p)
			for rk, a := range algos {
				got := float64(a.LastVolumeWords())
				if got > bound*1.15 { // threshold-reuse wobble allowance
					t.Errorf("P=%d it=%d rank %d: sent %v words > 6k(P-1)/P = %v",
						p, it, rk, got, bound)
				}
			}
		}
	}
}

// TestLowerBoundSpecialCase reproduces the tightness construction of
// Theorem 3.1: when every worker's selected values already live in its
// own region and the global top-k is uniformly spread, measured volume
// approaches 2k(P−1)/P.
func TestLowerBoundSpecialCase(t *testing.T) {
	p, n := 8, 8000
	perRank := 50
	k := perRank * p
	grads := make([][]float64, p)
	for rk := 0; rk < p; rk++ {
		g := make([]float64, n)
		lo := rk * n / p
		for j := 0; j < perRank; j++ {
			g[lo+j*((n/p)/perRank)] = 1 + float64(j)*0.001
		}
		grads[rk] = g
	}
	// The tightness construction assumes regions are the equal-size bands
	// that the values were planted in, so repartition stays off.
	cfg := allreduce.Config{K: k, TauPrime: 4, Tau: 4,
		Rotation: true, Repartition: false, DataBalance: true}
	c := cluster.New(p, netmodel.PizDaint())
	algos := make([]*OkTopk, p)
	for i := range algos {
		algos[i] = New(cfg)
	}
	for it := 1; it <= 2; it++ {
		if err := c.Run(func(cm *cluster.Comm) error {
			algos[cm.Rank()].Reduce(cm, grads[cm.Rank()], it)
			return nil
		}); err != nil {
			t.Fatalf("run: %v", err)
		}
	}
	lower := 2 * float64(k) * float64(p-1) / float64(p)
	for rk, a := range algos {
		got := float64(a.LastVolumeWords())
		// Within 1.5x of the lower bound in the friendly case (slack for
		// the size-allgather words).
		if got > 1.5*lower {
			t.Errorf("rank %d: sent %v words, want near lower bound %v", rk, got, lower)
		}
	}
}

// TestSkewedLoadRepartition checks that with skewed coordinates the
// balanced repartition spreads receive volume much more evenly than
// equal-size regions.
func TestSkewedLoadRepartition(t *testing.T) {
	r := tensor.RNG(5)
	p, n := 8, 16384
	grads := make([][]float64, p)
	for i := range grads {
		grads[i] = skewedGradient(r, n, 300, 0, n/8)
	}
	maxOverMean := func(repartition bool) float64 {
		cfg := allreduce.Config{Density: 0.02, Tau: 1, TauPrime: 1}
		cfg.Rotation = true
		cfg.Repartition = repartition
		cfg.DataBalance = true
		cfg = cfg.Defaults()
		c := cluster.New(p, netmodel.PizDaint())
		algos := make([]*OkTopk, p)
		for i := range algos {
			algos[i] = New(cfg)
		}
		for it := 1; it <= 2; it++ {
			if err := c.Run(func(cm *cluster.Comm) error {
				algos[cm.Rank()].Reduce(cm, grads[cm.Rank()], it)
				return nil
			}); err != nil {
				t.Fatalf("run: %v", err)
			}
		}
		stats := c.Stats()
		var sum, max float64
		for _, s := range stats {
			v := float64(s.RecvWords)
			sum += v
			if v > max {
				max = v
			}
		}
		return max / (sum / float64(p))
	}
	naive := maxOverMean(false)
	balanced := maxOverMean(true)
	if balanced >= naive {
		t.Errorf("repartition did not reduce receive imbalance: balanced %v vs naive %v", balanced, naive)
	}
	if balanced > 2.0 {
		t.Errorf("balanced repartition still imbalanced: max/mean = %v", balanced)
	}
}

// TestThresholdReuseStability: across a window of τ′ iterations with
// slowly drifting gradients, reused thresholds select counts close to k.
func TestThresholdReuseStability(t *testing.T) {
	r := tensor.RNG(6)
	p, n, k := 4, 4096, 100
	base := make([][]float64, p)
	for i := range base {
		base[i] = heavyTailGradient(r, n, 60, 1)
	}
	cfg := allreduce.Config{K: k, TauPrime: 16, Tau: 16}
	c := cluster.New(p, netmodel.PizDaint())
	algos := make([]*OkTopk, p)
	for i := range algos {
		algos[i] = NewDefault(cfg)
	}
	results := make([]allreduce.Result, p)
	for it := 1; it <= 12; it++ {
		grads := make([][]float64, p)
		for i := range grads {
			g := slices.Clone(base[i])
			for j := range g {
				g[j] *= 1 + 0.01*r.NormFloat64() // slow drift
			}
			grads[i] = g
		}
		if err := c.Run(func(cm *cluster.Comm) error {
			results[cm.Rank()] = algos[cm.Rank()].Reduce(cm, grads[cm.Rank()], it)
			return nil
		}); err != nil {
			t.Fatalf("run: %v", err)
		}
		for rk := range results {
			lk := results[rk].LocalK
			if lk < k/2 || lk > 2*k {
				t.Errorf("it=%d rank %d: local selection %d drifted far from k=%d", it, rk, lk, k)
			}
		}
	}
}

func TestSingleWorker(t *testing.T) {
	r := tensor.RNG(7)
	g := heavyTailGradient(r, 512, 10, 1)
	results, _, _ := runOkTopk(t, allreduce.Config{K: 20}, [][]float64{g}, 1)
	res := results[0]
	if res.GlobalK != res.LocalK {
		t.Fatalf("single worker: global %d != local %d", res.GlobalK, res.LocalK)
	}
	for _, idx := range res.Contributed {
		if res.Update[idx] != g[idx] {
			t.Fatalf("single worker: update[%d]=%v want %v", idx, res.Update[idx], g[idx])
		}
	}
}

func TestIterationMustBePositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for t=0")
		}
	}()
	c := cluster.New(1, netmodel.PizDaint())
	New(allreduce.Config{K: 1}).Reduce(c.Comm(0), []float64{1}, 0)
}

func TestXiZeroWhenExact(t *testing.T) {
	// If every worker contributes disjoint heavy values all selected,
	// Ok-Topk's update equals the true top-k and ξ = 0.
	p, n, k := 4, 400, 40
	accs := make([][]float64, p)
	var applied []float64
	applied = make([]float64, n)
	for rk := 0; rk < p; rk++ {
		g := make([]float64, n)
		for j := 0; j < k/p; j++ {
			idx := rk*(n/p) + j
			g[idx] = 1 + float64(idx)
			applied[idx] = g[idx]
		}
		accs[rk] = g
	}
	if xi := Xi(accs, applied, k, 1); xi != 0 {
		t.Fatalf("xi = %v, want 0", xi)
	}
	truth := TrueGlobalTopk(accs, k)
	if truth.NNZ() != k {
		t.Fatalf("true topk has %d values, want %d", truth.NNZ(), k)
	}
}

func TestTrueGlobalTopkEmpty(t *testing.T) {
	if v := TrueGlobalTopk(nil, 5); v.Dim != 0 {
		t.Fatalf("expected empty vec")
	}
}
