package sparsecoll

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/allreduce"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/netmodel"
	"repro/internal/sparse"
	"repro/internal/tensor"
	"repro/internal/topk"
)

func gradient(r *rand.Rand, n, heavy int) []float64 {
	g := make([]float64, n)
	for i := range g {
		g[i] = r.NormFloat64() * 0.01
	}
	for h := 0; h < heavy; h++ {
		v := r.Float64() + 0.5
		if r.Intn(2) == 0 {
			v = -v
		}
		g[r.Intn(n)] = v
	}
	return g
}

// makeAlgos instantiates one per-rank algorithm of the given kind.
func makeAlgos(name string, p int, cfg allreduce.Config) []allreduce.Algorithm {
	out := make([]allreduce.Algorithm, p)
	for i := range out {
		switch name {
		case "TopkA":
			out[i] = NewTopkA(cfg)
		case "TopkDSA":
			out[i] = NewTopkDSA(cfg)
		case "gTopk":
			out[i] = NewGTopk(cfg)
		case "Gaussiank":
			out[i] = NewGaussiank(cfg)
		case "Dense":
			out[i] = allreduce.NewDense()
		case "DenseOvlp":
			out[i] = allreduce.NewDenseOvlp(cfg)
		case "OkTopk":
			out[i] = core.NewDefault(cfg)
		default:
			panic("unknown algorithm " + name)
		}
	}
	return out
}

func runAlgos(t *testing.T, algos []allreduce.Algorithm, grads [][]float64, it int) ([]allreduce.Result, *cluster.Cluster) {
	t.Helper()
	p := len(grads)
	c := cluster.New(p, netmodel.PizDaint())
	results := make([]allreduce.Result, p)
	if err := c.Run(func(cm *cluster.Comm) error {
		results[cm.Rank()] = algos[cm.Rank()].Reduce(cm, grads[cm.Rank()], it)
		return nil
	}); err != nil {
		t.Fatalf("run: %v", err)
	}
	return results, c
}

// TestAllAlgorithmsAgreeAcrossRanks: each algorithm must produce the
// identical update on every rank (the defining allreduce property).
func TestAllAlgorithmsAgreeAcrossRanks(t *testing.T) {
	r := tensor.RNG(11)
	p, n := 8, 2048
	grads := make([][]float64, p)
	for i := range grads {
		grads[i] = gradient(r, n, 30)
	}
	for _, name := range []string{"Dense", "DenseOvlp", "TopkA", "TopkDSA", "gTopk", "Gaussiank", "OkTopk"} {
		algos := makeAlgos(name, p, allreduce.Config{Density: 0.02})
		results, _ := runAlgos(t, algos, grads, 1)
		for rk := 1; rk < p; rk++ {
			for i := range results[0].Update {
				a, b := results[rk].Update[i], results[0].Update[i]
				if math.Abs(a-b) > 1e-9 {
					t.Errorf("%s: rank %d disagrees at %d: %v vs %v", name, rk, i, a, b)
					break
				}
			}
		}
	}
}

// TestDenseIsExactSum: dense baselines must equal the exact element-wise
// sum.
func TestDenseIsExactSum(t *testing.T) {
	r := tensor.RNG(12)
	p, n := 4, 777
	grads := make([][]float64, p)
	want := make([]float64, n)
	for i := range grads {
		grads[i] = gradient(r, n, 10)
		for j, v := range grads[i] {
			want[j] += v
		}
	}
	for _, name := range []string{"Dense", "DenseOvlp"} {
		algos := makeAlgos(name, p, allreduce.Config{})
		results, _ := runAlgos(t, algos, grads, 1)
		for j := range want {
			if math.Abs(results[0].Update[j]-want[j]) > 1e-9 {
				t.Fatalf("%s: update[%d]=%v want %v", name, j, results[0].Update[j], want[j])
			}
		}
		if !results[0].All {
			t.Fatalf("%s: dense result must set All", name)
		}
	}
}

// TestTopkAMatchesManualSum: TopkA's update equals the sum of every
// worker's exact top-k selection.
func TestTopkAMatchesManualSum(t *testing.T) {
	r := tensor.RNG(13)
	p, n, k := 4, 1024, 30
	grads := make([][]float64, p)
	want := make([]float64, n)
	for i := range grads {
		grads[i] = gradient(r, n, 20)
		th := topk.Threshold(grads[i], k)
		for j, v := range grads[i] {
			if math.Abs(v) >= th && v != 0 {
				want[j] += v
			}
		}
	}
	algos := makeAlgos("TopkA", p, allreduce.Config{K: k})
	results, _ := runAlgos(t, algos, grads, 1)
	for j := range want {
		if math.Abs(results[0].Update[j]-want[j]) > 1e-9 {
			t.Fatalf("update[%d]=%v want %v", j, results[0].Update[j], want[j])
		}
	}
}

// TestTopkDSAMatchesTopkA: the dynamic sparse allreduce computes the
// same sum as the allgather-based one, just with a different schedule.
func TestTopkDSAMatchesTopkA(t *testing.T) {
	r := tensor.RNG(14)
	for _, p := range []int{2, 4, 8, 16} {
		n, k := 2048, 50
		grads := make([][]float64, p)
		for i := range grads {
			grads[i] = gradient(r, n, 30)
		}
		a, _ := runAlgos(t, makeAlgos("TopkA", p, allreduce.Config{K: k}), grads, 1)
		d, _ := runAlgos(t, makeAlgos("TopkDSA", p, allreduce.Config{K: k}), grads, 1)
		for j := range a[0].Update {
			if math.Abs(a[0].Update[j]-d[0].Update[j]) > 1e-9 {
				t.Fatalf("P=%d: DSA differs from TopkA at %d: %v vs %v",
					p, j, d[0].Update[j], a[0].Update[j])
			}
		}
	}
}

// TestGTopkKeepsExactlyK: gTopk's result never exceeds k nonzeros and
// the surviving values are drawn from the hierarchical merge.
func TestGTopkKeepsExactlyK(t *testing.T) {
	r := tensor.RNG(15)
	for _, p := range []int{2, 3, 4, 5, 6, 7, 8} {
		n, k := 1024, 25
		grads := make([][]float64, p)
		for i := range grads {
			grads[i] = gradient(r, n, 15)
		}
		results, _ := runAlgos(t, makeAlgos("gTopk", p, allreduce.Config{K: k}), grads, 1)
		nz := 0
		for _, v := range results[0].Update {
			if v != 0 {
				nz++
			}
		}
		if nz > k {
			t.Fatalf("P=%d: gTopk produced %d nonzeros > k=%d", p, nz, k)
		}
		if nz < k/2 {
			t.Fatalf("P=%d: gTopk produced only %d nonzeros, k=%d", p, nz, k)
		}
		if results[0].GlobalK != nz {
			t.Fatalf("GlobalK %d != counted %d", results[0].GlobalK, nz)
		}
	}
}

// TestGaussiankUnderestimates: on a Laplace-like (heavier-than-Gaussian
// center, thinner tail after standardization) gradient distribution the
// Gaussian estimator selects fewer values than requested — the effect
// driving Figure 6. Verified directly on the estimator.
func TestGaussiankUnderestimates(t *testing.T) {
	r := tensor.RNG(16)
	n, k := 100000, 1000
	// The paper's Figure 4 regime after a few epochs: a huge spike of
	// near-zero values plus a *bounded* spread of larger components. The
	// moment-matched Gaussian inherits a long unbounded tail from the
	// spread component's variance, so its percent-point threshold lands
	// beyond where the real values live and selects far fewer than k.
	x := make([]float64, n)
	for i := range x {
		if r.Float64() < 0.99 {
			x[i] = r.NormFloat64() * 0.0005 // spike at zero
		} else {
			x[i] = (r.Float64()*2 - 1) * 0.03 // bounded spread
		}
	}
	th := topk.GaussianThreshold(x, k)
	selected := topk.CountAbove(x, th)
	exact := topk.Threshold(x, k)
	if th <= exact {
		t.Fatalf("Gaussian threshold %v not above exact %v on Laplace data", th, exact)
	}
	if selected >= k {
		t.Fatalf("Gaussian estimator selected %d >= k=%d; expected underestimation", selected, k)
	}
}

// TestGaussiankAdjustmentRecovers: the §5.4 fairness adjustment brings
// the selection back above 3k/4.
func TestGaussiankAdjustmentRecovers(t *testing.T) {
	r := tensor.RNG(17)
	p, n, k := 4, 4096, 80
	grads := make([][]float64, p)
	for i := range grads {
		grads[i] = gradient(r, n, 25)
	}
	algos := makeAlgos("Gaussiank", p, allreduce.Config{K: k})
	results, _ := runAlgos(t, algos, grads, 1)
	for rk, res := range results {
		if res.LocalK < 3*k/4 {
			t.Fatalf("rank %d: adjusted Gaussiank selected %d < 3k/4=%d", rk, res.LocalK, 3*k/4)
		}
	}
}

// TestVolumeScaling: the defining scalability contrast of Table 1 —
// TopkA traffic grows ∝P while Ok-Topk stays ≈6k — measured from the
// simulator.
func TestVolumeScaling(t *testing.T) {
	r := tensor.RNG(18)
	n, k := 8192, 100
	perRank := func(name string, p int) float64 {
		grads := make([][]float64, p)
		for i := range grads {
			grads[i] = gradient(r, n, 50)
		}
		algos := makeAlgos(name, p, allreduce.Config{K: k, TauPrime: 2, Tau: 2})
		// Iteration 2 measures steady state for OkTopk... run 1 then 2.
		c := cluster.New(p, netmodel.PizDaint())
		for it := 1; it <= 2; it++ {
			c.ResetClocks()
			if err := c.Run(func(cm *cluster.Comm) error {
				algos[cm.Rank()].Reduce(cm, grads[cm.Rank()], it)
				return nil
			}); err != nil {
				t.Fatalf("run: %v", err)
			}
		}
		stats := c.Stats()
		var sum float64
		for _, s := range stats {
			sum += float64(s.SentWords)
		}
		return sum / float64(p)
	}
	topkA8, topkA32 := perRank("TopkA", 8), perRank("TopkA", 32)
	if topkA32 < 3*topkA8 {
		t.Errorf("TopkA volume should grow ∝P: %v at P=8, %v at P=32", topkA8, topkA32)
	}
	ok8, ok32 := perRank("OkTopk", 8), perRank("OkTopk", 32)
	if ok32 > 2.2*ok8 {
		t.Errorf("OkTopk volume should be ≈flat in P: %v at P=8, %v at P=32", ok8, ok32)
	}
	if ok32 > topkA32/3 {
		t.Errorf("OkTopk (%v) should be far below TopkA (%v) at P=32", ok32, topkA32)
	}
}

// TestFillInExpansion: with disjoint-ish top-k indexes across many
// workers, TopkDSA's output density expands well beyond the input
// density (§5.2).
func TestFillInExpansion(t *testing.T) {
	r := tensor.RNG(19)
	p, n, k := 16, 4096, 40
	grads := make([][]float64, p)
	for i := range grads {
		grads[i] = gradient(r, n, k)
	}
	algos := make([]*TopkDSA, p)
	cfg := allreduce.Config{K: k}
	for i := range algos {
		algos[i] = NewTopkDSA(cfg)
	}
	c := cluster.New(p, netmodel.PizDaint())
	if err := c.Run(func(cm *cluster.Comm) error {
		algos[cm.Rank()].Reduce(cm, grads[cm.Rank()], 1)
		return nil
	}); err != nil {
		t.Fatalf("run: %v", err)
	}
	inputDensity := float64(k) / float64(n)
	fill := algos[0].MeanFillDensity()
	if fill < 3*inputDensity {
		t.Errorf("expected strong fill-in: input density %v, output %v", inputDensity, fill)
	}
}

// TestTruncTopk covers the tie-trimming path: with more-than-k equal
// magnitudes the result is trimmed to exactly k, sorted by index.
func TestTruncTopk(t *testing.T) {
	v := sparse.FromPairs(100,
		[]int32{5, 10, 15, 20, 25, 30},
		[]float64{1, -1, 1, 1, -1, 1})
	g := NewGTopk(allreduce.Config{})
	out := g.truncTopk(v, 3)
	if out.NNZ() != 3 {
		t.Fatalf("got %d values, want 3", out.NNZ())
	}
	for i := 1; i < out.NNZ(); i++ {
		if out.Indexes[i-1] >= out.Indexes[i] {
			t.Fatalf("indexes not sorted: %v", out.Indexes)
		}
	}
	// No trimming needed when nnz <= k.
	same := g.truncTopk(v, 10)
	if same.NNZ() != v.NNZ() {
		t.Fatalf("expected passthrough, got %d values", same.NNZ())
	}
}
