package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// TestTable1ShapeHolds: the measured volumes must reproduce the paper's
// scalability ordering — allgather-based schemes grow ∝P and eventually
// dwarf Ok-Topk; Ok-Topk stays within its analytic band.
func TestTable1ShapeHolds(t *testing.T) {
	n, k := 100000, 1000
	vol := func(name string, p int) float64 {
		mean, _ := MeasureVolumeStats(Scale{}, name, p, n, k)
		return mean
	}
	topkA8 := vol("TopkA", 8)
	topkA32 := vol("TopkA", 32)
	ok8 := vol("OkTopk", 8)
	ok32 := vol("OkTopk", 32)
	dense32 := vol("Dense", 32)

	if topkA32 < 3.5*topkA8 {
		t.Errorf("TopkA should scale ∝P: %v → %v", topkA8, topkA32)
	}
	if ok32 > 2*ok8 {
		t.Errorf("OkTopk should stay flat: %v → %v", ok8, ok32)
	}
	bound := 6 * float64(k) * 31 / 32
	if ok32 > 1.2*bound {
		t.Errorf("OkTopk at P=32 (%v) above its 6k bound (%v)", ok32, bound)
	}
	lower := 2 * float64(k) * 31 / 32
	if ok32 < lower*0.5 {
		t.Errorf("OkTopk volume implausibly low: %v (lower bound %v)", ok32, lower)
	}
	// Dense is ≈2n regardless of P.
	if dense32 < 1.8*float64(n) || dense32 > 2.1*float64(n) {
		t.Errorf("dense volume %v, want ≈2n=%v", dense32, 2*n)
	}
	// gTopk grows with log P.
	g8, g32 := vol("gTopk", 8), vol("gTopk", 32)
	if g32 <= g8 {
		t.Errorf("gTopk should grow with logP: %v → %v", g8, g32)
	}
}

func TestTable1Prints(t *testing.T) {
	var buf bytes.Buffer
	renderTable1(&buf, RunSpecs(table1Specs(Scale{Table1Ps: []int{4, 8}, Table1N: 20000, Table1K: 200}), 1))
	out := buf.String()
	for _, want := range []string{"Dense", "TopkA", "TopkDSA", "gTopk", "Gaussiank", "OkTopk", "2n(P-1)/P"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 output missing %q:\n%s", want, out)
		}
	}
}

func TestTable2Prints(t *testing.T) {
	var buf bytes.Buffer
	Table2(&buf)
	out := buf.String()
	for _, want := range []string{"VGG-16", "14728266", "LSTM", "27569568", "BERT", "133547324"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table2 output missing %q:\n%s", want, out)
		}
	}
}

// TestFigure4ThresholdQuality: the reused threshold must be within a
// modest factor of the accurate one; the Gaussian threshold must
// overestimate on the trained gradient distribution.
func TestFigure4ThresholdQuality(t *testing.T) {
	snap := Figure4(Scale{}, "VGG", 0.02, 8, 20)
	if snap.OkTopkReused <= 0 || snap.Accurate <= 0 {
		t.Fatalf("thresholds not captured: %+v", snap)
	}
	ratio := snap.OkTopkReused / snap.Accurate
	if ratio < 0.5 || ratio > 2.0 {
		t.Errorf("reused threshold off by %vx from accurate", ratio)
	}
	var buf bytes.Buffer
	snap.Print(&buf)
	if !strings.Contains(buf.String(), "accurate=") {
		t.Error("Print output malformed")
	}
}

// TestFigure5XiBounded: ξ stays well below P (the paper's convergence
// condition) and is finite.
func TestFigure5XiBounded(t *testing.T) {
	series := Figure5(Scale{}, "VGG", []float64{0.02}, 4, 12, 4)
	if len(series.Xi) != 1 || len(series.Xi[0]) == 0 {
		t.Fatalf("no xi samples: %+v", series)
	}
	for _, xi := range series.Xi[0] {
		if xi < 0 || xi > 16 { // P=4; paper wants ξ ≲ P
			t.Errorf("xi=%v out of plausible range", xi)
		}
	}
	var buf bytes.Buffer
	series.Print(&buf)
	if !strings.Contains(buf.String(), "density=2.0%") {
		t.Errorf("Print output malformed: %s", buf.String())
	}
}

// TestFigure5DensityOrdering: higher density must not blow ξ up. (The
// paper's strict "higher density → smaller ξ" ordering holds in the
// stable late-training intervals; short runs cross early, as the paper's
// own Figure 5 shows in the first epochs, so the test only bounds the
// ratio.)
func TestFigure5DensityOrdering(t *testing.T) {
	series := Figure5(Scale{}, "VGG", []float64{0.01, 0.05}, 4, 24, 4)
	mean := func(xs []float64) float64 {
		var s float64
		for _, v := range xs {
			s += v
		}
		return s / float64(len(xs))
	}
	lo, hi := mean(series.Xi[0]), mean(series.Xi[1])
	if hi > lo*2.5 {
		t.Errorf("xi at density 5%% (%v) blew up vs density 1%% (%v)", hi, lo)
	}
}

// TestFigure6SelectionTracksK: Ok-Topk's selections stay near k while the
// raw Gaussian estimate deviates much more.
func TestFigure6SelectionTracksK(t *testing.T) {
	s := Figure6(Scale{}, "VGG", 0.02, 4, 16, 4, 8)
	if len(s.Local) == 0 {
		t.Fatal("no samples")
	}
	k := float64(s.Accurate)
	for i := range s.Local {
		if s.Local[i] < 0.4*k || s.Local[i] > 2.5*k {
			t.Errorf("local selection %v far from k=%v", s.Local[i], k)
		}
	}
	var buf bytes.Buffer
	s.Print(&buf)
	if !strings.Contains(buf.String(), "mean deviation") {
		t.Error("Print output malformed")
	}
}

// TestFigure6MetricsMatchPrint: a fig6 spec's deviation metrics are the
// three percentages its printed report shows.
func TestFigure6MetricsMatchPrint(t *testing.T) {
	r, _ := FindRunner("fig6")
	spec := r.Specs(QuickScale())[0]
	out := spec.Run(spec)
	var buf bytes.Buffer
	out.Payload.(SelectionSeries).Print(&buf)
	m := map[string]float64{}
	for _, x := range out.Metrics {
		m[x.Name] = x.Value
	}
	want := fmt.Sprintf("  mean deviation: local %.1f%%, global %.1f%%, gaussiank %.1f%%\n",
		m["mean_deviation_local_pct"], m["mean_deviation_global_pct"], m["mean_deviation_gaussiank_pct"])
	if !strings.Contains(buf.String(), want) {
		t.Errorf("metrics %v not the printed deviations:\n%s", out.Metrics, buf.String())
	}
}

// TestFillInExpands: TopkDSA's output density must exceed the input
// density by a large factor (the §5.2 observation).
func TestFillInExpands(t *testing.T) {
	r := FillIn(Scale{}, "VGG", 0.01, 8, 4)
	if r.Expansion < 2 {
		t.Errorf("fill-in expansion %vx too small; paper reports ≈13x at P=16", r.Expansion)
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "expansion") {
		t.Error("Print output malformed")
	}
}

// TestFigure7BalancingWins: both load-balancing optimizations must give
// ≥1x speedups that grow with P on skewed gradients.
func TestFigure7BalancingWins(t *testing.T) {
	rs := Figure7(cluster.WireF64, []int{8, 16}, 40000, 0.01)
	if len(rs) != 2 {
		t.Fatalf("want 2 results, got %d", len(rs))
	}
	for _, r := range rs {
		if r.ReduceSpeedup < 1.0 {
			t.Errorf("P=%d: balanced reduce slower than naive (%vx)", r.P, r.ReduceSpeedup)
		}
		if r.AllgatherSpeedup < 0.95 {
			t.Errorf("P=%d: data balancing slower than direct (%vx)", r.P, r.AllgatherSpeedup)
		}
	}
	if rs[1].ReduceSpeedup < rs[0].ReduceSpeedup*0.8 {
		t.Errorf("reduce speedup should not collapse with P: %v", rs)
	}
	var buf bytes.Buffer
	PrintFigure7(&buf, rs)
	if !strings.Contains(buf.String(), "balanced reduce") {
		t.Error("Print output malformed")
	}
}

// TestWeakScalingShape: the headline result — Ok-Topk has the lowest
// communication time among sparse schemes and beats dense at scale.
func TestWeakScalingShape(t *testing.T) {
	bs := WeakScaling(Scale{}, "VGG", 8, 4, 6, 0.02, nil)
	byName := map[string]Breakdown{}
	for _, b := range bs {
		byName[b.Algorithm] = b
	}
	ok := byName["OkTopk"]
	if ok.Comm >= byName["Dense"].Comm {
		t.Errorf("OkTopk comm %v not below Dense %v", ok.Comm, byName["Dense"].Comm)
	}
	if ok.Comm >= byName["TopkA"].Comm {
		t.Errorf("OkTopk comm %v not below TopkA %v", ok.Comm, byName["TopkA"].Comm)
	}
	if ok.Total >= byName["Dense"].Total {
		t.Errorf("OkTopk total %v not below Dense %v", ok.Total, byName["Dense"].Total)
	}
	// gTopk's hierarchical selection lands in comm time.
	if byName["gTopk"].Comm <= ok.Comm {
		t.Errorf("gTopk comm %v should exceed OkTopk %v", byName["gTopk"].Comm, ok.Comm)
	}
	// Sparse schemes with sort-based selection pay sparsification.
	if byName["TopkA"].Sparsify <= byName["Gaussiank"].Sparsify {
		t.Errorf("TopkA sparsification %v should exceed Gaussiank %v",
			byName["TopkA"].Sparsify, byName["Gaussiank"].Sparsify)
	}
	var buf bytes.Buffer
	PrintBreakdowns(&buf, "test", bs)
	if !strings.Contains(buf.String(), "OkTopk") {
		t.Error("Print output malformed")
	}
}

// TestConvergenceCurves: a small Figure-9-style study — sparse and dense
// reach comparable accuracy, and Ok-Topk's curve advances faster in
// modeled time than Dense.
func TestConvergenceCurves(t *testing.T) {
	curves := Convergence(Scale{}, ConvergenceConfig{
		Workload:   "VGG",
		Algorithms: []string{"DenseOvlp", "OkTopk"},
		P:          4, Batch: 4, Iters: 40, EvalEvery: 20, EvalSize: 100,
		Density: 0.05,
	})
	if len(curves) != 2 {
		t.Fatalf("want 2 curves")
	}
	dense, ok := curves[0], curves[1]
	if ok.Final.Seconds >= dense.Final.Seconds {
		t.Errorf("OkTopk modeled runtime %v not below DenseOvlp %v",
			ok.Final.Seconds, dense.Final.Seconds)
	}
	if ok.Final.Metric < dense.Final.Metric*0.7 {
		t.Errorf("OkTopk accuracy %v collapsed vs dense %v", ok.Final.Metric, dense.Final.Metric)
	}
	var buf bytes.Buffer
	PrintCurves(&buf, "test", curves)
	if !strings.Contains(buf.String(), "time-to-solution") {
		t.Error("Print output malformed")
	}
}

// TestSyntheticGradientsShape: determinism and plausibility of the
// generator used across experiments.
func TestSyntheticGradientsShape(t *testing.T) {
	a := SyntheticGradients(5, 4, 1000, 50, 0.5)
	b := SyntheticGradients(5, 4, 1000, 50, 0.5)
	for r := range a {
		for i := range a[r] {
			if a[r][i] != b[r][i] {
				t.Fatal("generator not deterministic")
			}
		}
	}
	// Heavy values exist.
	big := 0
	for _, v := range a[0] {
		if v > 0.4 || v < -0.4 {
			big++
		}
	}
	if big < 20 {
		t.Errorf("too few heavy entries: %d", big)
	}
}

func TestParallelEfficiency(t *testing.T) {
	eff := ParallelEfficiency(Scale{}, "VGG", 4, 8, 4, 5, 0.02)
	if eff < 0.3 || eff > 1.2 {
		t.Errorf("parallel efficiency %v implausible", eff)
	}
}
