package repro

// Benchmark harness: one bench per paper table/figure plus ablations of
// Ok-Topk's design choices. Wall-clock ns/op measures this in-process
// implementation; the "sim-ms" metric is the α-β modeled cluster time,
// which is what the paper's figures correspond to. Run:
//
//	go test -bench=. -benchmem
//
// Narrow to one experiment with e.g. -bench=BenchmarkTable1.

import (
	"fmt"
	"testing"

	"repro/internal/allreduce"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/netmodel"
	"repro/internal/sparse"
	"repro/internal/tensor"
	"repro/internal/topk"
	"repro/internal/train"
)

// benchReduce runs one collective reduction per op and reports modeled
// time and per-rank traffic under the given wire mode.
func benchReduce(b *testing.B, name string, wire cluster.Wire, p, n, k int, params netmodel.Params, cfg allreduce.Config) {
	grads := experiments.SyntheticGradients(77, p, n, k, 0.3)
	algos := make([]allreduce.Algorithm, p)
	for i := range algos {
		algos[i] = train.NewAlgorithm(name, cfg)
	}
	c := cluster.NewWire(p, params, wire)
	// Warm-up iteration evaluates thresholds/boundaries.
	if err := c.Run(func(cm *cluster.Comm) error {
		algos[cm.Rank()].Reduce(cm, grads[cm.Rank()], 1)
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	c.ResetClocks()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Run(func(cm *cluster.Comm) error {
			algos[cm.Rank()].Reduce(cm, grads[cm.Rank()], i+2)
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	agg := netmodel.AggregateStats(c.Stats())
	b.ReportMetric(agg.Makespan/float64(b.N)*1e3, "sim-ms")
	b.ReportMetric(float64(agg.TotalSentWords)/float64(p)/float64(b.N), "words/rank")
}

// BenchmarkReduce is the per-algorithm collective micro-benchmark
// behind BENCH_collectives.json: one cluster-wide Reduce per op at the
// Table 1 shape (n=100k, k=1k), P ∈ {8, 32}. Run with -benchmem — the
// allocs/op column is the steady-state allocation profile the pooled
// payload stack is held to (see TestSteadyStateAllocBudget for the
// enforced ceilings).
func BenchmarkReduce(b *testing.B) {
	n, k := 100000, 1000
	for _, p := range []int{8, 32} {
		for _, algo := range train.AlgorithmNames {
			b.Run(fmt.Sprintf("%s/P=%d", algo, p), func(b *testing.B) {
				benchReduce(b, algo, cluster.WireF64, p, n, k, netmodel.PizDaint(),
					allreduce.Config{K: k, TauPrime: 64, Tau: 64})
			})
			b.Run(fmt.Sprintf("%s/P=%d/wire=f32", algo, p), func(b *testing.B) {
				benchReduce(b, algo, cluster.WireF32, p, n, k, netmodel.PizDaint(),
					allreduce.Config{K: k, TauPrime: 64, Tau: 64})
			})
		}
	}
}

// BenchmarkTable1 regenerates the Table 1 regime: every algorithm's
// communication volume and modeled time at several cluster sizes
// (n=100k, k=1k — scale with -bench flags as needed).
func BenchmarkTable1(b *testing.B) {
	n, k := 100000, 1000
	for _, p := range []int{8, 16, 32} {
		for _, algo := range train.AlgorithmNames {
			b.Run(fmt.Sprintf("%s/P=%d", algo, p), func(b *testing.B) {
				benchReduce(b, algo, cluster.WireF64, p, n, k, netmodel.PizDaint(),
					allreduce.Config{K: k, TauPrime: 64, Tau: 64})
			})
		}
	}
}

// BenchmarkFigure4 measures the threshold-prediction experiment.
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure4("VGG", 0.02, 8, 12)
	}
}

// BenchmarkFigure5 measures the ξ-estimation experiment.
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure5("VGG", []float64{0.02}, 4, 8, 4)
	}
}

// BenchmarkFigure6 measures the selection-count experiment.
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure6("VGG", 0.02, 4, 8, 4, 8)
	}
}

// BenchmarkFigure7 regenerates the load-balancing comparison and reports
// the speedups as metrics.
func BenchmarkFigure7(b *testing.B) {
	var rs []experiments.LoadBalanceResult
	for i := 0; i < b.N; i++ {
		rs = experiments.Figure7([]int{16}, 100000, 0.01)
	}
	b.ReportMetric(rs[0].ReduceSpeedup, "reduce-speedup")
	b.ReportMetric(rs[0].AllgatherSpeedup, "allgatherv-speedup")
}

// weakScalingBench runs one weak-scaling panel per op and reports
// Ok-Topk's advantage over the best dense scheme.
func weakScalingBench(b *testing.B, workload string, p, batch int, density float64) {
	var bs []experiments.Breakdown
	for i := 0; i < b.N; i++ {
		bs = experiments.WeakScaling(workload, p, batch, 5, density, nil)
	}
	var ok, dense experiments.Breakdown
	for _, br := range bs {
		switch br.Algorithm {
		case "OkTopk":
			ok = br
		case "DenseOvlp":
			dense = br
		}
	}
	b.ReportMetric(ok.Total*1e3, "oktopk-sim-ms/iter")
	b.ReportMetric(dense.Total/ok.Total, "speedup-vs-denseovlp")
}

// BenchmarkFigure8 is the VGG weak-scaling panel (paper: P=16, 32).
func BenchmarkFigure8(b *testing.B) {
	for _, p := range []int{8, 16} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			weakScalingBench(b, "VGG", p, 4, 0.02)
		})
	}
}

// BenchmarkOverlapAblation is the DenseOvlp bucket-pipeline sweep (the
// ovlp runner) at smoke size: one workload, two bucket depths, showing
// the simulated overlap engine's hidden-fraction signal end to end.
func BenchmarkOverlapAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := experiments.OverlapAblation("VGG", 8, 16, 5, []int{1, 8})
		if len(pts) > 0 {
			b.ReportMetric(pts[len(pts)-1].HiddenFrac*100, "hidden-%")
			b.ReportMetric(pts[len(pts)-1].ExposedComm*1e3, "exposed-sim-ms")
		}
	}
}

// BenchmarkFigure10 is the LSTM weak-scaling panel (paper: P=32, 64).
func BenchmarkFigure10(b *testing.B) {
	for _, p := range []int{8, 16} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			weakScalingBench(b, "LSTM", p, 2, 0.02)
		})
	}
}

// BenchmarkFigure12 is the BERT weak-scaling panel (paper: P=32…256).
func BenchmarkFigure12(b *testing.B) {
	for _, p := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			weakScalingBench(b, "BERT", p, 4, 0.01)
		})
	}
}

// convergenceBench runs a short convergence study per op and reports the
// final metric and modeled runtime.
func convergenceBench(b *testing.B, workload string, algos []string, density float64) {
	var curves []experiments.Curve
	for i := 0; i < b.N; i++ {
		curves = experiments.Convergence(experiments.ConvergenceConfig{
			Workload: workload, Algorithms: algos,
			P: 4, Batch: 4, Iters: 24, EvalEvery: 12, EvalSize: 64,
			Density: density,
		})
	}
	for _, c := range curves {
		b.ReportMetric(c.Final.Seconds, "sim-s/"+c.Algorithm)
	}
}

// BenchmarkFigure9 is the VGG accuracy-vs-time study.
func BenchmarkFigure9(b *testing.B) {
	convergenceBench(b, "VGG", []string{"DenseOvlp", "OkTopk"}, 0.02)
}

// BenchmarkFigure11 is the LSTM WER-vs-time study.
func BenchmarkFigure11(b *testing.B) {
	convergenceBench(b, "LSTM", []string{"DenseOvlp", "OkTopk"}, 0.02)
}

// BenchmarkFigure13 is the BERT loss-vs-time study.
func BenchmarkFigure13(b *testing.B) {
	convergenceBench(b, "BERT", []string{"DenseOvlp", "Gaussiank", "OkTopk"}, 0.01)
}

// --- Ablations of Ok-Topk's design choices (DESIGN.md) ---

func ablationBench(b *testing.B, mut func(*allreduce.Config), params netmodel.Params) {
	p, n, k := 16, 100000, 1000
	cfg := allreduce.Config{K: k, TauPrime: 16, Tau: 16,
		Rotation: true, Repartition: true, DataBalance: true}
	mut(&cfg)
	grads := experiments.SyntheticGradients(55, p, n, k, 0.7)
	algos := make([]*core.OkTopk, p)
	for i := range algos {
		algos[i] = core.New(cfg)
	}
	c := cluster.New(p, params)
	if err := c.Run(func(cm *cluster.Comm) error {
		algos[cm.Rank()].Reduce(cm, grads[cm.Rank()], 1)
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	c.ResetClocks()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Run(func(cm *cluster.Comm) error {
			algos[cm.Rank()].Reduce(cm, grads[cm.Rank()], i+2)
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	agg := netmodel.AggregateStats(c.Stats())
	b.ReportMetric(agg.Makespan/float64(b.N)*1e3, "sim-ms")
}

// BenchmarkAblationRotation compares the rotated schedule against the
// endpoint-congested naive pattern (Figure 2).
func BenchmarkAblationRotation(b *testing.B) {
	for _, on := range []bool{true, false} {
		b.Run(fmt.Sprintf("rotation=%v", on), func(b *testing.B) {
			ablationBench(b, func(c *allreduce.Config) { c.Rotation = on }, netmodel.PizDaint())
		})
	}
}

// BenchmarkAblationRepartition toggles balanced space repartition
// (Figure 7a's comparison).
func BenchmarkAblationRepartition(b *testing.B) {
	for _, on := range []bool{true, false} {
		b.Run(fmt.Sprintf("repartition=%v", on), func(b *testing.B) {
			ablationBench(b, func(c *allreduce.Config) { c.Repartition = on }, netmodel.PizDaint())
		})
	}
}

// BenchmarkAblationDataBalance toggles the conditional balancing step
// (Figure 7b's comparison).
func BenchmarkAblationDataBalance(b *testing.B) {
	for _, on := range []bool{true, false} {
		b.Run(fmt.Sprintf("balance=%v", on), func(b *testing.B) {
			ablationBench(b, func(c *allreduce.Config) { c.DataBalance = on }, netmodel.PizDaint())
		})
	}
}

// BenchmarkAblationBucketSize sweeps the split-and-reduce bucket size.
func BenchmarkAblationBucketSize(b *testing.B) {
	for _, size := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("bucket=%d", size), func(b *testing.B) {
			ablationBench(b, func(c *allreduce.Config) { c.BucketSize = size }, netmodel.PizDaint())
		})
	}
}

// BenchmarkAblationTauPrime sweeps the threshold re-evaluation period:
// τ′=1 re-sorts every iteration (expensive sparsification), larger τ′
// amortizes it.
func BenchmarkAblationTauPrime(b *testing.B) {
	for _, tp := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("tauprime=%d", tp), func(b *testing.B) {
			ablationBench(b, func(c *allreduce.Config) { c.TauPrime = tp; c.Tau = 64 }, netmodel.PizDaint())
		})
	}
}

// BenchmarkAblationNetwork compares Piz-Daint-class and commodity-cloud
// constants; the paper predicts larger relative wins on slow networks.
func BenchmarkAblationNetwork(b *testing.B) {
	for _, net := range []struct {
		name   string
		params netmodel.Params
	}{{"pizdaint", netmodel.PizDaint()}, {"commodity", netmodel.Commodity()}} {
		b.Run(net.name, func(b *testing.B) {
			ablationBench(b, func(c *allreduce.Config) {}, net.params)
		})
	}
}

// --- Kernel micro-benchmarks (real wall time, -benchmem) ---

// BenchmarkSparseAdd measures the COO merge kernel.
func BenchmarkSparseAdd(b *testing.B) {
	r := tensor.RNG(9)
	mk := func() *sparse.Vec {
		d := make([]float64, 100000)
		for j := 0; j < 1000; j++ {
			d[r.Intn(len(d))] = r.NormFloat64()
		}
		return sparse.FromDense(d)
	}
	x, y := mk(), mk()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sparse.Add(x, y)
	}
}

// BenchmarkTopkQuickselect measures exact threshold computation.
func BenchmarkTopkQuickselect(b *testing.B) {
	r := tensor.RNG(10)
	x := make([]float64, 1000000)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topk.Threshold(x, 10000)
	}
}

// BenchmarkTopkThresholdScan measures the O(n) selection scan that
// threshold reuse reduces sparsification to.
func BenchmarkTopkThresholdScan(b *testing.B) {
	r := tensor.RNG(11)
	x := make([]float64, 1000000)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	th := topk.Threshold(x, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topk.SelectByThreshold(x, th)
	}
}

// BenchmarkGaussianEstimate measures the Gaussiank estimator.
func BenchmarkGaussianEstimate(b *testing.B) {
	r := tensor.RNG(12)
	x := make([]float64, 1000000)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topk.GaussianThreshold(x, 10000)
	}
}

// BenchmarkDenseAllreduce measures the Rabenseifner allreduce including
// runtime overhead (goroutines, channels).
func BenchmarkDenseAllreduce(b *testing.B) {
	for _, p := range []int{8, 32} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			benchReduce(b, "Dense", cluster.WireF64, p, 100000, 1000, netmodel.PizDaint(), allreduce.Config{})
		})
	}
}
