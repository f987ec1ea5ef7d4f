package experiments

import (
	"fmt"
	"io"

	"repro/internal/allreduce"
	"repro/internal/optimizer"
	"repro/internal/train"
)

// CurvePoint is one sample of a convergence-vs-time curve.
type CurvePoint struct {
	Iter    int
	Seconds float64 // cumulative modeled training time
	Metric  float64 // top-1 accuracy, WER, or MLM loss
	Loss    float64 // running training loss
}

// Curve is one algorithm's convergence trajectory (Figures 9, 11, 13).
type Curve struct {
	Workload  string
	Algorithm string
	Metric    string
	Points    []CurvePoint
	Final     CurvePoint
}

// ConvergenceConfig parameterizes a convergence study.
type ConvergenceConfig struct {
	Workload   string
	Algorithms []string
	P          int
	Batch      int
	Iters      int
	EvalEvery  int
	EvalSize   int
	Density    float64
	Seed       int64
}

// Convergence trains the workload to a fixed iteration budget under each
// algorithm and records metric-vs-modeled-time curves. The learning-rate
// schedule follows the paper: step decay for SGD workloads, linear decay
// for the Adam/BERT workload. The sessions take sc's wire and topology,
// and with sc.TraceDir set each algorithm's final iteration is traced.
func Convergence(sc Scale, cfg ConvergenceConfig) []Curve {
	if cfg.EvalEvery == 0 {
		cfg.EvalEvery = cfg.Iters / 10
	}
	if cfg.EvalSize == 0 {
		cfg.EvalSize = 200
	}
	if cfg.Seed == 0 {
		cfg.Seed = 29
	}
	var out []Curve
	for _, algo := range cfg.Algorithms {
		tcfg := runConfig(sc, cfg.Workload, algo, cfg.P, cfg.Batch, cfg.Seed,
			allreduce.Config{Density: cfg.Density, TauPrime: 8, Tau: 8})
		base := tcfg.LR
		if tcfg.Adam {
			tcfg.Schedule = func(t int) float64 {
				return optimizer.LinearDecay(base, t, cfg.Iters+1)
			}
		} else {
			tcfg.Schedule = func(t int) float64 {
				return optimizer.StepDecay(base, t, cfg.Iters, 0.5, 0.8)
			}
		}
		s := train.NewSession(tcfg)
		curve := Curve{Workload: cfg.Workload, Algorithm: algo, Metric: s.MetricName()}
		var elapsed float64
		var lastLoss float64
		step := func(it int) {
			st := s.RunIteration()
			elapsed += st.IterSeconds
			lastLoss = st.Loss
			if it%cfg.EvalEvery == 0 || it == cfg.Iters {
				metric := s.Evaluate(cfg.EvalSize)
				curve.Points = append(curve.Points, CurvePoint{
					Iter: it, Seconds: elapsed, Metric: metric, Loss: lastLoss,
				})
			}
		}
		for it := 1; it < cfg.Iters; it++ {
			step(it)
		}
		traceFinalIteration(s, sc.TraceDir, fmt.Sprintf("conv_%s_%s_P%d", cfg.Workload, algo, cfg.P), func() {
			step(cfg.Iters)
		})
		curve.Final = curve.Points[len(curve.Points)-1]
		out = append(out, curve)
	}
	return out
}

// PrintCurves writes the convergence curves plus the paper's summary
// metrics (final metric, total runtime, time-to-solution comparison).
func PrintCurves(w io.Writer, title string, curves []Curve) {
	fmt.Fprintln(w, title)
	for _, c := range curves {
		fmt.Fprintf(w, "  %s (%s):\n", c.Algorithm, c.Metric)
		fmt.Fprintf(w, "    %-8s %-12s %-12s %-10s\n", "iter", "time (s)", "metric", "loss")
		for _, pt := range c.Points {
			fmt.Fprintf(w, "    %-8d %-12.2f %-12.4f %-10.4f\n", pt.Iter, pt.Seconds, pt.Metric, pt.Loss)
		}
		fmt.Fprintf(w, "    final: metric=%.4f runtime=%.2fs\n", c.Final.Metric, c.Final.Seconds)
	}
	// Time-to-solution: time for each algorithm to reach the worst final
	// metric among the curves (all reach it by construction).
	if len(curves) > 1 {
		higherBetter := curves[0].Metric == "top1-accuracy"
		target := curves[0].Final.Metric
		for _, c := range curves[1:] {
			if higherBetter && c.Final.Metric < target {
				target = c.Final.Metric
			}
			if !higherBetter && c.Final.Metric > target {
				target = c.Final.Metric
			}
		}
		fmt.Fprintf(w, "  time-to-solution (target metric %.4f):\n", target)
		for _, c := range curves {
			tts := timeToTarget(c, target, higherBetter)
			fmt.Fprintf(w, "    %-11s %.2fs\n", c.Algorithm, tts)
		}
	}
}

func timeToTarget(c Curve, target float64, higherBetter bool) float64 {
	for _, pt := range c.Points {
		if higherBetter && pt.Metric >= target {
			return pt.Seconds
		}
		if !higherBetter && pt.Metric <= target {
			return pt.Seconds
		}
	}
	return c.Final.Seconds
}
