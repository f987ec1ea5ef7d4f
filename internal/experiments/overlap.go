package experiments

import (
	"fmt"
	"io"
)

// OverlapPoint is one row of the overlap ablation: DenseOvlp at a fixed
// bucket count, with the monolithic (1-bucket, nothing hidden) exposure
// alongside for reference.
type OverlapPoint struct {
	Workload string
	P        int
	Buckets  int
	// ExposedComm is the mean per-iteration communication time the
	// simulated pipeline failed to hide (modeled seconds).
	ExposedComm float64
	// TotalComm is the mean unhidden communication of the same
	// configuration reduced monolithically (no overlap window) — the
	// denominator of HiddenFrac.
	TotalComm float64
	// HiddenFrac = 1 − ExposedComm/TotalComm.
	HiddenFrac float64
	// Total is the mean modeled seconds per iteration.
	Total float64
}

// OverlapAblation sweeps DenseOvlp's bucket count on one workload,
// producing the imperfect-pipelining curve the paper discusses: one
// bucket hides nothing (communication starts only after the full
// backward pass), a handful of buckets hide most of the backward
// window, and the tail bucket — produced last, by the model's earliest
// layers — is always exposed, so hiding saturates below 100% even
// before per-bucket latency overheads bite. Each point is the
// steady-state mean of one DenseOvlp weak-scaling run at density 1%.
func OverlapAblation(sc Scale, workload string, p, batch, iters int, buckets []int) []OverlapPoint {
	measure := func(nb int) Breakdown {
		cfg := weakConfig(sc, workload, "DenseOvlp", p, batch, 0.01)
		cfg.Reduce.DenseBuckets = nb
		return steadyState(cfg, iters, "", "")
	}
	base := measure(1)
	var out []OverlapPoint
	for _, nb := range buckets {
		b := measure(nb)
		out = append(out, OverlapPoint{
			Workload: workload, P: p, Buckets: nb,
			ExposedComm: b.Comm,
			TotalComm:   base.Comm,
			HiddenFrac:  1 - b.Comm/base.Comm,
			Total:       b.Total,
		})
	}
	return out
}

// PrintOverlapAblation writes one workload's ablation rows.
func PrintOverlapAblation(w io.Writer, ps []OverlapPoint) {
	if len(ps) == 0 {
		return
	}
	fmt.Fprintf(w, "%s P=%d DenseOvlp bucket-pipeline ablation (density=1.0%%)\n",
		ps[0].Workload, ps[0].P)
	fmt.Fprintf(w, "  %-9s %-14s %-12s %-12s\n", "buckets", "exposed (s)", "hidden", "total (s)")
	for _, pt := range ps {
		fmt.Fprintf(w, "  %-9d %-14.4f %-12s %-12.4f\n",
			pt.Buckets, pt.ExposedComm, fmt.Sprintf("%.1f%%", pt.HiddenFrac*100), pt.Total)
	}
}
