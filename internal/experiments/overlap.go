package experiments

import (
	"fmt"
	"io"

	"repro/internal/allreduce"
	"repro/internal/netmodel"
	"repro/internal/train"
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

// overlapMeasure runs one DenseOvlp weak-scaling configuration at the
// given bucket count and returns the mean (comm, total) seconds per
// steady-state iteration.
func overlapMeasure(workload string, p, batch, iters, buckets int) (comm, total float64) {
	cfg := train.Config{
		Workload:  workload,
		Algorithm: "DenseOvlp",
		P:         p,
		Batch:     batch,
		Seed:      23,
		LR:        lrFor(workload),
		Adam:      workload == "BERT",
		Reduce:    allreduce.Config{Density: 0.01, TauPrime: 8, Tau: 8, DenseBuckets: buckets},
		Wire:      wireMode,
		Topology:  topoMode,
	}
	s := train.NewSession(cfg)
	const warm = 2
	count := 0
	s.RunIterations(iters, func(st train.IterStats) {
		if st.Iter <= warm {
			return
		}
		comm += st.Phase[netmodel.PhaseComm]
		total += st.IterSeconds
		count++
	})
	return comm / float64(count), total / float64(count)
}

// OverlapAblation sweeps DenseOvlp's bucket count on one workload,
// producing the imperfect-pipelining curve the paper discusses: one
// bucket hides nothing (communication starts only after the full
// backward pass), a handful of buckets hide most of the backward
// window, and the tail bucket — produced last, by the model's earliest
// layers — is always exposed, so hiding saturates below 100% even
// before per-bucket latency overheads bite.
func OverlapAblation(workload string, p, batch, iters int, buckets []int) []OverlapPoint {
	baseComm, _ := overlapMeasure(workload, p, batch, iters, 1)
	var out []OverlapPoint
	for _, nb := range buckets {
		comm, total := overlapMeasure(workload, p, batch, iters, nb)
		out = append(out, OverlapPoint{
			Workload: workload, P: p, Buckets: nb,
			ExposedComm: comm,
			TotalComm:   baseComm,
			HiddenFrac:  1 - comm/baseComm,
			Total:       total,
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
