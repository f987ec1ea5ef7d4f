// Package experiments regenerates every table and figure of the paper's
// evaluation section (see DESIGN.md's per-experiment index). Each runner
// prints the same rows or series the paper reports, using the α-β
// simulated cluster; EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"fmt"
	"io"

	"repro/internal/allreduce"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/netmodel"
	"repro/internal/sparsecoll"
	"repro/internal/tensor"
	"repro/internal/topk"
	"repro/internal/train"
)

// wireMode is the wire format every experiment cluster is built with.
// It is set once, before any specs run (the -wire flag on
// cmd/oktopk-bench), and only read afterwards, so the parallel
// scheduler's specs can share it without synchronization. Runs in the
// two modes produce paired rows for the fidelity comparison in
// EXPERIMENTS.md.
var wireMode = cluster.WireF64

// SetWire selects the wire format for subsequently built experiment
// clusters. Call it before RunSpecs, never concurrently with one.
func SetWire(w cluster.Wire) { wireMode = w }

// topoMode is the network topology every experiment cluster is built
// with. Like wireMode it is set once before any specs run (the
// -topology/-node-size/-straggler flags on cmd/oktopk-bench) and only
// read afterwards. The zero value is the flat network, which keeps
// every runner byte-identical to the pre-topology behavior (the golden
// test in topo_test.go pins this).
var topoMode netmodel.Topology

// SetTopology selects the topology for subsequently built experiment
// clusters. Call it before RunSpecs, never concurrently with one.
func SetTopology(t netmodel.Topology) { topoMode = t }

// SyntheticGradients builds P gradient vectors of size n with realistic
// heavy-tailed values: a near-zero Gaussian bulk plus `heavy` large
// entries whose coordinates are drawn from a shared skewed distribution
// (workers agree region-wise, as the paper observes), drifting slowly
// with iteration.
func SyntheticGradients(seed int64, p, n, heavy int, skew float64) [][]float64 {
	base := tensor.RNG(seed)
	// Shared coordinate hot-spots: heavy values cluster around a few
	// centers common to all workers.
	centers := make([]int, 8)
	for i := range centers {
		centers[i] = base.Intn(n)
	}
	grads := make([][]float64, p)
	for r := 0; r < p; r++ {
		rng := tensor.RNG(seed + int64(r) + 1)
		g := make([]float64, n)
		for i := range g {
			g[i] = rng.NormFloat64() * 0.001
		}
		for h := 0; h < heavy; h++ {
			var idx int
			if rng.Float64() < skew {
				c := centers[rng.Intn(len(centers))]
				off := int(rng.NormFloat64() * float64(n) * 0.02)
				idx = ((c+off)%n + n) % n
			} else {
				idx = rng.Intn(n)
			}
			v := rng.Float64() + 0.5
			if rng.Intn(2) == 0 {
				v = -v
			}
			g[idx] = v
		}
		grads[r] = g
	}
	return grads
}

// table1Algorithms lists the Table 1 rows in paper order.
var table1Algorithms = []string{"Dense", "TopkA", "TopkDSA", "gTopk", "Gaussiank", "OkTopk"}

// Table1Col is one cluster-size column of Table 1: per-algorithm
// mean/max per-rank sent words measured at steady state.
type Table1Col struct {
	P, N, K   int
	Mean, Max map[string]float64
}

// renderTable1 reassembles the Table 1 report from per-P measurement
// columns: the analytic cost-model terms of all algorithms next to the
// per-rank volumes measured from the simulator (n=1M-scale synthetic
// gradient, steady state). The measured column validates the bandwidth
// terms: TopkA/Gaussiank grow ∝P, TopkDSA sits between 4k and 2k+n,
// gTopk grows with log P, Ok-Topk stays within [2k, 6k]·(P−1)/P.
func renderTable1(w io.Writer, rs []Result) {
	var cols []Table1Col
	for _, r := range rs {
		if r.Err != nil {
			fmt.Fprintf(w, "  %s: FAILED: %v\n", r.Spec.Config, r.Err)
			continue
		}
		cols = append(cols, r.Outcome.Payload.(Table1Col))
	}
	if len(cols) == 0 {
		return
	}
	n, k := cols[0].N, cols[0].K
	fmt.Fprintf(w, "Table 1: communication volume per rank (words; n=%d, k=%d)\n", n, k)
	fmt.Fprintf(w, "%-10s %-28s", "Algorithm", "Analytic bandwidth term")
	for _, c := range cols {
		fmt.Fprintf(w, " P=%-9d", c.P)
	}
	fmt.Fprintln(w)

	type row struct {
		name     string
		analytic string
		fn       func(p int) float64
	}
	rows := []row{
		{"Dense", "2n(P-1)/P", func(p int) float64 { return 2 * float64(n) * float64(p-1) / float64(p) }},
		{"TopkA", "2k(P-1)", func(p int) float64 { return 2 * float64(k) * float64(p-1) }},
		{"TopkDSA", "[4k(P-1)/P, (2k+n)(P-1)/P]", func(p int) float64 { return 4 * float64(k) * float64(p-1) / float64(p) }},
		{"gTopk", "4k·logP", func(p int) float64 { return 4 * float64(k) * log2f(p) }},
		{"Gaussiank", "2k(P-1)", func(p int) float64 { return 2 * float64(k) * float64(p-1) }},
		{"OkTopk", "[2k(P-1)/P, 6k(P-1)/P]", func(p int) float64 { return 6 * float64(k) * float64(p-1) / float64(p) }},
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-28s", r.name, r.analytic)
		for _, c := range cols {
			fmt.Fprintf(w, " %-9.0f/%-9.0f", c.Mean[r.name], c.Max[r.name])
		}
		fmt.Fprintf(w, "  (model bound")
		for _, c := range cols {
			fmt.Fprintf(w, " %.0f", r.fn(c.P))
		}
		fmt.Fprintln(w, ")")
	}
	fmt.Fprintln(w, "measured columns are per-rank sent words, mean/max over ranks.")
}

func log2f(p int) float64 {
	l := 0.0
	for v := 1; v < p; v *= 2 {
		l++
	}
	return l
}

// MeasureVolumeStats runs two steady-state iterations of the named
// algorithm on synthetic gradients and returns the mean per-rank words
// sent in the second iteration, and the busiest rank's — the quantity
// that exposes tree roots (gTopk) and unbalanced endpoints, which
// per-rank means average away.
func MeasureVolumeStats(name string, p, n, k int) (mean, max float64) {
	grads := SyntheticGradients(42, p, n, k, 0.3)
	cfg := allreduce.Config{K: k, TauPrime: 2, Tau: 2}
	algos := make([]allreduce.Algorithm, p)
	for i := range algos {
		algos[i] = train.NewAlgorithm(name, cfg)
	}
	params := netmodel.PizDaint()
	params.Topo = topoMode
	c := cluster.NewWire(p, params, wireMode)
	for it := 1; it <= 2; it++ {
		if it == 2 {
			c.ResetClocks()
		}
		if err := c.Run(func(cm *cluster.Comm) error {
			algos[cm.Rank()].Reduce(cm, grads[cm.Rank()], it)
			return nil
		}); err != nil {
			panic(err)
		}
	}
	var sum float64
	for _, s := range c.Stats() {
		words := float64(s.SentWords)
		sum += words
		if words > max {
			max = words
		}
	}
	return sum / float64(p), max
}

// table2Metrics exposes the model inventory as metrics for the emitters.
func table2Metrics() []Metric {
	var ms []Metric
	for _, load := range []string{"VGG", "LSTM", "BERT"} {
		wl := train.NewWorkload(load, 1, 2)
		ms = append(ms,
			Metric{load + "/paper_n", float64(wl.PaperN())},
			Metric{load + "/repo_n", float64(wl.N())},
		)
	}
	return ms
}

// Table2 prints the model inventory: the paper's models and the
// substituted substrate models actually trained here.
func Table2(w io.Writer) {
	fmt.Fprintln(w, "Table 2: neural networks used for evaluation")
	fmt.Fprintf(w, "%-22s %-14s %-12s %-14s %-12s\n",
		"Task", "Paper model", "Paper n", "This repo", "Repo n")
	for _, row := range []struct {
		task, paperModel string
		load             string
	}{
		{"Image classification", "VGG-16", "VGG"},
		{"Speech recognition", "LSTM", "LSTM"},
		{"Language processing", "BERT", "BERT"},
	} {
		wl := train.NewWorkload(row.load, 1, 2)
		fmt.Fprintf(w, "%-22s %-14s %-12d %-14s %-12d\n",
			row.task, row.paperModel, wl.PaperN(), wl.Name()+" (scaled)", wl.N())
	}
}

// ThresholdSnapshot is one Figure-4 panel: the gradient value histogram
// at a sampled iteration where Ok-Topk is reusing a threshold computed
// ≥25 iterations earlier, with the three thresholds compared.
type ThresholdSnapshot struct {
	Workload      string
	Iteration     int
	HistEdges     []float64
	HistCounts    []int
	Accurate      float64
	OkTopkReused  float64
	Gaussian      float64
	AccurateCurve []float64 // exact threshold at each recent iteration
}

// Figure4 trains the workload briefly and captures the threshold
// comparison at an iteration deep into a reuse window.
func Figure4(workload string, density float64, tauPrime, sampleIter int) ThresholdSnapshot {
	cfg := train.Config{
		Workload:  workload,
		Algorithm: "OkTopk",
		P:         4,
		Batch:     4,
		Seed:      11,
		LR:        lrFor(workload),
		Adam:      workload == "BERT",
		Reduce:    allreduce.Config{Density: density, TauPrime: tauPrime, Tau: tauPrime},
		Wire:      wireMode,
		Topology:  topoMode,
	}
	cfg.CaptureAcc = true
	s := train.NewSession(cfg)
	snap := ThresholdSnapshot{Workload: workload}
	k := cfg.Reduce.KFor(s.N())
	var curve []float64
	var thScratch []float64 // reused |acc| buffer for the exact-threshold probes
	for it := 1; it <= sampleIter; it++ {
		s.RunIterations(1, nil)
		acc := s.Trainers[0].LastAcc
		if it > sampleIter-8 {
			var th float64
			th, thScratch = topk.ThresholdInto(acc, k, thScratch)
			curve = append(curve, th)
		}
		if it == sampleIter {
			snap.Iteration = it
			snap.Accurate, thScratch = topk.ThresholdInto(acc, k, thScratch)
			snap.Gaussian = topk.GaussianThreshold(acc, k)
			okAlgo := s.Trainers[0].Algo.(*core.OkTopk)
			snap.OkTopkReused = okAlgo.LocalThreshold()
			snap.HistEdges, snap.HistCounts = histogram(acc, 41)
		}
	}
	snap.AccurateCurve = curve
	return snap
}

// Print writes the snapshot in the paper's terms.
func (t ThresholdSnapshot) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 4 (%s): thresholds at iteration %d (reuse window)\n", t.Workload, t.Iteration)
	fmt.Fprintf(w, "  accurate=%.6g  oktopk(reused)=%.6g  gaussiank=%.6g\n",
		t.Accurate, t.OkTopkReused, t.Gaussian)
	fmt.Fprintf(w, "  oktopk/accurate=%.3f  gaussiank/accurate=%.3f\n",
		t.OkTopkReused/t.Accurate, t.Gaussian/t.Accurate)
	fmt.Fprint(w, "  accurate-threshold curve:")
	for _, v := range t.AccurateCurve {
		fmt.Fprintf(w, " %.5g", v)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "  value-distribution histogram (center bins):")
	for i := len(t.HistCounts)/2 - 6; i <= len(t.HistCounts)/2+6 && i < len(t.HistCounts); i++ {
		if i < 0 {
			continue
		}
		fmt.Fprintf(w, "    [%+.4f] %d\n", t.HistEdges[i], t.HistCounts[i])
	}
}

func histogram(x []float64, bins int) ([]float64, []int) {
	lo, hi := x[0], x[0]
	for _, v := range x {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi == lo {
		hi = lo + 1
	}
	edges := make([]float64, bins)
	counts := make([]int, bins)
	for i := range edges {
		edges[i] = lo + (hi-lo)*float64(i)/float64(bins-1)
	}
	for _, v := range x {
		b := int(float64(bins-1) * (v - lo) / (hi - lo))
		if b >= bins {
			b = bins - 1
		}
		counts[b]++
	}
	return edges, counts
}

func lrFor(workload string) float64 {
	switch workload {
	case "VGG":
		return 0.03
	case "LSTM":
		return 0.3
	case "BERT":
		return 1e-3
	}
	return 0.1
}

// XiSeries is Figure 5: the empirical ξ of Assumption 1 over training
// for a set of densities.
type XiSeries struct {
	Workload  string
	Densities []float64
	Iters     []int
	Xi        [][]float64 // [density][sample]
}

// Figure5 measures ξ during short training runs.
func Figure5(workload string, densities []float64, p, iters, sampleEvery int) XiSeries {
	out := XiSeries{Workload: workload, Densities: densities}
	for di, d := range densities {
		cfg := train.Config{
			Workload:  workload,
			Algorithm: "OkTopk",
			P:         p,
			Batch:     4,
			Seed:      13,
			LR:        lrFor(workload),
			Adam:      workload == "BERT",
			Reduce:    allreduce.Config{Density: d, TauPrime: 8, Tau: 8},
			Wire:      wireMode,
			Topology:  topoMode,
		}
		cfg.CaptureAcc = true
		s := train.NewSession(cfg)
		k := cfg.Reduce.KFor(s.N())
		var series []float64
		for it := 1; it <= iters; it++ {
			s.RunIterations(1, nil)
			if it%sampleEvery != 0 {
				continue
			}
			accs := make([][]float64, p)
			gradSum := make([]float64, s.N())
			for r := 0; r < p; r++ {
				accs[r] = s.Trainers[r].LastAcc
				tensor.Axpy(1, s.Trainers[r].LastScaledGrad, gradSum)
			}
			gnorm := tensor.Norm2(gradSum) / float64(p)
			xi := core.Xi(accs, s.Trainers[0].LastUpdate, k, gnorm)
			series = append(series, xi)
			if di == 0 && len(out.Iters) < iters/sampleEvery {
				out.Iters = append(out.Iters, it)
			}
		}
		out.Xi = append(out.Xi, series)
	}
	return out
}

// Print writes the ξ series.
func (x XiSeries) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 5 (%s): empirical xi of Assumption 1\n", x.Workload)
	fmt.Fprint(w, "  iter:")
	for _, it := range x.Iters {
		fmt.Fprintf(w, " %6d", it)
	}
	fmt.Fprintln(w)
	for di, d := range x.Densities {
		fmt.Fprintf(w, "  density=%.1f%%:", d*100)
		for _, v := range x.Xi[di] {
			fmt.Fprintf(w, " %6.2f", v)
		}
		fmt.Fprintln(w)
	}
}

// SelectionSeries is Figure 6: counts of selected values over training.
type SelectionSeries struct {
	Workload string
	Iters    []int
	Accurate int
	Local    []float64
	Global   []float64
	Gaussian []float64
}

// Figure6 tracks Ok-Topk's local/global selection counts against the
// accurate k and the raw Gaussiank estimate.
func Figure6(workload string, density float64, p, iters, sampleEvery, tauPrime int) SelectionSeries {
	cfg := train.Config{
		Workload:  workload,
		Algorithm: "OkTopk",
		P:         p,
		Batch:     4,
		Seed:      17,
		LR:        lrFor(workload),
		Adam:      workload == "BERT",
		Reduce:    allreduce.Config{Density: density, TauPrime: tauPrime, Tau: tauPrime},
		Wire:      wireMode,
		Topology:  topoMode,
	}
	cfg.CaptureAcc = true
	s := train.NewSession(cfg)
	k := cfg.Reduce.KFor(s.N())
	gk := sparsecoll.NewGaussiank(cfg.Reduce)
	out := SelectionSeries{Workload: workload, Accurate: k}
	for it := 1; it <= iters; it++ {
		st := s.RunIteration()
		if it%sampleEvery != 0 {
			continue
		}
		out.Iters = append(out.Iters, it)
		out.Local = append(out.Local, st.LocalK)
		out.Global = append(out.Global, st.GlobalK)
		out.Gaussian = append(out.Gaussian, float64(gk.EstimateCount(s.Trainers[0].LastAcc, k)))
	}
	return out
}

// Print writes the selection series.
func (s SelectionSeries) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 6 (%s): number of selected values (accurate k=%d)\n", s.Workload, s.Accurate)
	fmt.Fprintf(w, "  %-8s %-12s %-12s %-12s\n", "iter", "oktopk-local", "oktopk-glob", "gaussiank")
	for i, it := range s.Iters {
		fmt.Fprintf(w, "  %-8d %-12.0f %-12.0f %-12.0f\n", it, s.Local[i], s.Global[i], s.Gaussian[i])
	}
	// Mean absolute deviation from accurate, as the paper reports (<11%).
	dev := func(xs []float64) float64 {
		var d float64
		for _, v := range xs {
			d += absf(v-float64(s.Accurate)) / float64(s.Accurate)
		}
		return d / float64(len(xs)) * 100
	}
	fmt.Fprintf(w, "  mean deviation: local %.1f%%, global %.1f%%, gaussiank %.1f%%\n",
		dev(s.Local), dev(s.Global), dev(s.Gaussian))
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// FillInResult reports the §5.2 output-density statistics for TopkDSA.
type FillInResult struct {
	Workload  string
	Density   float64
	P         int
	MeanFill  float64
	Expansion float64 // MeanFill / Density
}

// FillIn measures TopkDSA's output density during short training runs
// (paper: 13.2% for VGG at 1% on 16 GPUs, 34.5% for LSTM at 2% on 32).
func FillIn(workload string, density float64, p, iters int) FillInResult {
	cfg := train.Config{
		Workload:  workload,
		Algorithm: "TopkDSA",
		P:         p,
		Batch:     2,
		Seed:      19,
		LR:        lrFor(workload),
		Reduce:    allreduce.Config{Density: density},
		Wire:      wireMode,
		Topology:  topoMode,
	}
	s := train.NewSession(cfg)
	s.RunIterations(iters, nil)
	dsa := s.Trainers[0].Algo.(*sparsecoll.TopkDSA)
	return FillInResult{
		Workload: workload, Density: density, P: p,
		MeanFill:  dsa.MeanFillDensity(),
		Expansion: dsa.MeanFillDensity() / density,
	}
}

// Print writes the fill-in row.
func (f FillInResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Fill-in (%s, density=%.1f%%, P=%d): output density %.1f%% (%.1fx expansion)\n",
		f.Workload, f.Density*100, f.P, f.MeanFill*100, f.Expansion)
}
