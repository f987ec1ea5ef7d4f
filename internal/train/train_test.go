package train

import (
	"testing"

	"repro/internal/allreduce"
	"repro/internal/netmodel"
	"repro/internal/tensor"
)

func quickCfg(workload, algo string, p int) Config {
	return Config{
		Workload:  workload,
		Algorithm: algo,
		P:         p,
		Batch:     4,
		Seed:      7,
		LR:        0.05,
		Reduce:    allreduce.Config{Density: 0.02, TauPrime: 8, Tau: 8},
	}
}

// TestReplicasStayInSync is the fundamental data-parallel invariant:
// after any number of iterations under any algorithm, all replicas hold
// bit-identical parameters.
func TestReplicasStayInSync(t *testing.T) {
	for _, algo := range AlgorithmNames {
		s := NewSession(quickCfg("VGG", algo, 4))
		s.RunIterations(3, nil)
		if d := s.ReplicaDivergence(); d != 0 {
			t.Errorf("%s: replicas diverged by %v", algo, d)
		}
	}
}

// TestReplicasStayInSyncAdam repeats the invariant under the BERT/Adam
// structure, where the optimizer is stateful.
func TestReplicasStayInSyncAdam(t *testing.T) {
	for _, algo := range []string{"DenseOvlp", "Gaussiank", "OkTopk"} {
		cfg := quickCfg("BERT", algo, 4)
		cfg.Adam = true
		cfg.LR = 2e-4
		s := NewSession(cfg)
		s.RunIterations(3, nil)
		if d := s.ReplicaDivergence(); d != 0 {
			t.Errorf("%s+Adam: replicas diverged by %v", algo, d)
		}
	}
}

// TestVGGLearns: a short dense run must reduce loss and reach
// better-than-chance accuracy on the synthetic image task.
func TestVGGLearns(t *testing.T) {
	cfg := quickCfg("VGG", "Dense", 4)
	cfg.LR = 0.03
	s := NewSession(cfg)
	first := s.RunIteration()
	var last IterStats
	s.RunIterations(100, func(st IterStats) { last = st })
	if last.Loss >= first.Loss {
		t.Errorf("loss did not decrease: %v -> %v", first.Loss, last.Loss)
	}
	acc := s.Evaluate(200)
	if acc < 0.2 { // chance is 0.1 on 10 classes
		t.Errorf("accuracy %v not better than chance", acc)
	}
}

// TestOkTopkLearns: the sparse scheme must also learn, with residual
// accumulation preventing divergence.
func TestOkTopkLearns(t *testing.T) {
	cfg := quickCfg("VGG", "OkTopk", 4)
	cfg.Reduce.Density = 0.05
	cfg.LR = 0.03
	s := NewSession(cfg)
	first := s.RunIteration()
	var last IterStats
	s.RunIterations(100, func(st IterStats) { last = st })
	if last.Loss >= first.Loss {
		t.Errorf("OkTopk loss did not decrease: %v -> %v", first.Loss, last.Loss)
	}
	acc := s.Evaluate(200)
	if acc < 0.2 {
		t.Errorf("OkTopk accuracy %v not better than chance", acc)
	}
}

// TestLSTMLearns on the sequence task.
func TestLSTMLearns(t *testing.T) {
	cfg := quickCfg("LSTM", "OkTopk", 2)
	cfg.LR = 0.3
	cfg.Reduce.Density = 0.05
	s := NewSession(cfg)
	s.RunIterations(50, nil)
	wer := s.Evaluate(120)
	if wer > 0.8 { // chance WER is ~0.92 on 12 classes
		t.Errorf("WER %v not better than chance", wer)
	}
	if s.MetricName() != "sequence-WER" {
		t.Errorf("metric name %q", s.MetricName())
	}
}

// TestBERTLearns: masked-LM loss decreases under Adam + OkTopk.
func TestBERTLearns(t *testing.T) {
	cfg := quickCfg("BERT", "OkTopk", 2)
	cfg.Adam = true
	cfg.LR = 1e-3
	cfg.Reduce.Density = 0.05
	s := NewSession(cfg)
	before := s.Evaluate(32)
	s.RunIterations(30, nil)
	after := s.Evaluate(32)
	if after >= before {
		t.Errorf("MLM loss did not decrease: %v -> %v", before, after)
	}
}

// TestResidualAccumulation: with a sparse algorithm, residuals are
// nonzero after a step and exactly zero at contributed indexes.
func TestResidualAccumulation(t *testing.T) {
	cfg := quickCfg("VGG", "OkTopk", 2)
	s := NewSession(cfg)
	s.RunIterations(1, nil)
	tr := s.Trainers[0]
	nz := 0
	for _, v := range tr.residual {
		if v != 0 {
			nz++
		}
	}
	if nz == 0 {
		t.Fatal("residual is all zero after a sparse step")
	}
	// Dense: residual must remain zero.
	sd := NewSession(quickCfg("VGG", "Dense", 2))
	sd.RunIterations(2, nil)
	for _, v := range sd.Trainers[0].residual {
		if v != 0 {
			t.Fatal("dense residual must stay zero")
		}
	}
}

// TestScheduleApplied: a decaying schedule must reach the trainers.
func TestScheduleApplied(t *testing.T) {
	cfg := quickCfg("VGG", "Dense", 2)
	cfg.Schedule = func(tt int) float64 { return 0.1 / float64(tt) }
	s := NewSession(cfg)
	s.RunIterations(4, nil)
	if lr := s.Trainers[0].LR; lr != 0.1/4 {
		t.Errorf("schedule not applied: lr=%v", lr)
	}
}

// TestPhaseBreakdownShape: sparse schemes must attribute nonzero
// sparsification time, dense schemes must not; DenseOvlp must expose
// less communication than Dense.
func TestPhaseBreakdownShape(t *testing.T) {
	run := func(algo string) IterStats {
		s := NewSession(quickCfg("VGG", algo, 4))
		var last IterStats
		s.RunIterations(2, func(st IterStats) { last = st })
		return last
	}
	dense := run("Dense")
	ovlp := run("DenseOvlp")
	ok := run("OkTopk")
	if dense.Phase[netmodel.PhaseSparsify] != 0 {
		t.Errorf("dense charged sparsification time: %v", dense.Phase)
	}
	if ok.Phase[netmodel.PhaseSparsify] <= 0 {
		t.Errorf("OkTopk has no sparsification time: %v", ok.Phase)
	}
	if ovlp.Phase[netmodel.PhaseComm] >= dense.Phase[netmodel.PhaseComm] {
		t.Errorf("DenseOvlp comm %v not below Dense %v",
			ovlp.Phase[netmodel.PhaseComm], dense.Phase[netmodel.PhaseComm])
	}
	if ok.Phase[netmodel.PhaseComm] >= dense.Phase[netmodel.PhaseComm] {
		t.Errorf("OkTopk comm %v not below Dense %v",
			ok.Phase[netmodel.PhaseComm], dense.Phase[netmodel.PhaseComm])
	}
}

// TestCaptureAcc: captured vectors have the right shapes and the
// accumulator equals scaled gradient + previous residual.
func TestCaptureAcc(t *testing.T) {
	cfg := quickCfg("VGG", "OkTopk", 2)
	cfg.CaptureAcc = true
	s := NewSession(cfg)
	s.RunIterations(1, nil)
	tr := s.Trainers[0]
	n := tr.W.N()
	if len(tr.LastAcc) != n || len(tr.LastUpdate) != n || len(tr.LastScaledGrad) != n {
		t.Fatalf("capture sizes %d/%d/%d, want %d",
			len(tr.LastAcc), len(tr.LastUpdate), len(tr.LastScaledGrad), n)
	}
	// First iteration: residual was zero, so acc == scaled grad.
	for i := range tr.LastAcc {
		if tr.LastAcc[i] != tr.LastScaledGrad[i] {
			t.Fatalf("acc[%d]=%v != scaled grad %v on first iteration",
				i, tr.LastAcc[i], tr.LastScaledGrad[i])
		}
	}
}

// TestWorkloadDeterminism: two sessions with identical configs produce
// identical parameters.
func TestWorkloadDeterminism(t *testing.T) {
	a := NewSession(quickCfg("VGG", "OkTopk", 2))
	b := NewSession(quickCfg("VGG", "OkTopk", 2))
	a.RunIterations(3, nil)
	b.RunIterations(3, nil)
	pa, pb := a.Trainers[0].W.Params(), b.Trainers[0].W.Params()
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("nondeterministic training at param %d", i)
		}
	}
}

// TestBetaScale: β is the session's machine constant scaled by
// PaperN/N — the effective-stack value by default, a custom Net's
// otherwise.
func TestBetaScale(t *testing.T) {
	s := NewSession(quickCfg("VGG", "Dense", 2))
	w := s.Trainers[0].W
	ratio := float64(w.PaperN()) / float64(w.N())
	got := s.Cluster.Comm(0).Clock().Params().Beta
	if want := EffectiveNet().Beta * ratio; got != want {
		t.Errorf("beta %v want %v", got, want)
	}
	cfg := quickCfg("VGG", "Dense", 2)
	cfg.Net = netmodel.Commodity()
	s2 := NewSession(cfg)
	if got, want := s2.Cluster.Comm(0).Clock().Params().Beta, netmodel.Commodity().Beta*ratio; got != want {
		t.Errorf("custom net: beta %v want %v", got, want)
	}
}

// TestGaussiankEstimateHelper: the raw estimator is reachable for the
// Figure 6 accounting.
func TestGaussiankEstimateHelper(t *testing.T) {
	g := tensor.RNG(5)
	x := make([]float64, 10000)
	for i := range x {
		x[i] = g.NormFloat64()
	}
	est := NewAlgorithm("Gaussiank", allreduce.Config{K: 100})
	gk := est.(interface{ EstimateCount([]float64, int) int })
	if c := gk.EstimateCount(x, 100); c <= 0 || c > 1000 {
		t.Errorf("estimate count %d implausible", c)
	}
}
