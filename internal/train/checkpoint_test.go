package train

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/checkpoint"
)

// TestCheckpointResumeMatchesContinuous: stopping at a τ′ boundary,
// serializing, restoring into a fresh session and continuing reproduces
// the continuous run bit-for-bit.
func TestCheckpointResumeMatchesContinuous(t *testing.T) {
	cfg := quickCfg("VGG", "OkTopk", 2)
	cfg.Reduce.TauPrime = 4
	cfg.Reduce.Tau = 4

	// Continuous reference: 8 iterations.
	ref := NewSession(cfg)
	ref.RunIterations(8, nil)

	// Checkpointed run: 4 iterations (a τ′ boundary), serialize through
	// bytes, restore into a fresh fast-forwarded session, continue.
	first := NewSession(cfg)
	first.RunIterations(4, nil)
	var buf bytes.Buffer
	if err := first.Checkpoint().Save(&buf); err != nil {
		t.Fatal(err)
	}
	ck, err := checkpoint.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	resumed := NewSession(cfg)
	resumed.SkipTo(4)
	if err := resumed.Restore(ck); err != nil {
		t.Fatal(err)
	}
	if resumed.iter != 4 {
		t.Fatalf("iteration after restore: %d", resumed.iter)
	}
	resumed.RunIterations(4, nil)

	pa, pb := ref.Trainers[0].W.Params(), resumed.Trainers[0].W.Params()
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("resumed trajectory diverged at param %d: %v vs %v", i, pb[i], pa[i])
		}
	}
}

// TestCheckpointResumeModeledTime: the checkpoint carries each rank's
// absolute modeled-clock state, so a resumed run reproduces not just
// the parameters but the per-iteration modeled times and the cumulative
// modeled clock bit-for-bit. (Clock restoration is what makes job-level
// recovery indistinguishable from an unfailed run — modeled time is an
// output of this simulator, not a side channel.)
func TestCheckpointResumeModeledTime(t *testing.T) {
	cfg := quickCfg("VGG", "OkTopk", 2)
	cfg.Reduce.TauPrime = 4
	cfg.Reduce.Tau = 4

	// Continuous reference: 8 iterations, per-iteration modeled times.
	ref := NewSession(cfg)
	var refIters []float64
	refElapsed := 0.0
	for i := 0; i < 8; i++ {
		st := ref.RunIteration()
		refIters = append(refIters, st.IterSeconds)
		refElapsed += st.IterSeconds
	}

	// Checkpointed run: 4 iterations, gather (inproc fast path), restore
	// into a fresh session, continue.
	first := NewSession(cfg)
	elapsed := 0.0
	for i := 0; i < 4; i++ {
		elapsed += first.RunIteration().IterSeconds
	}
	ck, err := first.GatherCheckpoint(elapsed)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(ck.SimSeconds) != math.Float64bits(elapsed) {
		t.Fatalf("checkpoint SimSeconds %v, want %v", ck.SimSeconds, elapsed)
	}
	for r, rs := range ck.Ranks {
		if rs.Clock.Time == 0 && rs.Clock.SentMsgs == 0 {
			t.Fatalf("rank %d clock state not captured", r)
		}
	}

	resumed := NewSession(cfg)
	resumed.SkipTo(4)
	if err := resumed.Restore(ck); err != nil {
		t.Fatal(err)
	}
	total := ck.SimSeconds
	for i := 4; i < 8; i++ {
		st := resumed.RunIteration()
		if math.Float64bits(st.IterSeconds) != math.Float64bits(refIters[i]) {
			t.Errorf("iter %d modeled time: resumed %v, continuous %v", i+1, st.IterSeconds, refIters[i])
		}
		total += st.IterSeconds
	}
	if math.Float64bits(total) != math.Float64bits(refElapsed) {
		t.Errorf("cumulative modeled time: resumed %v (%016x), continuous %v (%016x)",
			total, math.Float64bits(total), refElapsed, math.Float64bits(refElapsed))
	}
}

// TestCheckpointResumeAdam repeats the invariant with stateful Adam.
func TestCheckpointResumeAdam(t *testing.T) {
	cfg := quickCfg("BERT", "OkTopk", 2)
	cfg.Adam = true
	cfg.LR = 1e-3
	cfg.Reduce.TauPrime = 4
	cfg.Reduce.Tau = 4

	ref := NewSession(cfg)
	ref.RunIterations(6, nil)

	first := NewSession(cfg)
	first.RunIterations(4, nil)
	ck := first.Checkpoint()
	if ck.Ranks[0].AdamM == nil {
		t.Fatal("Adam moments not captured")
	}
	resumed := NewSession(cfg)
	resumed.SkipTo(4)
	if err := resumed.Restore(ck); err != nil {
		t.Fatal(err)
	}
	resumed.RunIterations(2, nil)

	pa, pb := ref.Trainers[0].W.Params(), resumed.Trainers[0].W.Params()
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("Adam resume diverged at %d", i)
		}
	}
}

// TestRestoreRejectsMismatch: shape and metadata guards.
func TestRestoreRejectsMismatch(t *testing.T) {
	s := NewSession(quickCfg("VGG", "OkTopk", 2))
	ck := s.Checkpoint()

	other := NewSession(quickCfg("VGG", "Dense", 2))
	if err := other.Restore(ck); err == nil {
		t.Fatal("algorithm mismatch accepted")
	}
	bigger := NewSession(quickCfg("VGG", "OkTopk", 4))
	if err := bigger.Restore(ck); err == nil {
		t.Fatal("rank-count mismatch accepted")
	}
	lstm := NewSession(quickCfg("LSTM", "OkTopk", 2))
	if err := lstm.Restore(ck); err == nil {
		t.Fatal("workload mismatch accepted")
	}
}
