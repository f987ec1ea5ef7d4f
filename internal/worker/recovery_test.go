package worker

// Job-level recovery: a rank killed mid-train must cost only a
// relaunch, not correctness. The recovered run restarts from the last
// checkpoint — parameters, residuals, optimizer state, and each rank's
// absolute modeled clock — so its loss, metric, and modeled time are
// bit-identical to a run that never failed.

import (
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/allreduce"
	"repro/internal/chaos"
	"repro/internal/train"
)

// recoveryConfig is the fig5 Table-1 shape with τ/τ′ chosen so the
// checkpoint cadence (4) falls on a boundary of both periods — the
// same precondition the PR 5 inproc resume machinery documents.
func recoveryConfig() train.Config {
	return train.Config{
		Workload: "VGG", Algorithm: "OkTopk", P: 4, Batch: 2, Seed: 42, LR: 0.03,
		Reduce: allreduce.Config{Density: 0.01, Tau: 4, TauPrime: 2},
	}
}

func TestTrainRecoveryBitIdentical(t *testing.T) {
	requireLoopback(t)
	cfg := recoveryConfig()
	const iters, ckptEvery = 8, 4
	dir := t.TempDir()

	// Baseline: the unfailed job, checkpointing on the same cadence so
	// the two runs execute the identical schedule.
	clean, err := Launch(Job{
		Kind: "train", Size: cfg.P, Timeout: 180 * time.Second,
		Train: &TrainJob{
			Config: cfg, Iters: iters,
			Checkpoint: filepath.Join(dir, "clean.ckpt"), CkptEvery: ckptEvery,
		},
	}, LaunchOptions{})
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	if clean.Train == nil {
		t.Fatal("clean run produced no report")
	}

	// Faulted: rank 1 dies at the top of step 6 (attempt 1 only). The
	// restart policy must relaunch once, resume from the step-4
	// checkpoint, and land on the same bits.
	out, err := LaunchWithRecovery(Job{
		Kind: "train", Size: cfg.P, Timeout: 180 * time.Second,
		Chaos: &chaos.Plan{Faults: []chaos.Fault{{Kind: chaos.Kill, Rank: 1, Step: 6}}},
		Train: &TrainJob{
			Config: cfg, Iters: iters,
			Checkpoint: filepath.Join(dir, "faulted.ckpt"), CkptEvery: ckptEvery,
		},
	}, LaunchOptions{}, RestartPolicy{MaxAttempts: 3, Backoff: 100 * time.Millisecond})
	if err != nil {
		t.Fatalf("recovery run: %v", err)
	}
	if out.Attempts != 2 {
		t.Errorf("recovered in %d attempts, want 2 (one failure, one relaunch)", out.Attempts)
	}
	if out.Train == nil {
		t.Fatal("recovered run produced no report")
	}
	if got, want := math.Float64bits(out.Train.SimSeconds), math.Float64bits(clean.Train.SimSeconds); got != want {
		t.Errorf("modeled time diverges: recovered %v (%016x) vs clean %v (%016x)",
			out.Train.SimSeconds, got, clean.Train.SimSeconds, want)
	}
	if math.Float64bits(out.Train.Loss) != math.Float64bits(clean.Train.Loss) {
		t.Errorf("final loss diverges: recovered %v vs clean %v", out.Train.Loss, clean.Train.Loss)
	}
	if math.Float64bits(out.Train.Metric) != math.Float64bits(clean.Train.Metric) {
		t.Errorf("held-out metric diverges: recovered %v vs clean %v", out.Train.Metric, clean.Train.Metric)
	}
}

// TestTrainRecoveryExhaustsAttempts: a fault that re-fires on every
// attempt must make the policy give up cleanly after MaxAttempts, with
// the underlying failure preserved in the error.
func TestTrainRecoveryExhaustsAttempts(t *testing.T) {
	requireLoopback(t)
	cfg := recoveryConfig()
	dir := t.TempDir()
	_, err := LaunchWithRecovery(Job{
		Kind: "train", Size: cfg.P, Timeout: 120 * time.Second,
		Chaos: &chaos.Plan{Faults: []chaos.Fault{
			{Kind: chaos.Kill, Rank: 1, Step: 2, EveryAttempt: true},
		}},
		Train: &TrainJob{
			Config: cfg, Iters: 4,
			Checkpoint: filepath.Join(dir, "doomed.ckpt"), CkptEvery: 1,
		},
	}, LaunchOptions{}, RestartPolicy{MaxAttempts: 2, Backoff: 50 * time.Millisecond})
	if err == nil {
		t.Fatal("a fault firing every attempt still succeeded")
	}
	if !strings.Contains(err.Error(), "after 2 attempt") {
		t.Errorf("error does not report the attempt count: %v", err)
	}
	if !strings.Contains(err.Error(), "rank 1") {
		t.Errorf("error does not name the failing rank: %v", err)
	}
}
