package train

import (
	"fmt"

	"repro/internal/checkpoint"
)

// Job describes one training run: the configuration its session is
// built from and the loop Session.Train runs on it. It is also the body
// of a multi-process train job, so it travels as JSON; Config's
// Transport/TCP fields are ignored on the wire — each worker fills its
// own.
type Job struct {
	Config Config
	// Iters is the number of training iterations.
	Iters int
	// EvalEvery prints a progress line every N iterations (0 = final
	// iteration only).
	EvalEvery int
	// Checkpoint, when set, makes the job checkpoint its full state to
	// this path: every CkptEvery iterations (all ranks gather, rank 0
	// writes atomically) and after the final iteration. This is what
	// job-level recovery restarts from.
	Checkpoint string `json:",omitempty"`
	// CkptEvery is the checkpoint cadence in iterations (0 = final only).
	CkptEvery int `json:",omitempty"`
	// Resume, when set, restores every rank from this checkpoint file
	// before training; the continuation is bit-identical to a run that
	// never stopped (loss, metric, and modeled clock).
	Resume string `json:",omitempty"`
}

// Summary is what Session.Train returns. Like RunIteration's aggregate,
// it is complete only in the process hosting rank 0, the only one that
// evaluates the metric.
type Summary struct {
	Last       IterStats // the final iteration's statistics
	SimSeconds float64   // modeled training time, a resumed run's earlier part included
	Metric     float64   // held-out metric after the last iteration
	MetricName string
}

// Train runs the training loop of job on the session, which must have
// been built from job.Config: resume from job.Resume (SkipTo, then
// Restore), the iterations up to job.Iters, a progress line on stdout
// every job.EvalEvery iterations and after the last one, and
// checkpoints to job.Checkpoint every job.CkptEvery iterations and at
// the end. Every process of a multi-process job calls it; only the one
// hosting rank 0 prints, evaluates and writes checkpoint files. before,
// if non-nil, runs ahead of each iteration with its number. A transport
// failure ends the run with its error.
func (s *Session) Train(job Job, before func(it int)) (Summary, error) {
	root := s.Trainers[0] != nil
	var sum Summary
	report := func(print bool) {
		sum.Metric, sum.MetricName = s.Evaluate(200), s.MetricName()
		if print {
			st := sum.Last
			fmt.Printf("iter %5d  modeled-time %8.2fs  loss %7.4f  %s %.4f  "+
				"[comp %.3fs spars %.3fs comm %.3fs]\n",
				st.Iter, sum.SimSeconds, st.Loss, sum.MetricName, sum.Metric,
				st.Phase[0], st.Phase[1], st.Phase[2])
		}
	}
	start := 1
	if job.Resume != "" {
		ck, err := checkpoint.LoadFile(job.Resume)
		if err != nil {
			return sum, fmt.Errorf("resume: %w", err)
		}
		// SkipTo first: the data RNG streams must be at the checkpoint
		// iteration before Restore pins the model/clock state.
		s.SkipTo(ck.Iteration)
		if err := s.Restore(ck); err != nil {
			return sum, fmt.Errorf("resume: %w", err)
		}
		start, sum.SimSeconds = ck.Iteration+1, ck.SimSeconds
		if root {
			fmt.Printf("resumed from %s at iter %d (modeled-time %8.2fs)\n",
				job.Resume, ck.Iteration, sum.SimSeconds)
		}
	}
	for it := start; it <= job.Iters; it++ {
		if before != nil {
			before(it)
		}
		st, err := s.runIteration()
		if err != nil {
			return sum, err
		}
		sum.Last = st
		sum.SimSeconds += st.IterSeconds
		if it == job.Iters {
			break // reported and checkpointed below
		}
		if root && job.EvalEvery > 0 && it%job.EvalEvery == 0 {
			report(true)
		}
		if job.CkptEvery > 0 && it%job.CkptEvery == 0 {
			if err := s.saveCheckpoint(job.Checkpoint, sum.SimSeconds); err != nil {
				return sum, err
			}
		}
	}
	if err := s.saveCheckpoint(job.Checkpoint, sum.SimSeconds); err != nil {
		return sum, err
	}
	if root {
		report(start <= job.Iters)
	}
	return sum, nil
}

// saveCheckpoint gathers the job's state and, in the process hosting
// rank 0, writes it to path atomically. Without a path it does nothing.
func (s *Session) saveCheckpoint(path string, simSeconds float64) error {
	if path == "" {
		return nil
	}
	ck, err := s.GatherCheckpoint(simSeconds)
	if err == nil && ck != nil {
		err = ck.SaveFile(path)
	}
	if err != nil {
		return fmt.Errorf("checkpoint at iter %d: %w", s.iter, err)
	}
	return nil
}
