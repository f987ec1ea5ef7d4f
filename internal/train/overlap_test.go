package train

import (
	"math"
	"testing"

	"repro/internal/allreduce"
	"repro/internal/netmodel"
)

// overlapSession runs iters iterations of a DenseOvlp session and
// returns the last iteration's stats.
func overlapSession(t *testing.T, workload string, p, buckets int) IterStats {
	t.Helper()
	cfg := quickCfg(workload, "DenseOvlp", p)
	cfg.Adam = workload == "BERT"
	cfg.Reduce.DenseBuckets = buckets
	s := NewSession(cfg)
	var last IterStats
	s.RunIterations(3, func(st IterStats) { last = st })
	return last
}

// TestOverlapScheduleSumMatchesMonolithic: the per-layer backward
// schedule must charge exactly the workload's modeled compute time —
// the simulated pipeline reshapes communication, never compute. Every
// workload's DenseOvlp PhaseCompute matches Dense's to float precision.
func TestOverlapScheduleSumMatchesMonolithic(t *testing.T) {
	for _, wl := range []string{"VGG", "LSTM", "BERT"} {
		t.Run(wl, func(t *testing.T) {
			ovlp := overlapSession(t, wl, 4, 0)
			cfg := quickCfg(wl, "Dense", 4)
			cfg.Adam = wl == "BERT"
			s := NewSession(cfg)
			var dense IterStats
			s.RunIterations(3, func(st IterStats) { dense = st })
			dc, oc := dense.Phase[netmodel.PhaseCompute], ovlp.Phase[netmodel.PhaseCompute]
			if math.Abs(dc-oc) > 1e-9*dc {
				t.Fatalf("compute %v (pipelined) != %v (monolithic)", oc, dc)
			}
			want := s.Trainers[0].W.ComputeSeconds(cfg.Batch)
			if math.Abs(oc-want) > 1e-9*want {
				t.Fatalf("compute %v != modeled ComputeSeconds %v", oc, want)
			}
		})
	}
}

// TestOverlapPhaseSumIsWallTime: with the overlap engine the phase
// breakdown must still sum to the iteration's wall time.
func TestOverlapPhaseSumIsWallTime(t *testing.T) {
	st := overlapSession(t, "VGG", 4, 0)
	sum := st.Phase[0] + st.Phase[1] + st.Phase[2]
	if math.Abs(sum-st.IterSeconds) > 1e-12 {
		t.Fatalf("phase sum %v != iteration seconds %v", sum, st.IterSeconds)
	}
}

// TestBucketIssueOrdering: the overlap plan issues every bucket exactly
// once, in strictly descending index order (backward produces the tail
// of the flat vector first), finishing only when the schedule's last
// entry — the model's first layer — retires bucket 0.
func TestBucketIssueOrdering(t *testing.T) {
	for _, wl := range []string{"VGG", "LSTM", "BERT"} {
		t.Run(wl, func(t *testing.T) {
			w := NewWorkload(wl, 1, 2)
			ov := allreduce.NewDenseOvlp(allreduce.Config{})
			plan := buildOverlapPlan(w.BackwardSchedule(), w.N(), ov)
			if len(plan.entries) != len(w.BackwardSchedule()) {
				t.Fatalf("%d plan entries for %d schedule entries",
					len(plan.entries), len(w.BackwardSchedule()))
			}
			var issued []int
			var fracSum float64
			for _, e := range plan.entries {
				fracSum += e.frac
				issued = append(issued, e.buckets...)
			}
			nb := ov.Buckets(w.N())
			if len(issued) != nb {
				t.Fatalf("issued %d buckets, want %d", len(issued), nb)
			}
			for i, b := range issued {
				if b != nb-1-i {
					t.Fatalf("issue order %v not descending from %d", issued, nb-1)
				}
			}
			last := plan.entries[len(plan.entries)-1]
			if len(last.buckets) == 0 || last.buckets[len(last.buckets)-1] != 0 {
				t.Fatalf("bucket 0 not retired by the final schedule entry (%v)", last.buckets)
			}
			if math.Abs(fracSum-1) > 1e-12 {
				t.Fatalf("schedule fractions sum to %v", fracSum)
			}
		})
	}
}

// TestExposedCommMonotoneInBuckets: more pipeline buckets never expose
// more communication, up to the per-bucket latency overhead (a few α
// per added bucket — bounded here by 1 ms), and a real pipeline beats
// the 1-bucket degenerate case outright on every workload.
func TestExposedCommMonotoneInBuckets(t *testing.T) {
	const latencyTol = 1e-3
	for _, wl := range []string{"VGG", "LSTM", "BERT"} {
		t.Run(wl, func(t *testing.T) {
			var exposed []float64
			for _, nb := range []int{1, 2, 4, 8} {
				st := overlapSession(t, wl, 4, nb)
				exposed = append(exposed, st.Phase[netmodel.PhaseComm])
			}
			for i := 1; i < len(exposed); i++ {
				if exposed[i] > exposed[i-1]+latencyTol {
					t.Fatalf("exposed comm grew with buckets: %v", exposed)
				}
			}
			if exposed[3] >= exposed[0] {
				t.Fatalf("8-bucket pipeline hides nothing: %v", exposed)
			}
		})
	}
}

// algorithmOnly hides everything but allreduce.Algorithm, the way an
// outside-in tracing wrapper does: the trainer cannot see Overlapped
// behind it.
type algorithmOnly struct{ allreduce.Algorithm }

// notOverlapping additionally denies OverlapsBackward.
type notOverlapping struct{ allreduce.Algorithm }

func (notOverlapping) OverlapsBackward() bool { return false }

// TestHiddenOverlappedChargedInFull: a DenseOvlp the trainer cannot
// drive bucket by bucket runs its monolithic Reduce after the whole
// backward pass, and its communication is charged in full — the same
// phases, to the bit, as an algorithm that claims no overlap at all,
// and more exposed communication than the pipeline leaves.
func TestHiddenOverlappedChargedInFull(t *testing.T) {
	run := func(wrap func(allreduce.Algorithm) allreduce.Algorithm) IterStats {
		s := NewSession(quickCfg("VGG", "DenseOvlp", 4))
		for _, tr := range s.Trainers {
			tr.Algo = wrap(tr.Algo)
		}
		var last IterStats
		s.RunIterations(3, func(st IterStats) { last = st })
		return last
	}
	hidden := run(func(a allreduce.Algorithm) allreduce.Algorithm { return algorithmOnly{a} })
	mono := run(func(a allreduce.Algorithm) allreduce.Algorithm { return notOverlapping{a} })
	for ph := range hidden.Phase {
		if math.Float64bits(hidden.Phase[ph]) != math.Float64bits(mono.Phase[ph]) {
			t.Fatalf("phase %d: hidden DenseOvlp %v, monolithic reduction %v", ph, hidden.Phase[ph], mono.Phase[ph])
		}
	}
	piped := overlapSession(t, "VGG", 4, 0)
	if hidden.Phase[netmodel.PhaseComm] <= piped.Phase[netmodel.PhaseComm] {
		t.Fatalf("monolithic comm %v not above the pipeline's exposed %v",
			hidden.Phase[netmodel.PhaseComm], piped.Phase[netmodel.PhaseComm])
	}
}
