package netmodel

import (
	"math"
	"testing"
)

func approxEq(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

// TestOverlapCommHidden: communication that finishes strictly under the
// compute track costs no wall time and leaves PhaseComm untouched.
func TestOverlapCommHidden(t *testing.T) {
	c := NewRankClock(Params{Alpha: 1e-6, Beta: 1e-9, Gamma: 1e-12}, 0)
	c.SetPhase(PhaseCompute)
	c.Sleep(1)
	c.BeginOverlap()
	c.OverlapSleep(0.5) // backward burns half a second
	c.OverlapReady()
	// A short transfer on the comm track, fully under the remaining
	// compute: send 1000 words, receive 1000 words.
	depart := c.StampSendTo(1, 1000)
	c.StampRecvFrom(1, depart, 1000)
	c.OverlapSleep(0.5)
	c.EndOverlap()
	s := c.Snapshot()
	if !approxEq(s.Time, 2) {
		t.Fatalf("time %v, want 2 (comm fully hidden)", s.Time)
	}
	if s.PhaseTime[PhaseComm] != 0 {
		t.Fatalf("exposed comm %v, want 0", s.PhaseTime[PhaseComm])
	}
	if !approxEq(s.PhaseTime[PhaseCompute], 2) {
		t.Fatalf("compute %v, want 2", s.PhaseTime[PhaseCompute])
	}
}

// TestOverlapExposedRemainder: communication that outlives the compute
// track charges exactly the remainder to PhaseComm.
func TestOverlapExposedRemainder(t *testing.T) {
	beta := 1e-3
	c := NewRankClock(Params{Alpha: 0, Beta: beta, Gamma: 1e-12}, 0)
	c.SetPhase(PhaseCompute)
	c.BeginOverlap()
	c.OverlapSleep(0.1)
	c.OverlapReady()
	depart := c.StampSendTo(1, 1000) // departs at 0.1
	c.StampRecvFrom(1, depart, 1000) // delivered at 0.1 + 1.0
	c.OverlapSleep(0.1)              // compute track ends at 0.2
	c.EndOverlap()
	s := c.Snapshot()
	wantEnd := 0.1 + float64(1000)*beta
	if !approxEq(s.Time, wantEnd) {
		t.Fatalf("time %v, want %v", s.Time, wantEnd)
	}
	if !approxEq(s.PhaseTime[PhaseCompute], 0.2) {
		t.Fatalf("compute %v, want 0.2", s.PhaseTime[PhaseCompute])
	}
	if !approxEq(s.PhaseTime[PhaseComm], wantEnd-0.2) {
		t.Fatalf("exposed comm %v, want %v", s.PhaseTime[PhaseComm], wantEnd-0.2)
	}
}

// TestOverlapReadyPinsCommTrack: communication issued mid-window cannot
// depart before the compute track produced its input.
func TestOverlapReadyPinsCommTrack(t *testing.T) {
	c := NewRankClock(Params{Alpha: 0, Beta: 1e-9, Gamma: 1e-12}, 0)
	c.BeginOverlap()
	c.OverlapSleep(0.25)
	c.OverlapReady()
	if depart := c.StampSendTo(1, 1); depart < 0.25 {
		t.Fatalf("message departed at %v, before its data existed (0.25)", depart)
	}
	c.EndOverlap()
}

// TestOverlapWindowConsistency: after EndOverlap the phase times sum to
// the clock's wall time (the accounting identity every breakdown figure
// relies on), whichever track finished last.
func TestOverlapWindowConsistency(t *testing.T) {
	for _, commWords := range []int{10, 100000000} {
		c := NewRankClock(Params{Alpha: 1e-6, Beta: 1e-9, Gamma: 1e-12}, 0)
		c.SetPhase(PhaseCompute)
		c.Sleep(0.3)
		c.BeginOverlap()
		c.OverlapSleep(0.05)
		c.OverlapReady()
		depart := c.StampSendTo(1, commWords)
		c.StampRecvFrom(1, depart, commWords)
		c.OverlapSleep(0.05)
		c.EndOverlap()
		s := c.Snapshot()
		sum := s.PhaseTime[0] + s.PhaseTime[1] + s.PhaseTime[2]
		if !approxEq(sum, s.Time) {
			t.Fatalf("words=%d: phase sum %v != wall time %v", commWords, sum, s.Time)
		}
		if c.inOverlap {
			t.Fatal("window still open")
		}
	}
}

// TestOverlapWindowConsistencyStraggler: the phase-sum identity must
// survive straggler/jitter injection — the noise stretches the compute
// track (shrinking the window communication can hide under) but every
// stretched second still lands in exactly one phase bucket.
func TestOverlapWindowConsistencyStraggler(t *testing.T) {
	topo := Topology{StragglerFrac: 1, StragglerSlow: 3, Jitter: 0.25, Seed: 17}
	for _, commWords := range []int{10, 100000000} {
		p := Params{Alpha: 1e-6, Beta: 1e-9, Gamma: 1e-12, Topo: topo}
		c := NewRankClock(p, 3)
		c.SetStep(2)
		c.SetPhase(PhaseCompute)
		c.Sleep(0.3)
		c.BeginOverlap()
		c.OverlapSleep(0.05)
		c.OverlapReady()
		depart := c.StampSendTo(1, commWords)
		c.StampRecvFrom(1, depart, commWords)
		c.OverlapSleep(0.05)
		c.EndOverlap()
		s := c.Snapshot()
		sum := s.PhaseTime[0] + s.PhaseTime[1] + s.PhaseTime[2]
		if !approxEq(sum, s.Time) {
			t.Fatalf("words=%d: phase sum %v != wall time %v", commWords, sum, s.Time)
		}
		// The straggler actually slowed the run: 0.4 s of nominal local
		// work must stretch by at least StragglerSlow on a full-injection
		// topology.
		if s.PhaseTime[PhaseCompute] < 0.4*topo.StragglerSlow {
			t.Fatalf("straggler compute %v, want ≥ %v", s.PhaseTime[PhaseCompute], 0.4*topo.StragglerSlow)
		}
	}
}

// TestOverlapMisusePanics: the window API refuses nesting and orphan
// calls.
func TestOverlapMisusePanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	c := NewRankClock(PizDaint(), 0)
	expectPanic("EndOverlap", func() { c.EndOverlap() })
	expectPanic("OverlapSleep", func() { c.OverlapSleep(1) })
	expectPanic("OverlapReady", func() { c.OverlapReady() })
	c.BeginOverlap()
	expectPanic("BeginOverlap nested", func() { c.BeginOverlap() })
}
