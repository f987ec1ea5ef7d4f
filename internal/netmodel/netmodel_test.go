package netmodel

import (
	"math"
	"testing"
)

func TestSingleMessageCost(t *testing.T) {
	p := Params{Alpha: 1e-6, Beta: 1e-9, Gamma: 1e-12}
	snd := NewClock(p)
	rcv := NewClock(p)
	depart := snd.StampSendTo(1, 1000)
	if depart != 0 {
		t.Fatalf("departure %v want 0", depart)
	}
	rcv.StampRecvFrom(0, depart, 1000)
	want := 1e-6 + 1000e-9
	if math.Abs(rcv.Now()-want) > 1e-18 {
		t.Fatalf("delivery at %v want %v (α+βL)", rcv.Now(), want)
	}
}

func TestSenderNICSerializesInjection(t *testing.T) {
	p := Params{Alpha: 1e-6, Beta: 1e-9}
	snd := NewClock(p)
	d1 := snd.StampSendTo(1, 1000)
	d2 := snd.StampSendTo(1, 1000)
	if math.Abs((d2-d1)-1000e-9) > 1e-18 {
		t.Fatalf("second departure gap %v want βL", d2-d1)
	}
	// CPU advanced only to the injection point of the second message.
	if snd.Now() != d2 {
		t.Fatalf("cpu %v want %v", snd.Now(), d2)
	}
	snd.DrainSends()
	if snd.Now() != d2+1000e-9 {
		t.Fatalf("drain %v", snd.Now())
	}
}

func TestEndpointCongestion(t *testing.T) {
	// P−1 messages arriving at one rank at the same time serialize on
	// its receive NIC: last delivery ≈ α + (P−1)βL.
	p := Params{Alpha: 1e-6, Beta: 1e-9}
	rcv := NewClock(p)
	const L, senders = 500, 7
	for s := 0; s < senders; s++ {
		rcv.StampRecvFrom(s+1, 0, L)
	}
	want := 1e-6 + senders*L*1e-9
	if math.Abs(rcv.Now()-want) > 1e-15 {
		t.Fatalf("congested delivery %v want %v", rcv.Now(), want)
	}
}

func TestComputeAndPhases(t *testing.T) {
	c := NewClock(Params{Gamma: 1e-9})
	c.SetPhase(PhaseCompute)
	c.Compute(1000)
	c.SetPhase(PhaseSparsify)
	c.Compute(500)
	c.SetPhase(PhaseComm)
	c.Sleep(1e-6)
	s := c.Snapshot()
	if math.Abs(s.PhaseTime[PhaseCompute]-1e-6) > 1e-18 {
		t.Fatalf("compute phase %v", s.PhaseTime[PhaseCompute])
	}
	if math.Abs(s.PhaseTime[PhaseSparsify]-0.5e-6) > 1e-18 {
		t.Fatalf("sparsify phase %v", s.PhaseTime[PhaseSparsify])
	}
	if math.Abs(s.PhaseTime[PhaseComm]-1e-6) > 1e-18 {
		t.Fatalf("comm phase %v", s.PhaseTime[PhaseComm])
	}
	if math.Abs(s.Time-2.5e-6) > 1e-18 {
		t.Fatalf("total %v", s.Time)
	}
}

func TestAdvanceToNeverRewinds(t *testing.T) {
	c := NewClock(Params{})
	c.Sleep(5)
	c.AdvanceTo(3)
	if c.Now() != 5 {
		t.Fatalf("AdvanceTo rewound the clock: %v", c.Now())
	}
}

func TestCounters(t *testing.T) {
	c := NewClock(Params{Beta: 1e-9})
	c.StampSendTo(1, 100)
	c.StampSendTo(2, 50)
	c.StampRecvFrom(1, 0, 30)
	s := c.Snapshot()
	if s.SentWords != 150 || s.SentMsgs != 2 || s.RecvWords != 30 || s.RecvMsgs != 1 {
		t.Fatalf("counters %+v", s)
	}
	c.Reset()
	if c.Snapshot().SentWords != 0 || c.Now() != 0 {
		t.Fatal("reset")
	}
	if c.Params().Beta != 1e-9 {
		t.Fatal("reset must keep params")
	}
}

func TestNegativeArgsPanic(t *testing.T) {
	c := NewClock(Params{})
	for i, f := range []func(){
		func() { c.StampSendTo(1, -1) },
		func() { c.StampRecvFrom(1, 0, -1) },
		func() { c.Compute(-1) },
		func() { c.Sleep(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestAggregateStats(t *testing.T) {
	stats := []Stats{
		{Time: 2, PhaseTime: [3]float64{1, 0.5, 0.5}, SentWords: 100, SentMsgs: 3, RecvWords: 70},
		{Time: 4, PhaseTime: [3]float64{2, 1, 1}, SentWords: 300, SentMsgs: 5, RecvWords: 330},
	}
	a := AggregateStats(stats)
	if a.Makespan != 4 {
		t.Fatalf("makespan %v", a.Makespan)
	}
	if a.MeanPhase[0] != 1.5 || a.MaxPhase[0] != 2 {
		t.Fatalf("phase agg %+v", a)
	}
	if a.TotalSentWords != 400 || a.TotalMsgs != 8 {
		t.Fatalf("traffic agg %+v", a)
	}
	if a.MaxRankWords != 330 {
		t.Fatalf("max rank words %v", a.MaxRankWords)
	}
	if empty := AggregateStats(nil); empty.Makespan != 0 {
		t.Fatal("empty aggregate")
	}
}

func TestPresetParams(t *testing.T) {
	pd := PizDaint()
	cm := Commodity()
	if pd.Alpha >= cm.Alpha {
		t.Fatal("commodity latency must exceed Piz Daint")
	}
	if pd.Beta >= cm.Beta {
		t.Fatal("commodity bandwidth must be lower")
	}
	if PhaseCompute.String() != "computation" || PhaseComm.String() != "communication" ||
		PhaseSparsify.String() != "sparsification" {
		t.Fatal("phase names")
	}
	if Phase(9).String() == "" {
		t.Fatal("unknown phase string")
	}
}
