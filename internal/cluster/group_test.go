package cluster

import (
	"testing"

	"repro/internal/trace"
)

// TestGroupRankTranslation: sends within a group reach the right world
// ranks with translated group ranks.
func TestGroupRankTranslation(t *testing.T) {
	c := New(6, params())
	// Two groups: even ranks {0,2,4} and odd ranks {1,3,5}, each running
	// a ring exchange concurrently in separate tag spaces.
	err := c.Run(func(cm *Comm) error {
		var ranks []int
		space := cm.Rank() % 2
		for r := space; r < 6; r += 2 {
			ranks = append(ranks, r)
		}
		g := NewGroup(cm, ranks, space)
		if g.Size() != 3 {
			t.Errorf("group size %d", g.Size())
		}
		next := (g.Rank() + 1) % g.Size()
		prev := (g.Rank() - 1 + g.Size()) % g.Size()
		g.Send(next, 5, []float64{float64(cm.Rank())}, 1)
		got := g.RecvFloat64(prev, 5)
		wantWorld := g.ranks[prev]
		if got[0] != float64(wantWorld) {
			t.Errorf("rank %d: got %v want %v", cm.Rank(), got[0], wantWorld)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGroupBarrier synchronizes only the group.
func TestGroupBarrier(t *testing.T) {
	c := New(4, params())
	times := make([]float64, 4)
	err := c.Run(func(cm *Comm) error {
		if cm.Rank() >= 2 {
			return nil // not in the group; must not be required
		}
		g := NewGroup(cm, []int{0, 1}, 0)
		cm.Clock().Sleep(float64(cm.Rank()+1) * 1e-3)
		g.Barrier()
		times[cm.Rank()] = cm.Clock().Now()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// After the dissemination barrier both members have passed the
	// slowest arrival.
	if times[0] < 2e-3 || times[1] < 2e-3 {
		t.Fatalf("barrier did not wait for slowest member: %v", times[:2])
	}
}

// TestGroupNonMemberPanics: constructing a group without the caller is a
// programming error.
func TestGroupNonMemberPanics(t *testing.T) {
	c := New(3, params())
	cm := c.Comm(0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGroup(cm, []int{1, 2}, 0)
}

// TestGroupCollectives: the dense collectives run unchanged over a
// sub-communicator (the property the hybrid extension relies on).
func TestGroupSingleton(t *testing.T) {
	c := New(2, params())
	err := c.Run(func(cm *Comm) error {
		g := NewGroup(cm, []int{cm.Rank()}, cm.Rank())
		g.Barrier() // singleton barrier is a no-op
		if g.Size() != 1 || g.Rank() != 0 {
			t.Errorf("singleton group misconfigured")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecorderCapturesTraffic: an attached trace recorder sees both
// endpoints of every message.
func TestRecorderCapturesTraffic(t *testing.T) {
	c := New(2, params())
	rec := trace.NewRecorder()
	c.SetRecorder(rec)
	err := c.Run(func(cm *Comm) error {
		if cm.Rank() == 0 {
			cm.Send(1, 3, []float64{1}, 5)
		} else {
			cm.Recv(0, 3)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() != 2 {
		t.Fatalf("recorded %d events, want 2", rec.Len())
	}
	loads := rec.Summarize(2)
	if loads[0].SentWords != 5 || loads[1].RecvWords != 5 {
		t.Fatalf("loads %+v", loads)
	}
	c.SetRecorder(nil) // disabling must not break sends
	_ = c.Run(func(cm *Comm) error {
		if cm.Rank() == 0 {
			cm.Send(1, 4, nil, 1)
		} else {
			cm.Recv(0, 4)
		}
		return nil
	})
	if rec.Len() != 2 {
		t.Fatal("recorder captured after detach")
	}
}
