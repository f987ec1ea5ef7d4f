package cluster

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netmodel"
)

func params() netmodel.Params { return netmodel.Params{Alpha: 1e-6, Beta: 1e-9} }

func TestPingPong(t *testing.T) {
	c := New(2, params())
	err := c.Run(func(cm *Comm) error {
		if cm.Rank() == 0 {
			cm.Send(1, 7, []float64{1, 2, 3}, 3)
			got := cm.RecvFloat64(1, 8)
			if len(got) != 1 || got[0] != 42 {
				t.Errorf("rank 0 got %v", got)
			}
		} else {
			got := cm.RecvFloat64(0, 7)
			if len(got) != 3 || got[2] != 3 {
				t.Errorf("rank 1 got %v", got)
			}
			cm.Send(0, 8, []float64{42}, 1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagMatching(t *testing.T) {
	// Messages with distinct tags are matched by tag even when they
	// arrive out of request order.
	c := New(2, params())
	err := c.Run(func(cm *Comm) error {
		if cm.Rank() == 0 {
			cm.Send(1, 1, []float64{1}, 1)
			cm.Send(1, 2, []float64{2}, 1)
		} else {
			// Receive tag 2 first.
			b := cm.RecvFloat64(0, 2)
			a := cm.RecvFloat64(0, 1)
			if b[0] != 2 || a[0] != 1 {
				t.Errorf("tag matching broken: %v %v", a, b)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNonOvertakingSameTag(t *testing.T) {
	// Two messages on the same (src,dst,tag) stream must be received in
	// send order.
	c := New(2, params())
	err := c.Run(func(cm *Comm) error {
		if cm.Rank() == 0 {
			cm.Send(1, 5, []float64{1}, 1)
			cm.Send(1, 5, []float64{2}, 1)
		} else {
			first := cm.RecvFloat64(0, 5)
			second := cm.RecvFloat64(0, 5)
			if first[0] != 1 || second[0] != 2 {
				t.Errorf("overtaking: %v %v", first, second)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPerStreamMatchingNonOvertaking is the regression test for the
// keyed-mailbox design: many interleaved (src, tag) streams into one
// rank must each preserve send order, even when the receiver drains them
// in an adversarial order (streams round-robined, tags descending) and
// senders interleave their streams' messages arbitrarily.
func TestPerStreamMatchingNonOvertaking(t *testing.T) {
	const p = 4
	const tags = 5
	const perStream = 30
	c := New(p, params())
	err := c.Run(func(cm *Comm) error {
		if cm.Rank() == 0 {
			// Drain every (src, tag) stream one message at a time, in
			// descending tag order, checking sequence numbers.
			for m := 0; m < perStream; m++ {
				for tag := tags - 1; tag >= 0; tag-- {
					for src := 1; src < p; src++ {
						got := cm.RecvFloat64(src, tag)
						want := float64(src*1_000_000 + tag*1_000 + m)
						if got[0] != want {
							t.Errorf("stream (src=%d, tag=%d) overtaken: got %v want %v",
								src, tag, got[0], want)
						}
					}
				}
			}
			return nil
		}
		// Senders interleave their streams: message m of every tag before
		// message m+1 of any tag, rotating the tag order per sender so
		// arrival interleavings differ across sources.
		for m := 0; m < perStream; m++ {
			for i := 0; i < tags; i++ {
				tag := (i + cm.Rank()) % tags
				cm.Send(0, tag, []float64{float64(cm.Rank()*1_000_000 + tag*1_000 + m)}, 1)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMailboxQueueRecycles: a drained stream resets its ring so a
// long-lived (src, tag) pair does not grow its queue without bound.
func TestMailboxQueueRecycles(t *testing.T) {
	m := newMailbox()
	for i := 0; i < 1000; i++ {
		m.put(&Message{Src: 1, Tag: 2, Data: i})
		msg, err := m.take(1, 2, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		if msg.Data.(int) != i {
			t.Fatalf("wrong message %v at %d", msg.Data, i)
		}
	}
	q := m.queues[RecvKey{1, 2}]
	if q == nil {
		t.Fatal("queue missing")
	}
	if len(q.msgs) != 0 || q.head != 0 {
		t.Errorf("drained queue not recycled: len=%d head=%d", len(q.msgs), q.head)
	}
	if cap(q.msgs) > 16 {
		t.Errorf("drained queue retains %d slots", cap(q.msgs))
	}
}

// TestFreelistBestFitAlternatingSizes: a rank whose requests alternate
// between sizes (variable chunk sizes in flight at once) reaches zero
// allocations. A LIFO pool that drops an undersized top buffer would
// discard the small one whenever the large one is requested next, and
// allocate on every get.
func TestFreelistBestFitAlternatingSizes(t *testing.T) {
	var f freelist[float64]
	sizes := []int{40, 900, 7, 300}
	bufs := make([][]float64, len(sizes))
	round := func() {
		for i, n := range sizes {
			if bufs[i] = f.get(n); len(bufs[i]) != n {
				t.Fatalf("get(%d) returned length %d", n, len(bufs[i]))
			}
		}
		// Release in an order unrelated to the requests, as receivers do.
		for _, i := range []int{3, 1, 2, 0} {
			f.put(bufs[i])
		}
	}
	round()
	if got := testing.AllocsPerRun(50, round); got != 0 {
		t.Fatalf("alternating request sizes allocate %.1f times per round, want 0", got)
	}
	if len(f.free) != len(sizes) {
		t.Fatalf("pool holds %d buffers, want %d", len(f.free), len(sizes))
	}
	// Best fit: a request takes the smallest buffer that fits.
	if b := f.get(8); cap(b) != 40 {
		t.Fatalf("get(8) took a buffer of capacity %d, want the 40 one", cap(b))
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	c := New(4, params())
	times := make([]float64, 4)
	err := c.Run(func(cm *Comm) error {
		cm.Clock().Sleep(float64(cm.Rank()) * 1e-3)
		cm.Barrier()
		times[cm.Rank()] = cm.Clock().Now()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < 4; r++ {
		if times[r] != times[0] {
			t.Fatalf("barrier left clocks diverged: %v", times)
		}
	}
	if times[0] <= 3e-3 {
		t.Fatalf("barrier time %v must exceed slowest arrival", times[0])
	}
}

func TestRunPropagatesError(t *testing.T) {
	c := New(3, params())
	sentinel := errors.New("worker failed")
	err := c.Run(func(cm *Comm) error {
		if cm.Rank() == 1 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v", err)
	}
}

func TestRunPropagatesPanicWithRank(t *testing.T) {
	c := New(2, params())
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("expected panic")
		}
		if !strings.Contains(p.(string), "rank 1") {
			t.Fatalf("panic lacks rank attribution: %v", p)
		}
	}()
	_ = c.Run(func(cm *Comm) error {
		if cm.Rank() == 1 {
			panic("boom")
		}
		return nil
	})
}

func TestSelfSendPanics(t *testing.T) {
	c := New(2, params())
	cm := c.Comm(0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	cm.Send(0, 1, nil, 0)
}

func TestCommRankOutOfRangePanics(t *testing.T) {
	c := New(2, params())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Comm(5)
}

func TestManyConcurrentMessages(t *testing.T) {
	// Stress mailbox matching under contention: every pair exchanges
	// many tagged messages.
	const p = 8
	const msgs = 50
	c := New(p, params())
	var total atomic.Int64
	err := c.Run(func(cm *Comm) error {
		for m := 0; m < msgs; m++ {
			for dst := 0; dst < p; dst++ {
				if dst != cm.Rank() {
					cm.Send(dst, 100+m, []float64{float64(cm.Rank()*1000 + m)}, 1)
				}
			}
		}
		for m := 0; m < msgs; m++ {
			for src := 0; src < p; src++ {
				if src != cm.Rank() {
					got := cm.RecvFloat64(src, 100+m)
					if got[0] != float64(src*1000+m) {
						t.Errorf("rank %d: bad payload from %d tag %d: %v", cm.Rank(), src, m, got)
					}
					total.Add(1)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total.Load() != int64(p*(p-1)*msgs) {
		t.Fatalf("received %d messages", total.Load())
	}
}

func TestStatsAndReset(t *testing.T) {
	c := New(2, params())
	err := c.Run(func(cm *Comm) error {
		if cm.Rank() == 0 {
			cm.Send(1, 1, []float64{1, 2}, 2)
		} else {
			cm.Recv(0, 1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st[0].SentWords != 2 || st[1].RecvWords != 2 {
		t.Fatalf("stats %+v", st)
	}
	c.ResetClocks()
	st = c.Stats()
	if st[0].SentWords != 0 {
		t.Fatal("reset failed")
	}
}

func TestZeroSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0, params())
}
