package cluster

import (
	"errors"
	"testing"
	"time"
)

// queueFrame is the i-th frame of a test stream, told apart by its tag.
func queueFrame(i int) outFrame { return outFrame{msg: &Message{Tag: i}} }

// TestSendQueueFIFO: frames come out in push order, across any batching
// the consumer's pop pattern produces.
func TestSendQueueFIFO(t *testing.T) {
	q := newSendQueue(8)
	const n = 100
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			if err := q.push(queueFrame(i)); err != nil {
				t.Errorf("push %d: %v", i, err)
				return
			}
		}
		q.close()
	}()
	var got []int
	var batch []outFrame
	for {
		var ok bool
		batch, ok = q.pop(batch)
		if !ok {
			break
		}
		for _, f := range batch {
			got = append(got, f.msg.Tag)
		}
	}
	<-done
	if len(got) != n {
		t.Fatalf("popped %d frames, want %d", len(got), n)
	}
	for i, tag := range got {
		if tag != i {
			t.Fatalf("frame %d: got frame %d", i, tag)
		}
	}
}

// TestSendQueueBackpressure: push blocks at depth and resumes when the
// consumer drains.
func TestSendQueueBackpressure(t *testing.T) {
	q := newSendQueue(2)
	if err := q.push(queueFrame(0)); err != nil {
		t.Fatal(err)
	}
	if err := q.push(queueFrame(1)); err != nil {
		t.Fatal(err)
	}
	pushed := make(chan error, 1)
	go func() { pushed <- q.push(queueFrame(2)) }()
	select {
	case err := <-pushed:
		t.Fatalf("push past depth returned (%v) without a pop", err)
	case <-time.After(50 * time.Millisecond):
	}
	batch, ok := q.pop(nil)
	if !ok || len(batch) != 2 {
		t.Fatalf("pop: got %d frames ok=%v, want 2 true", len(batch), ok)
	}
	select {
	case err := <-pushed:
		if err != nil {
			t.Fatalf("unblocked push failed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("push still blocked after drain")
	}
}

// TestSendQueueFailWakesPush: poisoning the queue releases a blocked
// push with the poison error, and future pushes fail the same way.
func TestSendQueueFailWakesPush(t *testing.T) {
	q := newSendQueue(1)
	if err := q.push(queueFrame(0)); err != nil {
		t.Fatal(err)
	}
	pushed := make(chan error, 1)
	go func() { pushed <- q.push(queueFrame(1)) }()
	time.Sleep(20 * time.Millisecond) // let the push block
	boom := errors.New("boom")
	q.fail(boom)
	select {
	case err := <-pushed:
		if !errors.Is(err, boom) {
			t.Fatalf("blocked push: got %v, want %v", err, boom)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked push not woken by fail")
	}
	if err := q.push(queueFrame(2)); !errors.Is(err, boom) {
		t.Fatalf("push after fail: got %v, want %v", err, boom)
	}
	if _, ok := q.pop(nil); ok {
		t.Fatal("pop on a failed queue reported ok")
	}
}

// TestSendQueueCloseDrains: close lets the consumer drain what was
// queued, then pop reports done; pushes after close are rejected.
func TestSendQueueCloseDrains(t *testing.T) {
	q := newSendQueue(8)
	for i := 0; i < 3; i++ {
		if err := q.push(queueFrame(i)); err != nil {
			t.Fatal(err)
		}
	}
	q.close()
	if err := q.push(queueFrame(9)); !errors.Is(err, errQueueClosed) {
		t.Fatalf("push after close: got %v, want %v", err, errQueueClosed)
	}
	batch, ok := q.pop(nil)
	if !ok || len(batch) != 3 {
		t.Fatalf("drain pop: got %d frames ok=%v, want 3 true", len(batch), ok)
	}
	for i, f := range batch {
		if f.msg.Tag != i {
			t.Fatalf("drained frame %d: got frame %d", i, f.msg.Tag)
		}
	}
	if _, ok := q.pop(batch); ok {
		t.Fatal("pop after full drain of a closed queue reported ok")
	}
}
