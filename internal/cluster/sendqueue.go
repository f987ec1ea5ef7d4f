package cluster

// The asynchronous half of the tcp send path: a bounded per-peer frame
// queue drained by a writer goroutine (tcp.go), plus the locked
// frame-buffer freelist the encoded frames are drawn from.
//
// The rank goroutine encodes a message into an owned pooled []byte and
// enqueues it; the writer goroutine coalesces whatever is queued into
// large corked writes and returns the buffers to the pool. Ownership is
// strict: a frame buffer belongs to the rank goroutine until push
// succeeds, to the queue while queued, and to the writer afterwards —
// nobody ever rewrites a buffer another goroutine can still observe
// (the scratch-reuse hazard of the old synchronous path).

import "sync"

// frameBufPool is a locked freelist of frame encode buffers, shared
// between the rank goroutine (get, on encode) and the per-peer writer
// goroutines (put, after the socket write). Unlike the rank payload
// pools it must lock: two goroutine classes touch it. poolCap bounds it
// like every other freelist; overflow falls to the GC.
type frameBufPool struct {
	mu   sync.Mutex
	free [][]byte
}

// get returns an empty buffer with room for n bytes: the smallest
// pooled one that fits, or a new one of exactly n. A frame of
// dataFrameLen bytes is then encoded into it without regrowing, and a
// large frame never takes a buffer a small one could have used. The
// scan starts at the most recently returned buffer and stops at an
// exact fit, the common case of a stream of equal frames.
func (p *frameBufPool) get(n int) []byte {
	p.mu.Lock()
	best := -1
	for i := len(p.free) - 1; i >= 0; i-- {
		if c := cap(p.free[i]); c >= n && (best < 0 || c < cap(p.free[best])) {
			best = i
			if c == n {
				break
			}
		}
	}
	if best < 0 {
		p.mu.Unlock()
		return make([]byte, 0, n)
	}
	b := p.free[best]
	last := len(p.free) - 1
	p.free[best] = p.free[last]
	p.free[last] = nil
	p.free = p.free[:last]
	p.mu.Unlock()
	return b[:0]
}

func (p *frameBufPool) put(b []byte) {
	if b == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) < poolCap {
		p.free = append(p.free, b)
	}
}

// sendQueue is one peer's bounded FIFO of encoded frames. push blocks
// while the queue is at depth (backpressure toward the rank goroutine);
// pop blocks until frames arrive or the queue terminates. fail poisons
// it (both sides observe the error), close marks the producing side
// done — the writer drains what remains and exits.
type sendQueue struct {
	mu     sync.Mutex
	nempty sync.Cond // signaled when frames arrive or the queue terminates
	nfull  sync.Cond // signaled when depth frees up or the queue terminates
	frames [][]byte
	head   int
	depth  int
	closed bool
	err    error
}

func newSendQueue(depth int) *sendQueue {
	q := &sendQueue{depth: depth}
	q.nempty.L = &q.mu
	q.nfull.L = &q.mu
	return q
}

// push appends one owned frame, blocking while the queue is full.
// Returns the poison error if the queue failed (the frame is dropped —
// its buffer returns to the caller) and errQueueClosed after close.
func (q *sendQueue) push(frame []byte) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.frames)-q.head >= q.depth && q.err == nil && !q.closed {
		q.nfull.Wait()
	}
	if q.err != nil {
		return q.err
	}
	if q.closed {
		return errQueueClosed
	}
	q.frames = append(q.frames, frame)
	q.nempty.Signal()
	return nil
}

// pop moves every queued frame onto batch (reusing its capacity),
// blocking while the queue is empty and still alive. It returns
// ok=false when the writer should exit: the queue failed, or it was
// closed and fully drained. A failed queue's remaining frames are
// discarded (their buffers are unreachable garbage, safely GC'd).
func (q *sendQueue) pop(batch [][]byte) (_ [][]byte, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.err != nil {
			return batch[:0], false
		}
		if n := len(q.frames) - q.head; n > 0 {
			batch = append(batch[:0], q.frames[q.head:]...)
			clear(q.frames[q.head:])
			q.frames = q.frames[:0]
			q.head = 0
			q.nfull.Broadcast()
			return batch, true
		}
		if q.closed {
			return batch[:0], false
		}
		q.nempty.Wait()
	}
}

// empty reports whether everything pushed has been popped — the
// writer's cue that no more frames are coming right now, so the cork
// can be released (flush).
func (q *sendQueue) empty() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.frames) == q.head
}

// fail poisons the queue: blocked and future pushes return err, the
// writer exits at its next pop. First failure wins.
func (q *sendQueue) fail(err error) {
	q.mu.Lock()
	if q.err == nil {
		q.err = err
	}
	q.mu.Unlock()
	q.nempty.Broadcast()
	q.nfull.Broadcast()
}

// close marks the producing side done. The writer drains the remaining
// frames, then exits; further pushes fail with errQueueClosed.
func (q *sendQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.nempty.Broadcast()
	q.nfull.Broadcast()
}
