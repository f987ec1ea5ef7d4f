package cluster

// The asynchronous half of the tcp send path: a bounded per-peer queue
// of outgoing frames and the cork its writer goroutine (tcp.go) writes
// them through.
//
// A queued frame is its message, not a copy of its bytes: the rank
// goroutine takes the frame's CRC32-C at enqueue and pushes {message,
// length, CRC}; the writer lays the frame onto the cork, copying fixed
// fields and arrays under directMin bytes into the cork's buffer and
// writing each larger array from its own memory, right after the
// buffer. Either way every byte of the frame is copied or written when
// the writer is done with it, and the writer then returns what the
// sender handed over exclusively to the sender's pools.
//
// The payload is borrowed until written, which is before any receiver
// can read it, so the lifetime rule of inproc delivery covers it
// (payload.go). A frame belongs to the rank goroutine until push
// succeeds, to the queue while queued, and to the writer afterwards. A
// payload rewritten before the write no longer matches the CRC and
// fails at the receiver as ErrFrameCorrupt, attributed to the sender.

import (
	"hash/crc32"
	"io"
	"sync"
)

// directMin is the size from which a payload array is written from its
// own memory instead of being copied into the cork. Such an array costs
// one more write call, for the buffer in front of it; on the host it
// was measured on, that call cost more than the copy below directMin.
// DESIGN.md ("Data-plane performance") gives the measurement.
const directMin = 96 << 10

// outFrame is one queued data frame: the message it encodes, which
// still holds the payload arrays the writer sends from, the frame's
// length prefix and the CRC32-C taken at enqueue.
type outFrame struct {
	msg  *Message
	body uint32
	crc  uint32
	// owner is the sending rank's pools, to which the writer returns the
	// message shell and a SendFloats / SendFloat32s buffer once the frame
	// is written; nil for the transport's own control messages.
	owner *rankPools
}

// frameSum is enqueue's CRC pass over a data frame, taken from the
// message itself: the fixed fields pass through its scratch buffer and
// each payload array is read where it lies.
type frameSum struct {
	enc frameEncoder
	crc uint32
}

// seal fills in f's length prefix and its CRC32-C as the message reads
// now. A body above maxFrameBody is refused.
func (s *frameSum) seal(f *outFrame) error {
	size, err := dataFrameLen(f.msg)
	if err != nil {
		return err
	}
	s.enc.buf, s.enc.arrays, s.crc = s.enc.buf[:0], s, 0
	s.enc.dataBody(f.msg)
	s.array(&s.enc, nil)
	f.body, f.crc = uint32(size-8), s.crc
	return nil
}

func (s *frameSum) array(e *frameEncoder, b []byte) {
	s.crc = crc32.Update(s.crc, crcTable, e.buf)
	s.crc = crc32.Update(s.crc, crcTable, b)
	e.buf = e.buf[:0]
}

// release returns what the sender handed over exclusively — the shell
// and an owned float payload — to the sender's pools. Chunk payloads may
// fan out to several destinations and are left to the GC (payload.go).
func (f *outFrame) release() {
	if f.owner != nil {
		f.owner.putSent(f.msg)
	}
}

// cork is one connection's write side, guarded by the peer's write
// mutex: a corkBytes buffer that fixed fields, small arrays and control
// frames are copied into. It is written out once it holds corkBytes,
// before each array of directMin bytes or more (which is then written
// from its own memory), and whenever the writer finds its queue empty.
type cork struct {
	w   io.Writer
	enc frameEncoder // enc.buf is the buffer; enc.arrays is the cork
	err error        // the first write error; every later write returns it
}

func newCork(w io.Writer) *cork {
	c := &cork{w: w, enc: frameEncoder{buf: make([]byte, 0, corkBytes)}}
	c.enc.arrays = c
	return c
}

// frame lays f onto the cork, writes the cork out if it is full, and
// releases f, every byte of which is now copied or written.
func (c *cork) frame(f *outFrame) error {
	c.enc.u32(f.body)
	c.enc.dataBody(f.msg)
	c.enc.u32(f.crc)
	f.release()
	if len(c.enc.buf) >= corkBytes {
		return c.flush()
	}
	return c.err
}

// array is the encoder's hook for a payload array: one under directMin
// bytes is copied into the buffer, which is written out first if the
// array does not fit; a larger one is written from its own memory right
// after the buffer. A write error stays in c.err, which frame returns.
func (c *cork) array(e *frameEncoder, b []byte) {
	if len(b) < directMin {
		if len(e.buf)+len(b) > corkBytes {
			c.flush()
		}
		e.buf = append(e.buf, b...)
		return
	}
	c.flush()
	c.send(b)
}

// write copies an encoded control frame into the buffer and writes the
// cork out.
func (c *cork) write(frame []byte) error {
	c.enc.buf = append(c.enc.buf, frame...)
	return c.flush()
}

// flush writes the buffer out.
func (c *cork) flush() error {
	c.send(c.enc.buf)
	c.enc.buf = c.enc.buf[:0]
	return c.err
}

// send writes b unless an earlier write failed.
func (c *cork) send(b []byte) {
	if c.err == nil && len(b) > 0 {
		_, c.err = c.w.Write(b)
	}
}

// sendQueue is one peer's bounded FIFO of outgoing frames. push blocks
// while the queue is at depth (backpressure toward the rank goroutine);
// pop blocks until frames arrive or the queue terminates. fail poisons
// it (both sides observe the error), close marks the producing side
// done — the writer drains what remains and exits.
type sendQueue struct {
	mu     sync.Mutex
	nempty sync.Cond // signaled when frames arrive or the queue terminates
	nfull  sync.Cond // signaled when depth frees up or the queue terminates
	frames []outFrame
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

// push appends one frame, blocking while the queue is full. Returns the
// poison error if the queue failed (the frame is dropped and stays the
// caller's) and errQueueClosed after close.
func (q *sendQueue) push(frame outFrame) error {
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
// discarded (their messages are unreachable garbage, safely GC'd).
func (q *sendQueue) pop(batch []outFrame) (_ []outFrame, ok bool) {
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
