package cluster

// Typed wire payloads and the per-rank buffer pools behind the
// zero-allocation steady state of the collective stack.
//
// # Ownership-transfer protocol
//
// Every pooled buffer has exactly one owner at any time:
//
//  1. the sender draws a buffer from ITS OWN rank pool (GetFloats /
//     GetFloat32s / GetInt32s / GetChunks), fills it, and relinquishes
//     ownership by passing it to SendFloats / SendFloat32s / SendChunk /
//     SendChunks;
//  2. the message carries the buffer; while in flight nobody may touch
//     it;
//  3. the receiver takes ownership on Recv*, folds the contents into
//     local state, and returns the buffer to ITS OWN rank pool
//     (PutFloats / PutInt32s / PutChunks).
//
// Buffers therefore migrate between rank pools over the lifetime of a
// run, which is what makes the steady state allocation-free: after a
// few iterations every pool holds enough right-sized buffers for its
// rank's send fan-out. Each pool's own mutex serializes its freelists
// (see rankPools); the mailbox mutex provides the happens-before edge
// between the sender's writes and the receiver's reads.
//
// Returning a buffer is always optional: a buffer that is never Put is
// simply collected by the GC. What is NEVER allowed is releasing a
// buffer that another rank can still observe — payloads that fan out to
// several ranks (allgathered chunks) are not pool buffers at all: they
// stay owned by the instance that sent them, which reuses them only
// once no rank can still read them (collectives.FanOut), and nobody
// ever Puts them.
//
// Sparse chunks follow one point-to-point rule and one exception. A
// point-to-point chunk is a pooled copy of the sender's (index, value)
// arrays drawn by collectives.PieceClass.Chunk, and its receiver hands both buffers
// back with collectives.Release. Ok-Topk's rebalance instead sends
// views (Chunk.Slice) of the selection's fan-out slot: the slot rule
// keeps them unchanged until every receiver has copied its piece, and
// nobody releases them.
//
// Under tcp the receiver owns the buffer the frame was decoded into,
// and the sender's payload is borrowed, not copied: the connection's
// writer goroutine sends the frame from the sender's own arrays and
// then returns a SendFloats / SendFloat32s buffer, which was handed
// over exclusively, to the sender's pool. Chunk payloads may fan out
// and are never returned by the transport. Borrowing needs no rule of
// its own: the writer is done with a payload before any receiver can
// read the message, so a payload that stays unchanged until its
// receiver has read it — the rule inproc delivery by pointer already
// relies on — also stays unchanged until it is written. The frame's
// CRC is taken at enqueue, so a payload rewritten too early arrives as
// ErrFrameCorrupt, attributed to the sender, never as different values.
//
// The fan-out slot rule (collectives.FanOut) is one case of that rule
// and holds over tcp unchanged: every receiver finishes call t of a
// call site before the origin can finish call t+1, and the origin
// rewrites call t's slot only at call t+2, so by then the writer has
// sent it. Forwarded chunks are the forwarder's decoded copies, which
// nobody rewrites.

import (
	"slices"
	"sync"
)

// Chunk is a tagged variable-size wire payload: one origin rank's
// (values, indexes) contribution. It is the message unit of every
// sparse collective; the collectives package re-exports it as
// collectives.Chunk. Values live in exactly one of Data (f64 wire) or
// Data32 (f32 wire, rounded at the send edge). Only this package and
// collectives read the two fields: senders build chunks with
// collectives.PieceClass.Chunk or a FanOut slot, and receivers read the
// values in compute precision through Values or AppendValues.
type Chunk struct {
	Origin int
	Data   []float64
	Data32 []float32 // f32-wire value payload (Data is nil)
	Aux    []int32   // optional parallel index payload (COO indexes)
}

// Words returns the accounted wire size of the chunk: one word per
// element for f64 values, half a word (ceil) per 4-byte element —
// float32 value or int32 index — when the values ride the f32 wire.
func (c Chunk) Words() int {
	if c.Data32 != nil {
		return WireF32.Words(len(c.Data32) + len(c.Aux))
	}
	return len(c.Data) + len(c.Aux)
}

// NumValues returns the number of values regardless of wire format.
func (c Chunk) NumValues() int {
	if c.Data32 != nil {
		return len(c.Data32)
	}
	return len(c.Data)
}

// AppendValues appends every value, widened to float64, onto dst.
func (c Chunk) AppendValues(dst []float64) []float64 {
	if c.Data32 != nil {
		for _, v := range c.Data32 {
			dst = append(dst, float64(v))
		}
		return dst
	}
	return append(dst, c.Data...)
}

// Values returns the chunk's values in compute precision: Data itself
// on the f64 wire, and on the f32 wire Data32 widened into the scratch
// *buf, which grows as needed. Only *buf is ever written, so the
// scratch never aliases a payload; the result is valid until the next
// call with the same buf.
func (c Chunk) Values(buf *[]float64) []float64 {
	if c.Data32 == nil {
		return c.Data
	}
	b := slices.Grow((*buf)[:0], len(c.Data32))[:len(c.Data32)]
	WidenInto(b, c.Data32)
	*buf = b
	return b
}

// Slice returns the view of the chunk's elements [a, b): values and
// indexes, sharing the chunk's arrays.
func (c Chunk) Slice(a, b int) Chunk {
	if c.Data32 != nil {
		return Chunk{Origin: c.Origin, Data32: c.Data32[a:b], Aux: c.Aux[a:b]}
	}
	return Chunk{Origin: c.Origin, Data: c.Data[a:b], Aux: c.Aux[a:b]}
}

// poolCap bounds each freelist so a pathological phase cannot pin
// unbounded memory; overflowing buffers fall back to the GC.
const poolCap = 256

// freelist is a pool of reusable slices. get is best-fit: it takes the
// smallest pooled buffer whose capacity fits and leaves the ones that
// are too small for smaller requests, so a stream of variable-size
// chunks stops allocating once every capacity it needs is pooled.
// clearOnPut zeroes released elements first (needed when the element
// type holds references — []Chunk payloads — so the GC can reclaim
// them).
type freelist[T any] struct {
	free       [][]T
	clearOnPut bool
}

// get returns a length-n buffer: the smallest pooled one with room for
// n, or a new one of exactly n. The scan starts at the most recently
// returned buffer and stops at an exact fit, the common case of a
// stream of equal requests.
func (f *freelist[T]) get(n int) []T {
	best := -1
	for i := len(f.free) - 1; i >= 0; i-- {
		if c := cap(f.free[i]); c >= n && (best < 0 || c < cap(f.free[best])) {
			best = i
			if c == n {
				break
			}
		}
	}
	if best < 0 {
		return make([]T, n)
	}
	s := f.free[best]
	last := len(f.free) - 1
	f.free[best] = f.free[last]
	f.free[last] = nil
	f.free = f.free[:last]
	return s[:n]
}

func (f *freelist[T]) put(s []T) {
	if s == nil || len(f.free) >= poolCap {
		return
	}
	if f.clearOnPut {
		clear(s)
	}
	f.free = append(f.free, s[:0])
}

// rankPools is one rank's buffer freelists. The mutex guards every
// access: under tcp the connection reader goroutines decode inbound
// payloads straight into the local rank's pools (frame.go) and the
// writer goroutines return sent ones (sendqueue.go) while the rank
// goroutine draws and returns buffers; under inproc only the rank's own
// goroutine takes it, so it is never contended.
type rankPools struct {
	mu       sync.Mutex
	msgs     []*Message
	floats   freelist[float64]
	floats32 freelist[float32] // f32-wire value buffers (half the bytes)
	ints     freelist[int32]
	chunks   freelist[Chunk] // clearOnPut: drop payload references
}

func (p *rankPools) getMsg() *Message {
	p.mu.Lock()
	if n := len(p.msgs); n > 0 {
		m := p.msgs[n-1]
		p.msgs[n-1] = nil
		p.msgs = p.msgs[:n-1]
		p.mu.Unlock()
		return m
	}
	p.mu.Unlock()
	return new(Message)
}

func (p *rankPools) putMsg(m *Message) {
	*m = Message{}
	p.mu.Lock()
	if len(p.msgs) < poolCap {
		p.msgs = append(p.msgs, m)
	}
	p.mu.Unlock()
}

// putSent takes back a sent message's shell and the SendFloats /
// SendFloat32s buffer it carried, under one lock: the tcp writer's
// release of a written frame.
func (p *rankPools) putSent(m *Message) {
	p.mu.Lock()
	switch m.kind {
	case payloadFloats:
		p.floats.put(m.floats)
	case payloadFloats32:
		p.floats32.put(m.floats32)
	}
	*m = Message{}
	if len(p.msgs) < poolCap {
		p.msgs = append(p.msgs, m)
	}
	p.mu.Unlock()
}

// Typed accessors; the Comm Get*/Put* methods and the tcp frame decoder
// go through these so both transports share one pool protocol.

func (p *rankPools) getFloats(n int) []float64 {
	p.mu.Lock()
	s := p.floats.get(n)
	p.mu.Unlock()
	return s
}

func (p *rankPools) putFloats(s []float64) {
	p.mu.Lock()
	p.floats.put(s)
	p.mu.Unlock()
}

func (p *rankPools) getFloats32(n int) []float32 {
	p.mu.Lock()
	s := p.floats32.get(n)
	p.mu.Unlock()
	return s
}

func (p *rankPools) putFloats32(s []float32) {
	p.mu.Lock()
	p.floats32.put(s)
	p.mu.Unlock()
}

func (p *rankPools) getInts(n int) []int32 {
	p.mu.Lock()
	s := p.ints.get(n)
	p.mu.Unlock()
	return s
}

func (p *rankPools) putInts(s []int32) {
	p.mu.Lock()
	p.ints.put(s)
	p.mu.Unlock()
}

func (p *rankPools) getChunks(n int) []Chunk {
	p.mu.Lock()
	s := p.chunks.get(n)
	p.mu.Unlock()
	return s
}

func (p *rankPools) putChunks(s []Chunk) {
	p.mu.Lock()
	p.chunks.put(s)
	p.mu.Unlock()
}

// GetFloats returns a length-n value buffer from this rank's pool.
// Contents are unspecified; the caller overwrites the full length
// before sending. See the ownership-transfer protocol above.
func (cm *Comm) GetFloats(n int) []float64 { return cm.pools().getFloats(n) }

// PutFloats returns a value buffer to this rank's pool. The caller must
// hold the only remaining reference; nil is a no-op.
func (cm *Comm) PutFloats(s []float64) { cm.pools().putFloats(s) }

// GetFloat32s returns a length-n f32-wire value buffer from this rank's
// pool. Senders fill it by rounding float64 values at the edge; the
// ownership-transfer protocol is identical to GetFloats.
func (cm *Comm) GetFloat32s(n int) []float32 { return cm.pools().getFloats32(n) }

// PutFloat32s returns an f32 value buffer to this rank's pool; nil is a
// no-op.
func (cm *Comm) PutFloat32s(s []float32) { cm.pools().putFloats32(s) }

// GetInt32s returns a length-n index buffer from this rank's pool.
func (cm *Comm) GetInt32s(n int) []int32 { return cm.pools().getInts(n) }

// PutInt32s returns an index buffer to this rank's pool; nil is a no-op.
func (cm *Comm) PutInt32s(s []int32) { cm.pools().putInts(s) }

// GetChunks returns a length-n chunk container from this rank's pool.
// Containers carry multi-chunk messages (SendChunks); the receiver
// releases them with PutChunks after copying the chunks out.
func (cm *Comm) GetChunks(n int) []Chunk { return cm.pools().getChunks(n) }

// PutChunks returns a chunk container to this rank's pool. Only the
// container is recycled; the chunks' Data/Aux payloads keep whatever
// ownership they had.
func (cm *Comm) PutChunks(s []Chunk) { cm.pools().putChunks(s) }

// PooledBuffers exposes a snapshot of one rank's pooled value and index
// buffers for tests (the payload-ownership property test asserts that
// no backing array is reachable from two pools at once). Not for
// production use.
func (c *Cluster) PooledBuffers(rank int) (floats [][]float64, floats32 [][]float32, ints [][]int32) {
	p := &c.pools[rank]
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([][]float64(nil), p.floats.free...),
		append([][]float32(nil), p.floats32.free...),
		append([][]int32(nil), p.ints.free...)
}
