package collectives

import (
	"fmt"
	"math/bits"

	"repro/internal/cluster"
	"repro/internal/sparse"
)

// Wire buffers come from the per-rank freelists owned by the cluster
// runtime (see cluster/payload.go for the ownership-transfer protocol):
// a sender draws the outgoing copy from its own rank pool, the message
// carries it, and the matching receiver returns it to its own pool once
// the contents are folded into local state. Buffers migrate between
// rank pools over a run, which is what makes the steady state of every
// collective in this package allocation-free.
//
// The endpoint's Wire mode picks the value representation at this edge:
// on the f64 wire the copy is a pooled []float64; on the f32 wire the
// values are rounded to float32 into a pooled []float32 at half-word
// accounting, and receivers widen them back as they fold. Compute stays
// float64 either way. This package and cluster are the only ones that
// know the representation. The dense schedules move it with getBuf,
// sendBuf and recvBuf over wireVal. Sparse callers see only []int32
// and []float64: they send point-to-point copies drawn by one rule,
// PieceClass.Chunk, read received values in place with Chunk.Values or
// Chunk.AppendValues and hand the buffers back with Release after the
// last read, and build fan-out payloads in a FanOut slot, whose
// Chunk.Slice views they may also send point to point. No sparse
// caller keeps a buffer pool of its own.
//
// A value is rounded once, where it first goes out: when a float64
// value is copied into a message (sendFrom, PieceClass.Chunk), or in the pass
// that forms a sum bound for the next message (addWire, addRound). A
// value that already exists in wire form is sent on as it is —
// forwarded in the buffer it arrived in, or copied from a kept wire
// buffer — and never narrowed again from its widened copy.
//
// A receiver may also send on a buffer it received and owns: the dense
// allreduce forwards the sums it writes over a payload (recvAddSend,
// the ring's reduce-scatter) and the ring allgather forwards the
// payloads it has widened. Ownership passes with the message exactly
// as for a fresh pool draw.
//
// Payloads that fan out to multiple ranks (AllgathervInto chunk
// Data/Data32/Aux, which are stored into every rank's result) must NOT
// be pooled — several ranks hold references to the same backing array.
// They are owned by the instance that contributes them, in a FanOut
// (below). Chunk containers ([]Chunk) are single-consumer and are
// pooled via GetChunks/PutChunks.

// PieceClass is the draw rule of point-to-point sparse payloads: the
// capacity a rank draws its pieces at, the largest it has sent or
// received on its exchange, rounded up to a power of two when a piece
// outgrows it. Ok-Topk's split phase, TopkDSA's recursive halving and
// gTopk's tree and broadcast hops each keep one per instance. The zero
// value is ready to use.
//
// The pools' get is best-fit, and a piece's length drifts from call to
// call: drawn at exact lengths, a length above every pooled buffer
// misses and allocates, and the pools keep each length they are given,
// creeping towards their cap. Drawn at one class, any pooled buffer
// fits any piece. Buffers migrate from sender to receiver, so a rank
// whose pieces are longer than those it receives would still find its
// pool holding only buffers too short for its next sends; raising the
// class to what a rank receives as well as what it sends makes the
// ranks of an exchange agree on one class after a call. Raising the
// class strands every buffer pooled at the old one, hence the powers
// of two. Dense draws stay exact: their lengths repeat, and headroom on
// them would be megabytes.
type PieceClass int

// Chunk returns (idx, vals) as a point-to-point payload: copies of both
// arrays drawn from this rank's pools at the class, the values rounded
// to float32 on the f32 wire, first raising the class to the next power
// of two at or above len(idx) if the piece outgrows it. The caller
// sends it and so hands both buffers over; the receiver returns them to
// its own pools with Release once it has read them.
func (c *PieceClass) Chunk(cm cluster.Endpoint, idx []int32, vals []float64) Chunk {
	if len(idx) > int(*c) {
		*c = PieceClass(1 << bits.Len(uint(len(idx)-1)))
	}
	wi := cm.GetInt32s(int(*c))[:len(idx)]
	copy(wi, idx)
	if cm.Wire() == cluster.WireF32 {
		wv := cm.GetFloat32s(int(*c))[:len(vals)]
		cluster.NarrowInto(wv, vals)
		return Chunk{Data32: wv, Aux: wi}
	}
	wv := cm.GetFloats(int(*c))[:len(vals)]
	copy(wv, vals)
	return Chunk{Data: wv, Aux: wi}
}

// Received raises the class to a received piece's capacity, so that
// the buffer, once released into this rank's pool, fits any later
// piece drawn at the class.
func (c *PieceClass) Received(ch Chunk) { *c = max(*c, PieceClass(cap(ch.Aux))) }

// Release returns a received PieceClass.Chunk's buffers to this rank's pools.
// It must not be given a chunk that fans out or a view of one.
func Release(cm cluster.Endpoint, ch Chunk) {
	if ch.Data32 != nil {
		cm.PutFloat32s(ch.Data32)
	} else {
		cm.PutFloats(ch.Data)
	}
	cm.PutInt32s(ch.Aux)
}

// FanOut is the payload storage an origin owns for one AllgathervInto
// call site: two slots, and call t of the site writes slot t mod 2.
//
// Why two are enough: AllgathervInto returns on a rank only after every
// rank has contributed to that same call, and a rank contributes to
// call t+1 only after its call t has returned and it has copied out
// what it keeps. So when the origin rewrites a slot, at call t+2, no
// rank can still be reading the call-t contents. One is not: an origin
// can return from call t and write call t+1's payload before another
// rank has read the call-t chunk it received, directly or forwarded.
// Over tcp the connection's writer sends the slot from the origin's own
// memory, and the rule holds unchanged: the writer is done with a
// payload before any receiver can read it, so no call-t frame is still
// unwritten at call t+2. A slot rewritten too early would fail its
// frame's CRC, taken at enqueue, as corruption (cluster/payload.go).
//
// A FanOut serves exactly one call site, and the ranks reading a result
// must copy what they keep before their next call at that site (the
// update scatter, the global index append).
type FanOut struct {
	calls int
	slots [2]FanOutSlot
}

// FanOutSlot is one call's payload: the (index, value) pairs in compute
// precision, built in place by the caller or copied in by Fill, and
// the values' f32 wire copy.
type FanOutSlot struct {
	sparse.Vec
	val32 []float32
}

// Reset empties the slot for a payload of n pairs (see reserve).
func (s *FanOutSlot) Reset(n int) {
	s.Indexes = reserve(s.Indexes, n)
	s.Values = reserve(s.Values, n)
}

// reserve returns x emptied with room for n elements. An array too
// small is replaced by one with room for n and a quarter more. A call
// site's payload length wanders from call to call, and each slot is
// filled only every other call, so an array grown to the exact length
// would be outgrown, and left to the GC, at most new highs; with the
// quarter it is outgrown only when the level itself rises.
func reserve[T any](x []T, n int) []T {
	if cap(x) < n {
		return make([]T, 0, n+n/4)
	}
	return x[:0]
}

// Next returns the slot of this call and advances the call count.
func (f *FanOut) Next() *FanOutSlot {
	s := &f.slots[f.calls&1]
	f.calls++
	return s
}

// Fill copies (idx, val) into the next slot and returns them as this
// call's payload in cm's wire format (see FanOutSlot.Chunk). A nil idx
// sends values only.
func (f *FanOut) Fill(cm cluster.Endpoint, idx []int32, val []float64) Chunk {
	s := f.Next()
	s.Indexes = append(reserve(s.Indexes, len(idx)), idx...)
	if narrows(cm) {
		return Chunk{Data32: s.narrow(val), Aux: s.Indexes}
	}
	s.Values = append(reserve(s.Values, len(val)), val...)
	return Chunk{Data: s.Values, Aux: s.Indexes}
}

// Chunk returns the slot's contents as this call's payload in cm's
// wire format: the values themselves on the f64 wire, their rounded
// copy on the f32 wire, so the contributor and every receiver read the
// same values. At P = 1 the payload never leaves the rank and stays
// float64 on either wire.
func (s *FanOutSlot) Chunk(cm cluster.Endpoint) Chunk {
	if narrows(cm) {
		return Chunk{Data32: s.narrow(s.Values), Aux: s.Indexes}
	}
	return Chunk{Data: s.Values, Aux: s.Indexes}
}

func narrows(cm cluster.Endpoint) bool { return cm.Wire() == cluster.WireF32 && cm.Size() > 1 }

// narrow rounds val into the slot's f32 copy, grown geometrically. The
// copy is non-nil even when empty: a non-nil Data32 is what marks a
// chunk as f32-wire.
func (s *FanOutSlot) narrow(val []float64) []float32 {
	s.val32 = reserve(s.val32, len(val))[:len(val)]
	if s.val32 == nil {
		s.val32 = []float32{}
	}
	cluster.NarrowInto(s.val32, val)
	return s.val32
}

// wireVal is the element type of a wire value payload: float64 on the
// f64 wire, float32 on the f32 wire. The dense allreduce schedules are
// written once over it and instantiated per wire; the helpers below
// move a []T through the matching typed pool and message paths.
type wireVal interface{ float32 | float64 }

// getBuf draws a length-n value buffer of the wire type from this
// rank's pool.
func getBuf[T wireVal](cm cluster.Endpoint, n int) (b []T) {
	switch p := any(&b).(type) {
	case *[]float32:
		*p = cm.GetFloat32s(n)
	case *[]float64:
		*p = cm.GetFloats(n)
	}
	return b
}

// putBuf returns a value buffer to this rank's pool.
func putBuf[T wireVal](cm cluster.Endpoint, b []T) {
	switch p := any(&b).(type) {
	case *[]float32:
		cm.PutFloat32s(*p)
	case *[]float64:
		cm.PutFloats(*p)
	}
}

// sendBuf sends b, which the caller owns and hands over, at the wire's
// word count: one word per float64, half a word per float32.
func sendBuf[T wireVal](cm cluster.Endpoint, dst, tag int, b []T) {
	switch p := any(&b).(type) {
	case *[]float32:
		cm.SendFloat32s(dst, tag, *p, cluster.WireF32.Words(len(b)))
	case *[]float64:
		cm.SendFloats(dst, tag, *p, len(b))
	}
}

// recvBuf receives one value payload of the wire type; the caller owns
// it and either puts it back or sends it on.
func recvBuf[T wireVal](cm cluster.Endpoint, src, tag int) (b []T) {
	switch p := any(&b).(type) {
	case *[]float32:
		*p = cm.RecvFloat32(src, tag)
	case *[]float64:
		*p = cm.RecvFloat64(src, tag)
	}
	return b
}

// sendFrom ships a pooled wire copy of x to dst: the copy the wire
// needs anyway, since the caller keeps x. On the f32 wire the copy is
// x rounded to float32.
func sendFrom[T wireVal](cm cluster.Endpoint, dst, tag int, x []float64) {
	buf := getBuf[T](cm, len(x))
	narrowInto(buf, x)
	sendBuf(cm, dst, tag, buf)
}

// recvToReduce receives a payload of n wire values that the caller is
// about to reduce, and charges the n-flop reduction AFTER the delivery:
// the reduction cannot start before the data arrives, so it must never
// hide under the transfer.
func recvToReduce[T wireVal](cm cluster.Endpoint, src, tag, n int) []T {
	recv := recvBuf[T](cm, src, tag)
	checkWireLen(len(recv), n)
	cm.Clock().Compute(float64(n))
	return recv
}

// recvAdd receives one wire value payload, writes dst = from + payload
// element-wise and releases the buffer into this rank's pool. from may
// be dst itself (an in-place accumulate).
func recvAdd[T wireVal](cm cluster.Endpoint, src, tag int, from, dst []float64) {
	recv := recvToReduce[T](cm, src, tag, len(dst))
	addInto(dst, from, recv)
	putBuf(cm, recv)
}

// recvWiden receives one wire value payload and widens it into dst. A
// non-nil keep also gets the payload's wire values (the allgather
// buffer that sends them on later). The payload is returned to the
// caller, who owns it and puts it back or forwards it unchanged.
func recvWiden[T wireVal](cm cluster.Endpoint, src, tag int, dst []float64, keep []T) []T {
	recv := recvBuf[T](cm, src, tag)
	checkWireLen(len(recv), len(dst))
	widenInto(dst, recv)
	copy(keep, recv)
	return recv
}

// recvAddSend is an allreduce's turn from reduce-scatter to allgather:
// the last reduce-scatter receive completes this rank's owned block,
// and the block leaves at once to `to` as the first allgather message.
// One pass adds, overwrites the received buffer — which this rank owns
// — with the sums in wire precision, and keeps exactly those values in
// dst; the buffer then goes on as the message, so this rank holds what
// every other rank receives. A non-nil keep also gets the wire values,
// for a later allgather send that covers the owned block.
func recvAddSend[T wireVal](cm cluster.Endpoint, src, tag int, from, dst []float64, keep []T, to, sendTag int) {
	recv := recvToReduce[T](cm, src, tag, len(dst))
	addRound(dst, from, recv)
	copy(keep, recv)
	sendBuf(cm, to, sendTag, recv)
}

// sendWire ships x to dst in the endpoint's wire format (sendFrom at
// the endpoint's wire type). The caller keeps x.
func sendWire(cm cluster.Endpoint, dst, tag int, x []float64) {
	if cm.Wire() == cluster.WireF32 {
		sendFrom[float32](cm, dst, tag, x)
		return
	}
	sendFrom[float64](cm, dst, tag, x)
}

// recvAddFrom is recvAdd at the endpoint's wire type.
func recvAddFrom(cm cluster.Endpoint, src, tag int, from, dst []float64) {
	if cm.Wire() == cluster.WireF32 {
		recvAdd[float32](cm, src, tag, from, dst)
		return
	}
	recvAdd[float64](cm, src, tag, from, dst)
}

// recvCopy receives one wire value payload at the endpoint's wire type,
// widens it into dst and releases the buffer into this rank's pool.
func recvCopy(cm cluster.Endpoint, src, tag int, dst []float64) {
	if cm.Wire() == cluster.WireF32 {
		cm.PutFloat32s(recvWiden[float32](cm, src, tag, dst, nil))
		return
	}
	cm.PutFloats(recvWiden[float64](cm, src, tag, dst, nil))
}

// addInto writes dst[i] = a[i] + float64(b[i]): the receive-edge
// accumulate of both wires, one add per element (widening a float32
// operand is exact). Reslicing the operands to len(dst) keeps the loop
// free of per-element bounds checks.
func addInto[T wireVal](dst, a []float64, b []T) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] + float64(b[i])
	}
}

// addWire writes dst[i] = T(a[i] + float64(b[i])): a partial sum bound
// for the next send, written straight into that send's buffer in wire
// precision. dst may be b itself. The rounding is the one the sum
// would get from narrowInto at the send, on the same float64 sum.
func addWire[T wireVal](dst []T, a []float64, b []T) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = T(a[i] + float64(b[i]))
	}
}

// addRound is the add for sums that go straight back out: b[i] becomes
// T(a[i] + float64(b[i])), the value sent on, and dst[i] keeps its
// widening. One add and one rounding per element.
func addRound[T wireVal](dst, a []float64, b []T) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		f := T(a[i] + float64(b[i]))
		b[i] = f
		dst[i] = float64(f)
	}
}

// narrowInto writes src in wire precision into the equal-length dst:
// cluster.NarrowInto on the f32 wire, a copy on the f64 wire.
func narrowInto[T wireVal](dst []T, src []float64) {
	switch d := any(&dst).(type) {
	case *[]float32:
		cluster.NarrowInto(*d, src)
	case *[]float64:
		copy(*d, src)
	}
}

// widenInto is narrowInto's inverse: cluster.WidenInto on the f32
// wire, a copy on the f64 wire.
func widenInto[T wireVal](dst []float64, src []T) {
	switch s := any(&src).(type) {
	case *[]float32:
		cluster.WidenInto(dst, *s)
	case *[]float64:
		copy(dst, *s)
	}
}

// recvWireFloats receives one wire value payload and hands it to the
// caller as a pooled []float64 from this rank's pool (on the f32 wire
// the values are widened into a fresh pool draw and the f32 buffer is
// released immediately). The caller owns the result and releases it
// with cm.PutFloats — the contract Bcast exposes.
func recvWireFloats(cm cluster.Endpoint, src, tag int) []float64 {
	if cm.Wire() == cluster.WireF32 {
		recv := cm.RecvFloat32(src, tag)
		out := cm.GetFloats(len(recv))
		cluster.WidenInto(out, recv)
		cm.PutFloat32s(recv)
		return out
	}
	return cm.RecvFloat64(src, tag)
}

func checkWireLen(got, want int) {
	if got != want {
		panic(fmt.Sprintf("collectives: wire payload length mismatch %d != %d", got, want))
	}
}
