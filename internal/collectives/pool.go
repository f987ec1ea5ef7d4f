package collectives

import (
	"fmt"
	"slices"

	"repro/internal/cluster"
	"repro/internal/sparse"
)

// Wire buffers come from the per-rank freelists owned by the cluster
// runtime (see cluster/payload.go for the ownership-transfer protocol):
// a sender draws the outgoing copy from its own rank pool, the message
// carries it, and the matching receiver returns it to its own pool once
// the contents are folded into local state. The pools are lock-free
// because each is touched only by its rank's goroutine; buffers migrate
// between rank pools over a run, which is what makes the steady state
// of every collective in this package allocation-free.
//
// The endpoint's Wire mode picks the value representation at this edge:
// on the f64 wire the copy is a pooled []float64; on the f32 wire the
// values are rounded to float32 into a pooled []float32 at half-word
// accounting, and receivers widen them back as they fold. Compute stays
// float64 either way — rounding happens exactly once per hop, here.
//
// A receiver may also send on a buffer it received and owns, as
// recvAddSend does with the sums it writes over the payload: ownership
// passes with the message exactly as for a fresh pool draw.
//
// Payloads that fan out to multiple ranks (AllgathervInto chunk
// Data/Data32/Aux, which are stored into every rank's result) must NOT
// be pooled — several ranks hold references to the same backing array.
// They are owned by the instance that contributes them, in a FanOut
// (below). Chunk containers ([]Chunk) are single-consumer and are
// pooled via GetChunks/PutChunks.

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
// Over tcp the payload is copied into a frame at send, and the rule
// holds unchanged.
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
	s.Indexes = append(s.Indexes[:0], idx...)
	if narrows(cm) {
		return Chunk{Data32: s.narrow(val), Aux: s.Indexes}
	}
	s.Values = append(s.Values[:0], val...)
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
	s.val32 = slices.Grow(s.val32[:0], len(val))[:len(val)]
	if s.val32 == nil {
		s.val32 = []float32{}
	}
	cluster.NarrowInto(s.val32, val)
	return s.val32
}

// sendCopy copies x into a pooled buffer — the copy the wire needs
// anyway, since the caller keeps mutating x — and returns it for
// sending. The receiver releases it with cm.PutFloats after use. Only
// f64-wire paths call it; wire-mode-aware paths use sendWire.
func sendCopy(cm cluster.Endpoint, x []float64) []float64 {
	buf := cm.GetFloats(len(x))
	copy(buf, x)
	return buf
}

// sendWire ships x to dst in the endpoint's wire format: a pooled
// []float64 copy on the f64 wire, a pooled rounded []float32 copy at
// half-word accounting on the f32 wire. The caller keeps x.
func sendWire(cm cluster.Endpoint, dst, tag int, x []float64) {
	if cm.Wire() == cluster.WireF32 {
		buf := cm.GetFloat32s(len(x))
		cluster.NarrowInto(buf, x)
		cm.SendFloat32s(dst, tag, buf, cluster.WireF32.Words(len(x)))
		return
	}
	cm.SendFloats(dst, tag, sendCopy(cm, x), len(x))
}

// recvAddFrom receives one wire value payload, charges the
// len(dst)-flop reduction AFTER the delivery (the reduction cannot
// start before the data arrives, so it must never hide under the
// transfer), writes dst = from + payload element-wise and releases the
// buffer into this rank's pool. from may be dst itself (an in-place
// accumulate); a distinct from lets a collective reduce out of a
// caller's read-only input without copying it first.
func recvAddFrom(cm cluster.Endpoint, src, tag int, from, dst []float64) {
	if cm.Wire() == cluster.WireF32 {
		recv := cm.RecvFloat32(src, tag)
		checkWireLen(len(recv), len(dst))
		cm.Clock().Compute(float64(len(dst)))
		addInto(dst, from, recv)
		cm.PutFloat32s(recv)
		return
	}
	recv := cm.RecvFloat64(src, tag)
	checkWireLen(len(recv), len(dst))
	cm.Clock().Compute(float64(len(dst)))
	addInto(dst, from, recv)
	cm.PutFloats(recv)
}

// recvAddSend is an allreduce's turn from reduce-scatter to allgather:
// the last reduce-scatter receive completes this rank's owned block,
// dst = from + payload, and the block leaves at once to `to` as the
// first allgather message. On the f32 wire one pass adds, overwrites
// the received buffer — which this rank owns — with the rounded sums,
// and keeps exactly those values in dst; the buffer then goes on as
// the message, so this rank holds what every other rank receives.
func recvAddSend(cm cluster.Endpoint, src, tag int, from, dst []float64, to, sendTag int) {
	if cm.Wire() != cluster.WireF32 {
		recvAddFrom(cm, src, tag, from, dst)
		sendWire(cm, to, sendTag, dst)
		return
	}
	recv := cm.RecvFloat32(src, tag)
	checkWireLen(len(recv), len(dst))
	cm.Clock().Compute(float64(len(dst)))
	addRound(dst, from, recv)
	cm.SendFloat32s(to, sendTag, recv, cluster.WireF32.Words(len(dst)))
}

// addInto writes dst[i] = a[i] + float64(b[i]): the receive-edge
// accumulate of both wires, one add per element (widening a float32
// operand is exact). Reslicing the operands to len(dst) keeps the loop
// free of per-element bounds checks.
func addInto[T float32 | float64](dst, a []float64, b []T) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] + float64(b[i])
	}
}

// addRound is the f32 wire's add for sums that go straight back out:
// b[i] becomes float32(a[i] + float64(b[i])), the value sent on, and
// dst[i] keeps its widening. One add and one rounding per element.
func addRound(dst, a []float64, b []float32) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		f := float32(a[i] + float64(b[i]))
		b[i] = f
		dst[i] = float64(f)
	}
}

// recvCopy receives one wire value payload, widens it into dst and
// releases the buffer into this rank's pool.
func recvCopy(cm cluster.Endpoint, src, tag int, dst []float64) {
	if cm.Wire() == cluster.WireF32 {
		recv := cm.RecvFloat32(src, tag)
		checkWireLen(len(recv), len(dst))
		cluster.WidenInto(dst, recv)
		cm.PutFloat32s(recv)
		return
	}
	recv := cm.RecvFloat64(src, tag)
	checkWireLen(len(recv), len(dst))
	copy(dst, recv)
	cm.PutFloats(recv)
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
