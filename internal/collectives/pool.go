package collectives

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/tensor"
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
// Payloads that fan out to multiple ranks (e.g. Allgatherv chunk
// Data/Data32/Aux, which are stored into every rank's result) must NOT
// be pooled — several ranks hold references to the same backing array.
// Chunk containers ([]Chunk) are single-consumer and are pooled via
// GetChunks/PutChunks.

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

// recvAxpy receives one wire value payload, charges the len(dst)-flop
// reduction AFTER the delivery (the reduction cannot start before the
// data arrives, so it must never hide under the transfer), accumulates
// the payload element-wise into dst and releases the buffer into this
// rank's pool.
func recvAxpy(cm cluster.Endpoint, src, tag int, dst []float64) {
	if cm.Wire() == cluster.WireF32 {
		recv := cm.RecvFloat32(src, tag)
		checkWireLen(len(recv), len(dst))
		cm.Clock().Compute(float64(len(dst)))
		for i, v := range recv {
			dst[i] += float64(v)
		}
		cm.PutFloat32s(recv)
		return
	}
	recv := cm.RecvFloat64(src, tag)
	checkWireLen(len(recv), len(dst))
	cm.Clock().Compute(float64(len(dst)))
	tensor.Axpy(1, recv, dst)
	cm.PutFloats(recv)
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
