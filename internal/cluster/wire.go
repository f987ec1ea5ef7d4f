package cluster

import "fmt"

// Wire selects the on-wire value format of a cluster. The paper's
// systems ship float32 gradients while this reproduction computes in
// float64; the wire mode decouples the two: compute stays float64
// everywhere, and in WireF32 mode values are rounded to float32 exactly
// once, at the send edge, travel as pooled []float32 buffers, and are
// widened back on receive. Indexes are int32 in both modes.
//
// Word accounting follows the representation: the netmodel β constant
// is seconds per 8-byte word, so a float64 value (or an index counted
// at the paper's one-word convention) is one word in WireF64, while in
// WireF32 every 4-byte element — value or index — is half a word and a
// message of e elements occupies ⌈e/2⌉ words (see Wire.Words). WireF32
// therefore halves every β term and every pool's value-buffer bytes.
type Wire uint8

const (
	// WireF64 is the seed behavior: 8-byte values, one word per element.
	WireF64 Wire = iota
	// WireF32 is the paper-faithful mode: 4-byte values rounded at the
	// send edge, half-word accounting for values and indexes.
	WireF32
)

func (w Wire) String() string {
	switch w {
	case WireF64:
		return "f64"
	case WireF32:
		return "f32"
	}
	return fmt.Sprintf("Wire(%d)", uint8(w))
}

// ParseWire parses the -wire flag values "f64" and "f32".
func ParseWire(s string) (Wire, error) {
	switch s {
	case "f64":
		return WireF64, nil
	case "f32":
		return WireF32, nil
	}
	return WireF64, fmt.Errorf("cluster: unknown wire mode %q (want f64 or f32)", s)
}

// Words returns the accounted wire size of elems 4-or-8-byte elements
// under this mode: one word each on the f64 wire, two per word (ceil)
// on the f32 wire.
func (w Wire) Words(elems int) int {
	if w == WireF32 {
		return (elems + 1) / 2
	}
	return elems
}

// NarrowInto rounds src into the equal-length dst — the shared
// float64→float32 send-edge conversion every f32 wire copy of float64
// data goes through. The dense allreduce's sums bound for the next
// message are rounded by float32(v) in the pass that forms them
// (collectives addWire and addRound), the same conversion.
// Reslicing dst to len(src) up front keeps the loop free of
// per-element bounds checks, as in every kernel of this file.
func NarrowInto(dst []float32, src []float64) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = float32(v)
	}
}

// WidenInto widens src into the equal-length dst — NarrowInto's
// receive-edge inverse, shared by every f32 wire consumer that copies
// a payload back to compute precision (accumulating receivers fuse
// the widening into their own add loop).
func WidenInto(dst []float64, src []float32) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = float64(v)
	}
}

// Round rounds x through the wire precision in place: a no-op on the
// f64 wire, float64(float32(v)) per element on the f32 wire. Collective
// algorithms apply it to data they keep locally but also transmit (a
// broadcast root's buffer, an allgather contributor's block), so every
// rank ends up holding bit-identical values regardless of which side of
// the wire it sat on. The dense allreduce never rounds a range of its
// result: its owned block is rounded in the pass that completes the
// sums and writes them into the outgoing message (collectives
// recvAddSend), and every other block arrives in wire form.
func (w Wire) Round(x []float64) {
	if w != WireF32 {
		return
	}
	for i, v := range x {
		x[i] = float64(float32(v))
	}
}
