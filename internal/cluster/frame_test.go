package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// randFloat64 draws from a value population that stresses the codec's
// bit-exactness claim: ordinary values, huge and tiny magnitudes,
// negative zero, subnormals and infinities. (NaN is excluded only
// because reflect.DeepEqual can't compare it; the bit-pattern encoding
// would preserve it too.)
func randFloat64(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.Float64frombits(uint64(rng.Intn(1 << 20))) // subnormal
	case 3:
		return math.Inf(1 - 2*rng.Intn(2))
	case 4:
		return rng.NormFloat64() * 1e300
	case 5:
		return rng.NormFloat64() * 1e-300
	default:
		return rng.NormFloat64()
	}
}

func randChunk(rng *rand.Rand) Chunk {
	ch := Chunk{Origin: rng.Intn(64)}
	// Data and Data32 are mutually exclusive in real payloads; nil-ness
	// (empty vs absent) must survive the wire because receivers branch
	// on it.
	if rng.Intn(2) == 0 {
		ch.Data = make([]float64, rng.Intn(17))
		for i := range ch.Data {
			ch.Data[i] = randFloat64(rng)
		}
	} else {
		ch.Data32 = make([]float32, rng.Intn(17))
		for i := range ch.Data32 {
			ch.Data32[i] = float32(rng.NormFloat64())
		}
	}
	if rng.Intn(3) > 0 {
		ch.Aux = make([]int32, rng.Intn(9))
		for i := range ch.Aux {
			ch.Aux[i] = rng.Int31() - rng.Int31()
		}
	}
	return ch
}

// randMessage covers every payload kind the tcp transport ships,
// including the generic nil (Group barrier) and []byte (control gather)
// cases.
func randMessage(rng *rand.Rand) *Message {
	msg := &Message{
		Src:    rng.Intn(64),
		Tag:    rng.Intn(1 << 24),
		Words:  rng.Intn(1 << 20),
		Depart: randFloat64(rng),
	}
	if math.IsNaN(msg.Depart) {
		msg.Depart = 0
	}
	switch rng.Intn(6) {
	case 0:
		msg.kind = payloadFloats
		msg.floats = make([]float64, rng.Intn(33))
		for i := range msg.floats {
			msg.floats[i] = randFloat64(rng)
		}
	case 1:
		msg.kind = payloadFloats32
		msg.floats32 = make([]float32, rng.Intn(33))
		for i := range msg.floats32 {
			msg.floats32[i] = math.Float32frombits(rng.Uint32() &^ (0x7f800001)) // avoid NaN patterns
		}
	case 2:
		msg.kind = payloadChunk
		msg.chunk = randChunk(rng)
	case 3:
		msg.kind = payloadChunks
		msg.chunks = make([]Chunk, rng.Intn(9))
		for i := range msg.chunks {
			msg.chunks[i] = randChunk(rng)
		}
	case 4:
		msg.kind = payloadAny // nil payload (Group dissemination barrier)
	case 5:
		msg.kind = payloadAny
		b := make([]byte, rng.Intn(65))
		rng.Read(b)
		msg.Data = b
	}
	return msg
}

// TestFrameRoundTrip: every payload kind survives encode→frame→decode
// with bit-identical contents and exact nil-ness.
func TestFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		want := randMessage(rng)
		frame := appendDataFrame(nil, want)

		// The frame must be self-describing through the stream reader.
		typ, body, err := readFrame(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("case %d: readFrame: %v", i, err)
		}
		if typ != frameData {
			t.Fatalf("case %d: frame type %d", i, typ)
		}
		got, err := decodeDataFrame(body, nil)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("case %d: round-trip mismatch:\nwant %+v\ngot  %+v", i, want, got)
		}
	}
}

// TestChunkFrameLayout pins a chunk's encoding to the bytes its fields
// need: origin, presence flags and the present slices, with no slot for
// anything a Chunk does not carry.
func TestChunkFrameLayout(t *testing.T) {
	msg := &Message{kind: payloadChunk, chunk: Chunk{
		Origin: 3, Data: []float64{1, 2, 3}, Aux: []int32{4, 5},
	}}
	const (
		envelope = 4 + 1 + 4*8 + 1 + 4 // length, type, src/tag/words/depart, kind, crc
		chunk    = 8 + 1 + (4 + 3*8) + (4 + 2*4)
	)
	if got := len(appendDataFrame(nil, msg)); got != envelope+chunk {
		t.Fatalf("chunk frame is %d bytes, want %d", got, envelope+chunk)
	}
}

// TestFrameRoundTripBitExact pins the bit-for-bit guarantee explicitly
// for the values DeepEqual would conflate or that motivated bit-pattern
// encoding: -0 vs +0 and subnormals.
func TestFrameRoundTripBitExact(t *testing.T) {
	values := []float64{
		math.Copysign(0, -1),
		math.Float64frombits(1),                  // smallest subnormal
		math.Float64frombits(0x000fffffffffffff), // largest subnormal
		math.MaxFloat64,
		math.SmallestNonzeroFloat64,
	}
	msg := &Message{Src: 1, Tag: 2, Words: 3, kind: payloadFloats, floats: values}
	frame := appendDataFrame(nil, msg)
	_, body, err := readFrame(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeDataFrame(body, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range values {
		if math.Float64bits(got.floats[i]) != math.Float64bits(v) {
			t.Errorf("value %d: bits %016x -> %016x", i, math.Float64bits(v), math.Float64bits(got.floats[i]))
		}
	}
}

// TestFrameRejectsGenericPayload: the tcp transport cannot ship an
// arbitrary `any` payload and must say so loudly instead of silently
// corrupting it.
func TestFrameRejectsGenericPayload(t *testing.T) {
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("encoding a struct payload did not panic")
		}
		if s := fmt.Sprint(p); !bytes.Contains([]byte(s), []byte("generic payload")) {
			t.Fatalf("unhelpful panic: %v", s)
		}
	}()
	type opaque struct{ X int }
	appendDataFrame(nil, &Message{kind: payloadAny, Data: opaque{1}})
}

// TestFrameTruncationErrors: a frame cut at any byte boundary must
// produce an error, never a panic or a silently short payload.
func TestFrameTruncationErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		msg := randMessage(rng)
		frame := appendDataFrame(nil, msg)
		body := frame[5 : len(frame)-4] // strip length+type header and crc trailer
		for cut := 0; cut < len(body); cut++ {
			if _, err := decodeDataFrame(body[:cut], nil); err == nil {
				// A cut that still parses must only be possible when it
				// parses to the same message — which can't happen for a
				// strict prefix, since decode requires exhaustion.
				t.Fatalf("case %d: truncation at %d/%d decoded without error", i, cut, len(body))
			}
		}
	}
}

// TestFrameCorruptLengthRejected: absurd length prefixes and element
// counts must be rejected before any large allocation happens.
func TestFrameCorruptLengthRejected(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0xff, frameData}
	if _, _, err := readFrame(bytes.NewReader(huge)); err == nil {
		t.Error("4GiB frame length accepted")
	}
	zero := []byte{0, 0, 0, 0}
	if _, _, err := readFrame(bytes.NewReader(zero)); err == nil {
		t.Error("zero frame length accepted")
	}
	// A floats payload claiming 2^31 elements in a 20-byte body.
	msg := &Message{kind: payloadFloats, floats: []float64{1}}
	frame := appendDataFrame(nil, msg)
	body := append([]byte(nil), frame[5:len(frame)-4]...)
	copy(body[len(body)-12:], []byte{0xff, 0xff, 0xff, 0x7f})
	if _, err := decodeDataFrame(body, nil); err == nil {
		t.Error("oversized element count accepted")
	}
}

// TestFrameCRCFlippedBitRejected: any single flipped bit in the type
// byte, body, or checksum trailer must surface ErrFrameCorrupt — this
// is what turns silent on-wire corruption into a rank-attributed
// failure.
func TestFrameCRCFlippedBitRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	msg := randMessage(rng)
	frame := appendDataFrame(nil, msg)
	// Every byte past the length prefix participates in the checksum
	// (the type byte, the body, or the trailer itself).
	for pos := 4; pos < len(frame); pos++ {
		mut := append([]byte(nil), frame...)
		mut[pos] ^= 0x10
		_, _, err := readFrame(bytes.NewReader(mut))
		if err == nil {
			t.Fatalf("flipped bit at byte %d accepted", pos)
		}
		if !errors.Is(err, ErrFrameCorrupt) {
			t.Fatalf("flipped bit at byte %d: got %v, want ErrFrameCorrupt", pos, err)
		}
	}
	// The pristine frame still decodes.
	if _, _, err := readFrame(bytes.NewReader(frame)); err != nil {
		t.Fatalf("pristine frame rejected: %v", err)
	}
}

// TestFrameLengthGuard: length prefixes just past the cap (and garbage
// prefixes generally) are rejected as corrupt before any allocation.
func TestFrameLengthGuard(t *testing.T) {
	over := make([]byte, 4)
	binary.LittleEndian.PutUint32(over, uint32(maxFrameBody)+1)
	over = append(over, frameData)
	if _, _, err := readFrame(bytes.NewReader(over)); !errors.Is(err, ErrFrameCorrupt) {
		t.Errorf("length %d: got %v, want ErrFrameCorrupt", maxFrameBody+1, err)
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 100; i++ {
		garbage := make([]byte, 16)
		rng.Read(garbage)
		n := binary.LittleEndian.Uint32(garbage)
		if n >= 1 && n <= uint32(maxFrameBody) {
			continue // plausible length: truncation error instead, covered above
		}
		if _, _, err := readFrame(bytes.NewReader(garbage)); !errors.Is(err, ErrFrameCorrupt) {
			t.Errorf("garbage prefix %x: got %v, want ErrFrameCorrupt", garbage[:4], err)
		}
	}
}

// TestHelloTableRoundTrip covers the rendezvous frames.
func TestHelloTableRoundTrip(t *testing.T) {
	frame := appendHelloFrame(nil, 3, "127.0.0.1:4242")
	typ, body, err := readFrame(bytes.NewReader(frame))
	if err != nil || typ != frameHello {
		t.Fatalf("hello frame: type %d err %v", typ, err)
	}
	rank, addr, err := decodeHelloFrame(body)
	if err != nil || rank != 3 || addr != "127.0.0.1:4242" {
		t.Fatalf("hello decode: rank %d addr %q err %v", rank, addr, err)
	}

	addrs := []string{"a:1", "b:2", "", "c:3"}
	frame = appendTableFrame(nil, addrs)
	typ, body, err = readFrame(bytes.NewReader(frame))
	if err != nil || typ != frameTable {
		t.Fatalf("table frame: type %d err %v", typ, err)
	}
	got, err := decodeTableFrame(body)
	if err != nil || !reflect.DeepEqual(addrs, got) {
		t.Fatalf("table decode: %v err %v", got, err)
	}
}
