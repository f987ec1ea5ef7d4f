package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
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

// decodeData reads the first frame of b as a data frame.
func decodeData(b []byte) (*Message, error) {
	return (&frameReader{r: bytes.NewReader(b)}).readData()
}

// reframe wraps body as a frame of type typ with a correct length
// prefix and CRC, so whatever fails to decode in it fails in the
// decoder, not in the checksum.
func reframe(typ byte, body []byte) []byte {
	return finishFrame(append([]byte{0, 0, 0, 0, typ}, body...), 0)
}

// TestFrameRoundTrip: every payload kind survives encode→frame→decode
// with bit-identical contents and exact nil-ness, the encoder writes
// exactly dataFrameLen bytes, and one reader decodes a stream of frames
// back to back — through fresh buffers and through rank pools alike.
func TestFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var stream []byte
	var want []*Message
	for i := 0; i < 5000; i++ {
		msg := randMessage(rng)
		size, err := dataFrameLen(msg)
		if err != nil {
			t.Fatalf("case %d: dataFrameLen: %v", i, err)
		}
		start := len(stream)
		stream = appendDataFrame(stream, msg)
		if got := len(stream) - start; got != size {
			t.Fatalf("case %d: frame is %d bytes, dataFrameLen says %d", i, got, size)
		}
		want = append(want, msg)
	}
	for _, pools := range []*rankPools{nil, {chunks: freelist[Chunk]{clearOnPut: true}}} {
		fr := &frameReader{r: bufio.NewReader(bytes.NewReader(stream)), pools: pools}
		for i, w := range want {
			got, err := fr.readData()
			if err != nil {
				t.Fatalf("case %d (pools %v): decode: %v", i, pools != nil, err)
			}
			if !reflect.DeepEqual(w, got) {
				t.Fatalf("case %d (pools %v): round-trip mismatch:\nwant %+v\ngot  %+v", i, pools != nil, w, got)
			}
		}
		if _, err := fr.readData(); err != io.EOF {
			t.Fatalf("after the last frame: got %v, want io.EOF", err)
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
	got, err := decodeData(appendDataFrame(nil, msg))
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

// TestFrameTruncationErrors: a body cut at any byte boundary, re-framed
// with a correct length and CRC, must fail to decode with a named
// decode error — never a panic or a silently short payload — and a
// stream cut at any byte boundary must fail as a truncation.
func TestFrameTruncationErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		msg := randMessage(rng)
		frame := appendDataFrame(nil, msg)
		body := frame[5 : len(frame)-4] // strip length+type header and crc trailer
		for cut := 0; cut < len(body); cut++ {
			// A strict prefix cannot decode: the decoder must consume the
			// declared body exactly.
			_, err := decodeData(reframe(frameData, body[:cut]))
			if !errors.Is(err, errMalformedFrame) || errors.Is(err, ErrFrameCorrupt) {
				t.Fatalf("case %d: body cut at %d/%d: got %v, want a malformed-frame error", i, cut, len(body), err)
			}
		}
		for cut := 0; cut < len(frame); cut++ {
			_, err := decodeData(frame[:cut])
			want := io.ErrUnexpectedEOF
			if cut == 0 {
				want = io.EOF // a clean boundary: no frame started
			}
			if !errors.Is(err, want) {
				t.Fatalf("case %d: stream cut at %d/%d: got %v, want %v", i, cut, len(frame), err, want)
			}
		}
	}
}

// TestFrameCorruptLengthRejected: absurd length prefixes are corrupt
// before anything is allocated, and an element count the declared body
// cannot hold is refused before its buffer is drawn.
func TestFrameCorruptLengthRejected(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0xff, frameData}
	if _, err := decodeData(huge); !errors.Is(err, ErrFrameCorrupt) {
		t.Errorf("4GiB frame length: got %v, want ErrFrameCorrupt", err)
	}
	zero := []byte{0, 0, 0, 0, frameData}
	if _, err := decodeData(zero); !errors.Is(err, ErrFrameCorrupt) {
		t.Errorf("zero frame length: got %v, want ErrFrameCorrupt", err)
	}
	// A floats payload claiming 2^31 elements in a 45-byte body, with a
	// CRC that matches.
	frame := appendDataFrame(nil, &Message{kind: payloadFloats, floats: []float64{1}})
	body := append([]byte(nil), frame[5:len(frame)-4]...)
	copy(body[len(body)-12:], []byte{0xff, 0xff, 0xff, 0x7f})
	if _, err := decodeData(reframe(frameData, body)); !errors.Is(err, errMalformedFrame) || !strings.Contains(err.Error(), "count") {
		t.Errorf("oversized element count: got %v, want a count error", err)
	}
}

// TestFrameFlippedKindOrCountIsCorrupt: a flipped payload-kind byte or
// element count derails the decoder before the trailer is reached, yet
// must still report ErrFrameCorrupt — the reader drains the declared
// body and checks the CRC before it names any decode error.
func TestFrameFlippedKindOrCountIsCorrupt(t *testing.T) {
	const kindAt = 5 + 4*8 // after length, type, src/tag/words/depart
	frame := appendDataFrame(nil, &Message{kind: payloadFloats, floats: []float64{1, 2, 3}})
	for _, c := range []struct {
		name string
		at   int
		b    byte
	}{
		{"kind", kindAt, 0x7f},
		{"count up", kindAt + 1 + 3, 0x40},
		{"count down", kindAt + 1, 0x01},
	} {
		mut := append([]byte(nil), frame...)
		mut[c.at] = c.b
		_, err := decodeData(mut)
		if !errors.Is(err, ErrFrameCorrupt) {
			t.Errorf("%s flipped: got %v, want ErrFrameCorrupt", c.name, err)
		}
		// The same body with a matching CRC is a named decode error.
		if _, err := decodeData(reframe(frameData, mut[5:len(mut)-4])); !errors.Is(err, errMalformedFrame) {
			t.Errorf("%s with a matching CRC: got %v, want a malformed-frame error", c.name, err)
		}
	}
}

// TestFrameCRCFlippedBitRejected: any single flipped bit in the type
// byte, body, or checksum trailer of a frame of any payload kind must
// surface ErrFrameCorrupt — this is what turns silent on-wire
// corruption into a rank-attributed failure.
func TestFrameCRCFlippedBitRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 30; i++ {
		frame := appendDataFrame(nil, randMessage(rng))
		// Every byte past the length prefix participates in the checksum
		// (the type byte, the body, or the trailer itself).
		for pos := 4; pos < len(frame); pos++ {
			mut := append([]byte(nil), frame...)
			mut[pos] ^= 0x10
			if _, err := decodeData(mut); !errors.Is(err, ErrFrameCorrupt) {
				t.Fatalf("case %d: flipped bit at byte %d: got %v, want ErrFrameCorrupt", i, pos, err)
			}
		}
		// The pristine frame still decodes.
		if _, err := decodeData(frame); err != nil {
			t.Fatalf("case %d: pristine frame rejected: %v", i, err)
		}
	}
}

// TestFrameLengthGuard: length prefixes just past the cap (and garbage
// prefixes generally) are rejected as corrupt before any allocation.
func TestFrameLengthGuard(t *testing.T) {
	over := make([]byte, 4)
	binary.LittleEndian.PutUint32(over, uint32(maxFrameBody)+1)
	over = append(over, frameData)
	if _, err := decodeData(over); !errors.Is(err, ErrFrameCorrupt) {
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
		if _, err := decodeData(garbage); !errors.Is(err, ErrFrameCorrupt) {
			t.Errorf("garbage prefix %x: got %v, want ErrFrameCorrupt", garbage[:4], err)
		}
	}
}

// TestHelloTableRoundTrip covers the rendezvous frames, which go
// through the same reader, and a frame of the wrong type.
func TestHelloTableRoundTrip(t *testing.T) {
	frame := appendHelloFrame(nil, 3, "127.0.0.1:4242")
	rank, addr, err := (&frameReader{r: bytes.NewReader(frame)}).readHello()
	if err != nil || rank != 3 || addr != "127.0.0.1:4242" {
		t.Fatalf("hello decode: rank %d addr %q err %v", rank, addr, err)
	}

	addrs := []string{"a:1", "b:2", "", "c:3"}
	frame = appendTableFrame(nil, addrs)
	got, err := (&frameReader{r: bytes.NewReader(frame)}).readTable()
	if err != nil || !reflect.DeepEqual(addrs, got) {
		t.Fatalf("table decode: %v err %v", got, err)
	}
	if _, _, err := (&frameReader{r: bytes.NewReader(frame)}).readHello(); !errors.Is(err, errMalformedFrame) {
		t.Fatalf("table frame read as hello: got %v, want a malformed-frame error", err)
	}
}

// TestSwapWordsMatchesBigEndian: the big-endian hosts' fix-up turns a
// word's big-endian bytes into its little-endian wire bytes, for both
// word widths the codec ships.
func TestSwapWordsMatchesBigEndian(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b32 := make([]byte, 4*9)
	w32 := make([]uint32, 9)
	for i := range w32 {
		w32[i] = rng.Uint32()
		binary.BigEndian.PutUint32(b32[4*i:], w32[i])
	}
	swapWords(b32, 4)
	for i, v := range w32 {
		if got := binary.LittleEndian.Uint32(b32[4*i:]); got != v {
			t.Fatalf("32-bit word %d: got %08x, want %08x", i, got, v)
		}
	}
	b64 := make([]byte, 8*9)
	w64 := make([]uint64, 9)
	for i := range w64 {
		w64[i] = rng.Uint64()
		binary.BigEndian.PutUint64(b64[8*i:], w64[i])
	}
	swapWords(b64, 8)
	for i, v := range w64 {
		if got := binary.LittleEndian.Uint64(b64[8*i:]); got != v {
			t.Fatalf("64-bit word %d: got %016x, want %016x", i, got, v)
		}
	}
}

// TestDataFrameLenRefusesOversize: a message whose body exceeds
// maxFrameBody, or whose length would overflow the u32 prefix, is
// refused by size alone. The chunks all share one 1 MiB slice, which a
// fanned-out payload may legally do, so nothing large is allocated.
func TestDataFrameLenRefusesOversize(t *testing.T) {
	shared := make([]float64, 1<<17) // 1 MiB
	for _, n := range []int{129, 4097} {
		chs := make([]Chunk, n)
		for i := range chs {
			chs[i].Data = shared
		}
		if _, err := dataFrameLen(&Message{kind: payloadChunks, chunks: chs}); err == nil || !strings.Contains(err.Error(), "exceeds") {
			t.Errorf("%d MiB message: got %v, want a size error", n, err)
		}
	}
	if _, err := dataFrameLen(&Message{kind: payloadChunks, chunks: make([]Chunk, 127)}); err != nil {
		t.Errorf("small message refused: %v", err)
	}
}

// goldenFrame is one frame of the wire-compatibility golden file: a
// data message, or the rendezvous hello or table.
type goldenFrame struct {
	name  string
	typ   byte
	msg   *Message // frameData
	rank  int      // frameHello
	addr  string   // frameHello
	addrs []string // frameTable
}

// goldenFrames holds one message of each payload kind, every chunk
// presence-flag combination, a control frame with a negative tag, and
// the two rendezvous frames.
func goldenFrames() []goldenFrame {
	data := func(name string, kind payloadKind, set func(m *Message)) goldenFrame {
		m := &Message{Src: 2, Tag: 11, Words: 5, Depart: 1.5e-3, kind: kind}
		set(m)
		return goldenFrame{name: name, typ: frameData, msg: m}
	}
	out := []goldenFrame{
		data("floats", payloadFloats, func(m *Message) {
			m.floats = []float64{1, math.Copysign(0, -1), math.Float64frombits(0x000fffffffffffff), math.Inf(1), math.Pi}
		}),
		data("floats-empty", payloadFloats, func(m *Message) { m.floats = []float64{} }),
		data("floats32", payloadFloats32, func(m *Message) {
			m.floats32 = []float32{0.5, -3, math.SmallestNonzeroFloat32, math.MaxFloat32}
		}),
	}
	for flags := byte(0); flags < 8; flags++ {
		ch := Chunk{Origin: 3 + int(flags)}
		if flags&chunkHasData != 0 {
			ch.Data = []float64{1.25, -2}
		}
		if flags&chunkHasData32 != 0 {
			ch.Data32 = []float32{7.5}
		}
		if flags&chunkHasAux != 0 {
			ch.Aux = []int32{0, -1, 1 << 30}
		}
		out = append(out, data(fmt.Sprintf("chunk-flags-%d", flags), payloadChunk, func(m *Message) { m.chunk = ch }))
	}
	out = append(out,
		data("chunks", payloadChunks, func(m *Message) {
			m.chunks = []Chunk{
				{Origin: 0, Data: []float64{4, 5}, Aux: []int32{9, 12}},
				{Origin: 1, Data32: []float32{6}, Aux: []int32{3}},
				{Origin: 2, Data: []float64{}},
			}
		}),
		data("chunks-empty", payloadChunks, func(m *Message) { m.chunks = []Chunk{} }),
		data("any-nil", payloadAny, func(m *Message) { m.Tag = tagHeartbeat }),
		data("any-bytes", payloadAny, func(m *Message) { m.Tag, m.Data = tagAbort, []byte("rank 3 failed") }),
		data("control-barrier", payloadFloats, func(m *Message) { m.Tag, m.floats = tagBarrier, []float64{0.25} }),
		goldenFrame{name: "hello", typ: frameHello, rank: 3, addr: "127.0.0.1:4242"},
		goldenFrame{name: "table", typ: frameTable, addrs: []string{"a:1", "", "b:2"}},
	)
	return out
}

func (g goldenFrame) encode() []byte {
	switch g.typ {
	case frameHello:
		return appendHelloFrame(nil, g.rank, g.addr)
	case frameTable:
		return appendTableFrame(nil, g.addrs)
	}
	return appendDataFrame(nil, g.msg)
}

// TestFrameWireGolden: every frame kind encodes to exactly the bytes
// the per-element codec produced before the bulk one replaced it
// (testdata/wire_frames.golden, one "name hex" line per frame), and
// those bytes decode back to the message.
func TestFrameWireGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "wire_frames.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, hx, _ := strings.Cut(line, " ")
		b, err := hex.DecodeString(hx)
		if err != nil {
			t.Fatalf("golden %s: %v", name, err)
		}
		want[name] = b
	}
	cases := goldenFrames()
	if len(want) != len(cases) {
		t.Fatalf("golden file has %d frames, the test %d", len(want), len(cases))
	}
	for _, g := range cases {
		w, ok := want[g.name]
		if !ok {
			t.Fatalf("no golden frame %q", g.name)
		}
		if got := g.encode(); !bytes.Equal(got, w) {
			t.Errorf("%s: encoding drifted from the golden frame:\nwant %x\ngot  %x", g.name, w, got)
		}
		fr := &frameReader{r: bytes.NewReader(w)}
		switch g.typ {
		case frameHello:
			rank, addr, err := fr.readHello()
			if err != nil || rank != g.rank || addr != g.addr {
				t.Errorf("%s: decoded rank %d addr %q err %v", g.name, rank, addr, err)
			}
		case frameTable:
			addrs, err := fr.readTable()
			if err != nil || !reflect.DeepEqual(addrs, g.addrs) {
				t.Errorf("%s: decoded %q err %v", g.name, addrs, err)
			}
		default:
			msg, err := fr.readData()
			if err != nil || !reflect.DeepEqual(msg, g.msg) {
				t.Errorf("%s: decoded %+v err %v, want %+v", g.name, msg, err, g.msg)
			}
		}
	}
}

// FuzzReadFrame drives the one frame reader with arbitrary byte
// streams. It must never panic; every failure must be corruption, a
// truncation or a named decode error; and every frame it accepts must
// re-encode to exactly the bytes it was read from. The committed seed
// corpus (testdata/fuzz/FuzzReadFrame) holds the golden frames — every
// payload kind, both wires, every chunk-flag combination — plus a
// truncated frame, a bad CRC, oversized counts with and without a
// matching CRC, unknown kind and flag bytes, a frame of the wrong type
// and two frames back to back.
func FuzzReadFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		fr := &frameReader{r: r}
		start := 0
		for {
			// A frame may declare up to maxFrameBody, and counts are
			// bounded by the declared length, not by the bytes present:
			// keep the fuzzer's allocations near its input sizes.
			if r.Len() >= 5 && int(binary.LittleEndian.Uint32(data[start:])) > r.Len()+1<<16 {
				return
			}
			var typ byte
			if r.Len() >= 5 {
				typ = data[start+4]
			}
			var again []byte
			var err error
			switch typ {
			case frameHello:
				var rank int
				var addr string
				if rank, addr, err = fr.readHello(); err == nil {
					again = appendHelloFrame(nil, rank, addr)
				}
			case frameTable:
				var addrs []string
				if addrs, err = fr.readTable(); err == nil {
					again = appendTableFrame(nil, addrs)
				}
			default:
				var msg *Message
				if msg, err = fr.readData(); err == nil {
					again = appendDataFrame(nil, msg)
				}
			}
			end := len(data) - r.Len()
			if err != nil {
				if err != io.EOF && !errors.Is(err, ErrFrameCorrupt) && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, errMalformedFrame) {
					t.Fatalf("frame at %d: unnamed failure %v", start, err)
				}
				return
			}
			if !bytes.Equal(again, data[start:end]) {
				t.Fatalf("frame at %d does not re-encode to its bytes:\nread %x\nout  %x", start, data[start:end], again)
			}
			start = end
		}
	})
}
