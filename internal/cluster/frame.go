package cluster

// Wire frames for the tcp transport: every message crosses a connection
// as one length-prefixed, checksummed frame,
//
//	[u32 length][u8 type][body…][u32 crc]
//
// with all integers little-endian and every float64/float32 shipped as
// its IEEE-754 bit pattern (math.Float64bits / Float32bits). Bit-pattern
// encoding is what lets the conformance suite demand *bit-identical*
// reduce results across backends: a value survives the wire exactly,
// including negative zeros and subnormals.
//
// length counts the type byte plus the body (not the trailer); crc is
// the CRC32-C (Castagnoli) of type+body. A reader verifies the checksum
// before decoding anything, so a flipped bit anywhere in a frame
// surfaces as ErrFrameCorrupt with the sending rank attributed by the
// transport — never as a silently wrong gradient. The length prefix is
// bounded by maxFrameBody before any allocation, so a corrupt or
// hostile prefix cannot provoke a giant allocation either.
//
// frameData carries one Message with the same typed payload kinds the
// inproc mailbox passes by pointer (floats, floats32, Chunk, []Chunk,
// plus nil and []byte for the generic kind — the only generic payloads
// the runtime itself produces: the Group dissemination barrier sends
// nil, the control-plane gather sends blobs). A Chunk's Data/Data32/
// Aux presence is encoded explicitly so the receiver reconstructs the
// exact nil-ness the collectives branch on.
//
// frameHello and frameTable are the rendezvous handshake (tcp.go).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

const (
	frameData  byte = 1
	frameHello byte = 2
	frameTable byte = 3
)

// maxFrameBody bounds a frame a reader will accept: a corrupt or
// malicious length prefix must not provoke a giant allocation. 128 MiB
// is ~16M float64 words — an order of magnitude above the largest
// single message any collective at tcp scale ships, and small enough
// that even a worst-case bogus prefix costs one bounded allocation.
const maxFrameBody = 1 << 27

// crcTable is the Castagnoli polynomial (hardware-accelerated on
// amd64/arm64), the standard choice for storage/network integrity.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrFrameCorrupt marks frames that failed integrity checks — a CRC
// mismatch or an insane length prefix. The transport attributes it to
// the sending rank; errors.Is lets callers distinguish corruption from
// an ordinary torn connection.
var ErrFrameCorrupt = errors.New("frame corrupt")

// finishFrame completes a frame started at offset start in buf: it
// back-fills the u32 length prefix (type byte + body) and appends the
// CRC32-C trailer over type+body.
func finishFrame(buf []byte, start int) []byte {
	body := len(buf) - start - 4
	binary.LittleEndian.PutUint32(buf[start:], uint32(body))
	crc := crc32.Checksum(buf[start+4:], crcTable)
	return binary.LittleEndian.AppendUint32(buf, crc)
}

// Generic-payload markers inside a frameData body.
const (
	anyNil   byte = 0
	anyBytes byte = 1
)

// Chunk field-presence flags.
const (
	chunkHasData   byte = 1 << 0
	chunkHasData32 byte = 1 << 1
	chunkHasAux    byte = 1 << 2
)

type frameEncoder struct {
	buf []byte
}

func (e *frameEncoder) u8(v byte)      { e.buf = append(e.buf, v) }
func (e *frameEncoder) u32(v uint32)   { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *frameEncoder) u64(v uint64)   { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *frameEncoder) i64(v int64)    { e.u64(uint64(v)) }
func (e *frameEncoder) f64(v float64)  { e.u64(math.Float64bits(v)) }
func (e *frameEncoder) bytes(b []byte) { e.u32(uint32(len(b))); e.buf = append(e.buf, b...) }

func (e *frameEncoder) floats(x []float64) {
	e.u32(uint32(len(x)))
	for _, v := range x {
		e.u64(math.Float64bits(v))
	}
}

func (e *frameEncoder) floats32(x []float32) {
	e.u32(uint32(len(x)))
	for _, v := range x {
		e.buf = binary.LittleEndian.AppendUint32(e.buf, math.Float32bits(v))
	}
}

func (e *frameEncoder) int32s(x []int32) {
	e.u32(uint32(len(x)))
	for _, v := range x {
		e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(v))
	}
}

func (e *frameEncoder) chunk(ch *Chunk) {
	e.i64(int64(ch.Origin))
	var flags byte
	if ch.Data != nil {
		flags |= chunkHasData
	}
	if ch.Data32 != nil {
		flags |= chunkHasData32
	}
	if ch.Aux != nil {
		flags |= chunkHasAux
	}
	e.u8(flags)
	if ch.Data != nil {
		e.floats(ch.Data)
	}
	if ch.Data32 != nil {
		e.floats32(ch.Data32)
	}
	if ch.Aux != nil {
		e.int32s(ch.Aux)
	}
}

// appendDataFrame encodes msg as a complete frameData (length prefix
// included) onto buf and returns the extended slice. It panics on a
// generic payload it cannot represent — the runtime itself only ever
// sends nil and []byte generically; tests exercising other `any`
// payloads are inproc-only by design.
func appendDataFrame(buf []byte, msg *Message) []byte {
	e := frameEncoder{buf: append(buf, 0, 0, 0, 0, frameData)}
	e.i64(int64(msg.Src))
	e.i64(int64(msg.Tag))
	e.i64(int64(msg.Words))
	e.f64(msg.Depart)
	e.u8(byte(msg.kind))
	switch msg.kind {
	case payloadFloats:
		e.floats(msg.floats)
	case payloadFloats32:
		e.floats32(msg.floats32)
	case payloadChunk:
		e.chunk(&msg.chunk)
	case payloadChunks:
		e.u32(uint32(len(msg.chunks)))
		for i := range msg.chunks {
			e.chunk(&msg.chunks[i])
		}
	case payloadAny:
		switch d := msg.Data.(type) {
		case nil:
			e.u8(anyNil)
		case []byte:
			e.u8(anyBytes)
			e.bytes(d)
		default:
			panic(fmt.Sprintf("cluster: tcp transport cannot ship generic payload %T (tag %d); use the typed Send variants", msg.Data, msg.Tag))
		}
	}
	return finishFrame(e.buf, len(buf))
}

// frameDecoder walks a frame body. When pools is set (the tcp
// steady-state receive path), payload slices and chunk containers are
// drawn from those rank pools instead of fresh allocations — the pools
// are in shared (locked) mode there, because this decoder runs on a
// connection reader goroutine while the rank goroutine Gets and Puts.
// A nil pools decodes into fresh GC-owned buffers (rendezvous frames,
// tests).
type frameDecoder struct {
	buf   []byte
	off   int
	err   error
	pools *rankPools
}

func (d *frameDecoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("truncated frame: %s at offset %d of %d", what, d.off, len(d.buf))
	}
}

func (d *frameDecoder) u8() byte {
	if d.off+1 > len(d.buf) {
		d.fail("u8")
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *frameDecoder) u32() uint32 {
	if d.off+4 > len(d.buf) {
		d.fail("u32")
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

func (d *frameDecoder) u64() uint64 {
	if d.off+8 > len(d.buf) {
		d.fail("u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *frameDecoder) i64() int64   { return int64(d.u64()) }
func (d *frameDecoder) f64() float64 { return math.Float64frombits(d.u64()) }

// n returns a validated element count: the remaining bytes must be able
// to hold n elements of the given size, so a corrupt count cannot force
// a huge allocation.
func (d *frameDecoder) n(elemSize int) int {
	n := int(d.u32())
	if d.err == nil && n*elemSize > len(d.buf)-d.off {
		d.fail("element count")
		return 0
	}
	return n
}

func (d *frameDecoder) bytes() []byte {
	n := d.n(1)
	if d.err != nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, d.buf[d.off:])
	d.off += n
	return out
}

func (d *frameDecoder) floats() []float64 {
	n := d.n(8)
	if d.err != nil {
		return nil
	}
	var out []float64
	if d.pools != nil {
		out = d.pools.getFloats(n)
	} else {
		out = make([]float64, n)
	}
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
		d.off += 8
	}
	return out
}

func (d *frameDecoder) floats32() []float32 {
	n := d.n(4)
	if d.err != nil {
		return nil
	}
	var out []float32
	if d.pools != nil {
		out = d.pools.getFloats32(n)
	} else {
		out = make([]float32, n)
	}
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(d.buf[d.off:]))
		d.off += 4
	}
	return out
}

func (d *frameDecoder) int32s() []int32 {
	n := d.n(4)
	if d.err != nil {
		return nil
	}
	var out []int32
	if d.pools != nil {
		out = d.pools.getInts(n)
	} else {
		out = make([]int32, n)
	}
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(d.buf[d.off:]))
		d.off += 4
	}
	return out
}

func (d *frameDecoder) chunk() Chunk {
	var ch Chunk
	ch.Origin = int(d.i64())
	flags := d.u8()
	if flags&chunkHasData != 0 {
		ch.Data = d.floats()
	}
	if flags&chunkHasData32 != 0 {
		ch.Data32 = d.floats32()
	}
	if flags&chunkHasAux != 0 {
		ch.Aux = d.int32s()
	}
	return ch
}

// decodeDataFrame reconstructs a Message from a frameData body (type
// byte already consumed). With pools set (the tcp receive path) the
// message shell and its payload buffers come from the local rank's
// shared-mode pools, making the receiver-returns ownership protocol
// symmetric with inproc: the receiver folds the contents and Puts the
// buffer back, and the steady state allocates nothing. With pools nil,
// all buffers are freshly allocated and GC-owned (rendezvous, tests).
func decodeDataFrame(body []byte, pools *rankPools) (*Message, error) {
	d := frameDecoder{buf: body, pools: pools}
	var msg *Message
	if pools != nil {
		msg = pools.getMsg()
	} else {
		msg = &Message{}
	}
	msg.Src = int(d.i64())
	msg.Tag = int(d.i64())
	msg.Words = int(d.i64())
	msg.Depart = d.f64()
	msg.kind = payloadKind(d.u8())
	switch msg.kind {
	case payloadFloats:
		msg.floats = d.floats()
	case payloadFloats32:
		msg.floats32 = d.floats32()
	case payloadChunk:
		msg.chunk = d.chunk()
	case payloadChunks:
		n := d.n(1)
		var chs []Chunk
		if pools != nil {
			chs = pools.getChunks(n)[:0]
		} else {
			chs = make([]Chunk, 0, n)
		}
		for i := 0; i < n && d.err == nil; i++ {
			chs = append(chs, d.chunk())
		}
		msg.chunks = chs
	case payloadAny:
		switch marker := d.u8(); marker {
		case anyNil:
		case anyBytes:
			msg.Data = d.bytes()
		default:
			return nil, fmt.Errorf("unknown generic-payload marker %d", marker)
		}
	default:
		return nil, fmt.Errorf("unknown payload kind %d", msg.kind)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(body) {
		return nil, fmt.Errorf("frame has %d trailing bytes", len(body)-d.off)
	}
	return msg, nil
}

// writeFrame writes a fully encoded frame (prefix included) to w.
func writeFrame(w io.Writer, frame []byte) error {
	_, err := w.Write(frame)
	return err
}

// readFrame reads one frame from r, returning its type byte and a
// freshly allocated body, after verifying the length bound and the
// CRC32-C trailer. Integrity failures wrap ErrFrameCorrupt. The
// steady-state read path uses readFrameInto instead.
func readFrame(r io.Reader) (byte, []byte, error) {
	return readFrameInto(r, nil)
}

// readFrameInto is readFrame with a caller-retained body buffer: the
// returned body slice reuses buf's capacity when it fits (growing it
// otherwise), so a connection reader that passes its previous body back
// in reads every frame with zero allocations. The returned body is only
// valid until the next call with the same buffer; decoders copy out of
// it. On error the (possibly grown) buffer is discarded along with the
// connection — readers never survive a bad frame.
func readFrameInto(r io.Reader, buf []byte) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, buf, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n < 1 || n > maxFrameBody {
		return 0, buf, fmt.Errorf("%w: invalid frame length %d (max %d)", ErrFrameCorrupt, n, maxFrameBody)
	}
	need := int(n) - 1 + 4 // body + crc trailer
	var body []byte
	if cap(buf) >= need {
		body = buf[:need]
	} else {
		body = make([]byte, need)
	}
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, buf, fmt.Errorf("truncated frame body: %w", err)
	}
	want := binary.LittleEndian.Uint32(body[n-1:])
	body = body[:n-1]
	crc := crc32.Update(crc32.Checksum(hdr[4:5], crcTable), crcTable, body)
	if crc != want {
		return 0, buf, fmt.Errorf("%w: crc %08x, frame declares %08x", ErrFrameCorrupt, crc, want)
	}
	return hdr[4], body, nil
}

// Rendezvous handshake frames. hello: a joining rank announces itself
// and its own listen address; table: rank 0 broadcasts every rank's
// listen address once all have joined.

func appendHelloFrame(buf []byte, rank int, addr string) []byte {
	e := frameEncoder{buf: append(buf, 0, 0, 0, 0, frameHello)}
	e.i64(int64(rank))
	e.bytes([]byte(addr))
	return finishFrame(e.buf, len(buf))
}

func decodeHelloFrame(body []byte) (rank int, addr string, err error) {
	d := frameDecoder{buf: body}
	rank = int(d.i64())
	addr = string(d.bytes())
	return rank, addr, d.err
}

func appendTableFrame(buf []byte, addrs []string) []byte {
	e := frameEncoder{buf: append(buf, 0, 0, 0, 0, frameTable)}
	e.u32(uint32(len(addrs)))
	for _, a := range addrs {
		e.bytes([]byte(a))
	}
	return finishFrame(e.buf, len(buf))
}

func decodeTableFrame(body []byte) ([]string, error) {
	d := frameDecoder{buf: body}
	n := d.n(4)
	addrs := make([]string, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		addrs = append(addrs, string(d.bytes()))
	}
	return addrs, d.err
}
