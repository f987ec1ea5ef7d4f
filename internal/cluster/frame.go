package cluster

// Wire frames for the tcp transport: every message crosses a connection
// as one length-prefixed, checksummed frame,
//
//	[u32 length][u8 type][body…][u32 crc]
//
// with all integers little-endian and every float64/float32 shipped as
// its IEEE-754 bit pattern. Bit-pattern encoding is what lets the
// conformance suite demand *bit-identical* reduce results across
// backends: a value survives the wire exactly, including negative zeros
// and subnormals. A payload array's wire bytes are its little-endian
// memory, so on a little-endian host each array is encoded and decoded
// as one copy of its byte view; a big-endian host runs the same copy
// and swaps each word in place.
//
// length counts the type byte plus the body (not the trailer); crc is
// the CRC32-C (Castagnoli) of type+body. The reader decodes a frame
// straight from the stream into its destination buffers and checks the
// CRC over the bytes as they arrive; a message is returned only after
// the trailer has matched. A flipped bit anywhere in a frame therefore
// surfaces as ErrFrameCorrupt with the sending rank attributed by the
// transport — never as a silently wrong gradient — and a decode error
// caused by corruption reports as corruption too, because the reader
// drains the rest of the declared body and checks the CRC before
// reporting it. The length prefix is bounded by maxFrameBody, and every
// element count by the declared body that remains, so what a corrupt or
// hostile frame can make the reader allocate is bounded by the length
// it declares.
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
	"slices"
	"unsafe"
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
// Senders refuse a larger message before encoding it (dataFrameLen).
const maxFrameBody = 1 << 27

// Encoded sizes of the fixed parts of a frame.
const (
	msgHeader   = 4*8 + 1 // src, tag, words, depart, payload kind
	chunkHeader = 8 + 1   // origin, presence flags
)

// crcTable is the Castagnoli polynomial (hardware-accelerated on
// amd64/arm64), the standard choice for storage/network integrity.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrFrameCorrupt marks frames that failed integrity checks — a CRC
// mismatch or an insane length prefix. The transport attributes it to
// the sending rank; errors.Is lets callers distinguish corruption from
// an ordinary torn connection.
var ErrFrameCorrupt = errors.New("frame corrupt")

// errMalformedFrame marks a frame whose CRC matched but whose body does
// not decode: a sender bug, never on-wire damage.
var errMalformedFrame = errors.New("malformed frame")

// nativeLittle reports a little-endian host, where a payload array's
// memory already is its wire encoding.
var nativeLittle = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// byteView is the native-order byte view of a payload array, which the
// codec copies in one piece instead of element by element.
func byteView[T float64 | float32 | int32](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0])))
}

// swapWords reverses the bytes of every width-byte word of b in place:
// on a big-endian host it turns a payload array's native bytes into
// the wire's little-endian ones and back.
func swapWords(b []byte, width int) {
	for i := 0; i+width <= len(b); i += width {
		slices.Reverse(b[i : i+width])
	}
}

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

// dataFrameLen returns the encoded size of msg's frame, prefix and
// trailer included, so the sender can draw a buffer that fits before
// encoding. A body above maxFrameBody is refused here: every receiver
// would reject it as corrupt, so the error belongs to the sender.
func dataFrameLen(msg *Message) (int, error) {
	body := int64(1 + msgHeader) // the type byte counts as body
	switch msg.kind {
	case payloadFloats:
		body += 4 + 8*int64(len(msg.floats))
	case payloadFloats32:
		body += 4 + 4*int64(len(msg.floats32))
	case payloadChunk:
		body += chunkLen(&msg.chunk)
	case payloadChunks:
		body += 4
		for i := range msg.chunks {
			body += chunkLen(&msg.chunks[i])
		}
	case payloadAny:
		body++
		if b, ok := msg.Data.([]byte); ok {
			body += 4 + int64(len(b))
		}
	}
	if body > maxFrameBody {
		return 0, fmt.Errorf("%d-byte frame body exceeds the %d-byte limit", body, maxFrameBody)
	}
	return 4 + int(body) + 4, nil
}

func chunkLen(ch *Chunk) int64 {
	n := int64(chunkHeader)
	if ch.Data != nil {
		n += 4 + 8*int64(len(ch.Data))
	}
	if ch.Data32 != nil {
		n += 4 + 4*int64(len(ch.Data32))
	}
	if ch.Aux != nil {
		n += 4 + 4*int64(len(ch.Aux))
	}
	return n
}

type frameEncoder struct {
	buf []byte
}

func (e *frameEncoder) u8(v byte)      { e.buf = append(e.buf, v) }
func (e *frameEncoder) u32(v uint32)   { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *frameEncoder) u64(v uint64)   { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *frameEncoder) i64(v int64)    { e.u64(uint64(v)) }
func (e *frameEncoder) f64(v float64)  { e.u64(math.Float64bits(v)) }
func (e *frameEncoder) bytes(b []byte) { e.u32(uint32(len(b))); e.buf = append(e.buf, b...) }

// writeWords appends a payload array's element count and its wire
// bytes: one copy of its byte view.
func writeWords[T float64 | float32 | int32](e *frameEncoder, x []T) {
	e.u32(uint32(len(x)))
	start := len(e.buf)
	e.buf = append(e.buf, byteView(x)...)
	if !nativeLittle {
		swapWords(e.buf[start:], int(unsafe.Sizeof(T(0))))
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
		writeWords(e, ch.Data)
	}
	if ch.Data32 != nil {
		writeWords(e, ch.Data32)
	}
	if ch.Aux != nil {
		writeWords(e, ch.Aux)
	}
}

// appendDataFrame encodes msg as a complete frameData (length prefix
// included) onto buf and returns the extended slice; a buf with room
// for dataFrameLen(msg) more bytes is never regrown. It panics on a
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
		writeWords(&e, msg.floats)
	case payloadFloats32:
		writeWords(&e, msg.floats32)
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

// writeFrame writes a fully encoded frame (prefix included) to w.
func writeFrame(w io.Writer, frame []byte) error {
	_, err := w.Write(frame)
	return err
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

func appendTableFrame(buf []byte, addrs []string) []byte {
	e := frameEncoder{buf: append(buf, 0, 0, 0, 0, frameTable)}
	e.u32(uint32(len(addrs)))
	for _, a := range addrs {
		e.bytes([]byte(a))
	}
	return finishFrame(e.buf, len(buf))
}

// frameReader is the one frame reader: it decodes each frame straight
// from the stream, fixed fields through its scratch buffer and each
// payload array into its destination — drawn from pools when set (the
// tcp receive path, where the local rank's pools are in shared, locked
// mode because this runs on a connection reader goroutine), freshly
// allocated and GC-owned when nil (rendezvous, tests). A connection
// keeps one frameReader for its lifetime, so a steady-state read
// allocates nothing.
//
// After any decode error the reader drains the rest of the declared
// body and checks the trailer before reporting: a CRC mismatch outranks
// the decode error. A read that fails leaves its message and buffers to
// the GC; the connection it came from is finished.
type frameReader struct {
	r       io.Reader
	pools   *rankPools
	left    int       // declared body bytes not yet read
	crc     uint32    // CRC32-C of the type byte and the body read so far
	err     error     // first decode error (wraps errMalformedFrame)
	ioErr   error     // the stream failed mid-frame; nothing more is read
	scratch [512]byte // fixed fields, header and trailer; the drain's step
}

// begin reads a frame's length prefix and type byte. An unexpected type
// is a decode error, reported after the CRC check like any other.
func (d *frameReader) begin(want byte) error {
	hdr := d.scratch[:5]
	if _, err := io.ReadFull(d.r, hdr); err != nil {
		return err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n < 1 || n > maxFrameBody {
		return fmt.Errorf("%w: invalid frame length %d (max %d)", ErrFrameCorrupt, n, maxFrameBody)
	}
	d.left, d.err, d.ioErr = int(n)-1, nil, nil
	d.crc = crc32.Checksum(hdr[4:], crcTable)
	if hdr[4] != want {
		d.fail("frame type %d, want %d", hdr[4], want)
	}
	return nil
}

// end drains what the decode left of the declared body, then checks
// the CRC trailer.
func (d *frameReader) end() error {
	if d.err == nil && d.left > 0 {
		d.fail("%d trailing bytes", d.left)
	}
	for d.left > 0 && d.ioErr == nil {
		d.readRaw(d.scratch[:min(d.left, len(d.scratch))])
	}
	trailer := d.scratch[:4]
	if d.ioErr == nil {
		if _, err := io.ReadFull(d.r, trailer); err != nil {
			d.ioErr = unexpectedEOF(err)
		}
	}
	if d.ioErr != nil {
		return fmt.Errorf("truncated frame: %w", d.ioErr)
	}
	if want := binary.LittleEndian.Uint32(trailer); d.crc != want {
		return fmt.Errorf("%w: crc %08x, frame declares %08x", ErrFrameCorrupt, d.crc, want)
	}
	return d.err
}

// unexpectedEOF turns a clean EOF inside a frame into the truncation it
// is.
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

func (d *frameReader) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", errMalformedFrame, fmt.Sprintf(format, args...))
	}
}

func (d *frameReader) ok() bool { return d.err == nil && d.ioErr == nil }

// readRaw fills p from the stream and folds it into the CRC.
func (d *frameReader) readRaw(p []byte) {
	if _, err := io.ReadFull(d.r, p); err != nil {
		d.ioErr = unexpectedEOF(err)
		return
	}
	d.crc = crc32.Update(d.crc, crcTable, p)
	d.left -= len(p)
}

// read fills p from the body, which may not run past the declared
// length; it reports false once the frame has failed.
func (d *frameReader) read(p []byte) bool {
	if !d.ok() {
		return false
	}
	if len(p) > d.left {
		d.fail("%d-byte field, %d body bytes remain", len(p), d.left)
		return false
	}
	d.readRaw(p)
	return d.ioErr == nil
}

// fixed reads n bytes of fixed-size fields in one read through the
// scratch buffer; they read as zeros once the frame has failed.
func (d *frameReader) fixed(n int) []byte {
	b := d.scratch[:n]
	if !d.read(b) {
		clear(b)
	}
	return b
}

func (d *frameReader) u8() byte    { return d.fixed(1)[0] }
func (d *frameReader) u32() uint32 { return binary.LittleEndian.Uint32(d.fixed(4)) }
func (d *frameReader) i64() int64  { return int64(binary.LittleEndian.Uint64(d.fixed(8))) }

// count reads an element count and bounds it by the body that remains:
// count elements of at least minSize bytes each must fit, so a corrupt
// count cannot size an allocation past the declared length.
func (d *frameReader) count(minSize int) int {
	n := d.u32()
	if uint64(n)*uint64(minSize) > uint64(d.left) {
		d.fail("count %d of %d-byte elements, %d body bytes remain", n, minSize, d.left)
		return 0
	}
	return int(n)
}

func (d *frameReader) bytes() []byte {
	n := d.count(1)
	if !d.ok() {
		return nil
	}
	out := make([]byte, n)
	d.read(out)
	return out
}

// readWords reads a payload array's count and then its wire bytes
// straight into the destination's byte view: a buffer from get when
// the reader has pools, a fresh one otherwise.
func readWords[T float64 | float32 | int32](d *frameReader, get func(*rankPools, int) []T) []T {
	width := int(unsafe.Sizeof(T(0)))
	n := d.count(width)
	if !d.ok() {
		return nil
	}
	var out []T
	if d.pools != nil {
		out = get(d.pools, n)
	} else {
		out = make([]T, n)
	}
	if b := byteView(out); d.read(b) && !nativeLittle {
		swapWords(b, width)
	}
	return out
}

func (d *frameReader) floats() []float64   { return readWords(d, (*rankPools).getFloats) }
func (d *frameReader) floats32() []float32 { return readWords(d, (*rankPools).getFloats32) }
func (d *frameReader) int32s() []int32     { return readWords(d, (*rankPools).getInts) }

func (d *frameReader) chunk() Chunk {
	var ch Chunk
	hdr := d.fixed(chunkHeader)
	ch.Origin = int(int64(binary.LittleEndian.Uint64(hdr)))
	flags := hdr[8]
	if flags&^(chunkHasData|chunkHasData32|chunkHasAux) != 0 {
		d.fail("unknown chunk flags %#x", flags)
	}
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

// readData reads one frameData. With pools set the message shell and
// its payload buffers come from the local rank's pools, making the
// receiver-returns ownership protocol symmetric with inproc: the
// receiver folds the contents and Puts the buffer back, and the steady
// state allocates nothing.
func (d *frameReader) readData() (*Message, error) {
	if err := d.begin(frameData); err != nil {
		return nil, err
	}
	pools := d.pools
	var msg *Message
	if pools != nil {
		msg = pools.getMsg()
	} else {
		msg = &Message{}
	}
	env := d.fixed(msgHeader)
	le := binary.LittleEndian
	msg.Src = int(int64(le.Uint64(env)))
	msg.Tag = int(int64(le.Uint64(env[8:])))
	msg.Words = int(int64(le.Uint64(env[16:])))
	msg.Depart = math.Float64frombits(le.Uint64(env[24:]))
	msg.kind = payloadKind(env[32])
	switch msg.kind {
	case payloadFloats:
		msg.floats = d.floats()
	case payloadFloats32:
		msg.floats32 = d.floats32()
	case payloadChunk:
		msg.chunk = d.chunk()
	case payloadChunks:
		n := d.count(chunkHeader)
		var chs []Chunk
		if pools != nil {
			chs = pools.getChunks(n)[:0]
		} else {
			chs = make([]Chunk, 0, n)
		}
		for i := 0; i < n && d.ok(); i++ {
			chs = append(chs, d.chunk())
		}
		msg.chunks = chs
	case payloadAny:
		switch marker := d.u8(); marker {
		case anyNil:
		case anyBytes:
			msg.Data = d.bytes()
		default:
			d.fail("unknown generic-payload marker %d", marker)
		}
	default:
		d.fail("unknown payload kind %d", msg.kind)
	}
	if err := d.end(); err != nil {
		return nil, err
	}
	return msg, nil
}

// readHello reads one frameHello.
func (d *frameReader) readHello() (rank int, addr string, err error) {
	if err := d.begin(frameHello); err != nil {
		return 0, "", err
	}
	rank = int(d.i64())
	addr = string(d.bytes())
	if err := d.end(); err != nil {
		return 0, "", err
	}
	return rank, addr, nil
}

// readTable reads one frameTable. The table grows as entries arrive
// rather than from the declared count, which a hostile frame controls.
func (d *frameReader) readTable() ([]string, error) {
	if err := d.begin(frameTable); err != nil {
		return nil, err
	}
	n := d.count(4)
	var addrs []string
	for i := 0; i < n && d.ok(); i++ {
		addrs = append(addrs, string(d.bytes()))
	}
	if err := d.end(); err != nil {
		return nil, err
	}
	return addrs, nil
}
