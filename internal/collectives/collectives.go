// Package collectives implements the dense collective algorithms the
// paper builds on and compares against, on top of the cluster runtime:
//
//   - Allreduce via Rabenseifner's algorithm (recursive-halving
//     reduce-scatter followed by recursive-doubling allgather), which
//     attains the 2n(P−1)/P bandwidth lower bound cited in Table 1, with
//     a ring fallback for non-power-of-two P;
//   - ring allreduce (the bucketed variant DenseOvlp chops into);
//   - recursive-doubling allgather and allgatherv;
//   - binomial-tree broadcast, reduce and gather.
//
// Both allreduce schedules also reduce out of a read-only source
// (AllreduceFrom): no block of the result is written before that block
// of the source has been read, so a caller that keeps its input (the
// dense algorithms' acc) needs no copy of it. Their partial sums go
// straight into the next message, and what they receive in wire form
// they send on as it is.
//
// Word accounting follows the paper: on the default f64 wire every
// transmitted element (value or index) is one word. On the f32 wire
// (cluster.WireF32) values are rounded to float32 at the send edge and
// every 4-byte element counts half a word, halving all β terms; where a
// rank keeps data it also transmits (the owned block of a
// reduce-scatter, a broadcast root's buffer), the kept copy is rounded
// through the same precision so every rank holds bit-identical results.
// The owned block is rounded in the same pass that completes its
// reduction and writes it into the first allgather send.
//
// All point-to-point payloads ride the typed, pooled message paths of
// the cluster runtime (SendFloats/SendFloat32s/SendChunk/SendChunks),
// so a collective in steady state allocates nothing: outgoing copies
// come from the sender's rank pool and are released into the
// receiver's.
package collectives

import (
	"math/bits"

	"repro/internal/cluster"
)

// Tag bases; each collective offsets by the internal step so composed
// algorithms never collide. Non-overtaking (src,dst,tag) FIFO order makes
// reuse across successive collective calls safe.
const (
	tagAllreduce = 1 << 20
	tagAllgather = 2 << 20
	tagBcast     = 3 << 20
	tagReduce    = 4 << 20
	tagVGather   = 6 << 20
)

func isPow2(p int) bool { return p > 0 && p&(p-1) == 0 }

// blockRange splits n elements into size nearly equal blocks and returns
// the [lo, hi) range of block r. Early blocks get the remainder, matching
// MPI's reduce-scatter block convention.
func blockRange(n, size, r int) (int, int) {
	base := n / size
	rem := n % size
	lo := r*base + min(r, rem)
	hi := lo + base
	if r < rem {
		hi++
	}
	return lo, hi
}

// Allreduce sums x element-wise across all ranks, leaving the full result
// in x on every rank: AllreduceFrom with x as its own source.
func Allreduce(cm cluster.Endpoint, x []float64) {
	AllreduceFrom(cm, x, x)
}

// AllreduceFrom sums src element-wise across all ranks and leaves the
// full result in x on every rank. src is only read, and may be x
// itself. Reducing from a separate src saves a caller that must keep
// its input the copy into x: no schedule writes a block of x before it
// has read that block of src. It dispatches to Rabenseifner's algorithm
// for power-of-two cluster sizes and to the ring algorithm otherwise;
// both achieve the 2n(P−1)/P bandwidth term.
func AllreduceFrom(cm cluster.Endpoint, src, x []float64) {
	if len(src) != len(x) {
		panic("collectives: allreduce source and result lengths differ")
	}
	switch {
	case cm.Size() == 1:
		copy(x, src)
	case isPow2(cm.Size()):
		if cm.Wire() == cluster.WireF32 {
			allreduceRabenseifner[float32](cm, src, x)
		} else {
			allreduceRabenseifner[float64](cm, src, x)
		}
	default:
		allreduceRingWire(cm, src, x)
	}
}

// halves splits [lo, hi) for the exchange at distance dist: the rank
// with that bit clear keeps the lower half and sends the upper one.
func halves(lo, hi, rank, dist int) (sendLo, sendHi, keepLo, keepHi int) {
	mid := lo + (hi-lo)/2
	if rank&dist == 0 {
		return mid, hi, lo, mid
	}
	return lo, mid, mid, hi
}

// allreduceRabenseifner: recursive halving reduce-scatter, then recursive
// doubling allgather, over wire values of type T. Requires power-of-two
// size P > 1.
//
// No value is derived twice, and no sum that leaves is parked in x:
//   - every reduce-scatter step but the last writes the half of its
//     kept range that the next step sends as T(from + received)
//     straight into that send's pooled buffer; only the other half
//     goes to x;
//   - step 0's received buffer spans the step-0 kept range; once its
//     values are summed it is kept as g, the allgather's last message;
//   - the last step completes the owned block in wire precision
//     (recvAddSend) and also writes it into g;
//   - allgather receives before the last widen into x and copy their
//     wire values into g, so the last send is g itself and the ones
//     between (P ≥ 8) are copies of a part of it.
func allreduceRabenseifner[T wireVal](cm cluster.Endpoint, src, x []float64) {
	p, rank, n := cm.Size(), cm.Rank(), len(x)
	// Reduce-scatter by recursive halving. At step s the active range
	// halves; each rank exchanges the half it will not own with its
	// partner at distance p>>(s+1). Step 0 reads src; later steps read
	// the partial sums in x. Ranges are recorded so the reverse
	// allgather handles odd-size halves exactly. The span stack is tiny
	// (log₂P entries) and lives on the stack.
	lo, hi := 0, n
	steps := bits.Len(uint(p)) - 1
	type span struct{ lo, hi int }
	var spanBuf [32]span
	parents := spanBuf[:0]
	from := src
	var send, g []T // the next step's message; the allgather's last one
	gLo := 0
	for s := 0; s < steps; s++ {
		dist := p >> (s + 1)
		partner := rank ^ dist
		parents = append(parents, span{lo, hi})
		sendLo, sendHi, keepLo, keepHi := halves(lo, hi, rank, dist)
		tag := tagAllreduce + s
		if s == 0 {
			sendFrom[T](cm, partner, tag, src[sendLo:sendHi])
		} else {
			sendBuf(cm, partner, tag, send)
		}
		if s < steps-1 {
			// Step s+1 sends one half of the kept range: its sums go
			// into that message, the other half's into x.
			nsLo, nsHi, nkLo, nkHi := halves(keepLo, keepHi, rank, dist>>1)
			recv := recvToReduce[T](cm, partner, tag, keepHi-keepLo)
			send = getBuf[T](cm, nsHi-nsLo)
			addWire(send, from[nsLo:nsHi], recv[nsLo-keepLo:nsHi-keepLo])
			addInto(x[nkLo:nkHi], from[nkLo:nkHi], recv[nkLo-keepLo:nkHi-keepLo])
			if s == 0 {
				// The step-0 payload spans the step-0 kept range,
				// exactly g's: with its values summed, it becomes g.
				g, gLo = recv, keepLo
			} else {
				putBuf(cm, recv)
			}
		} else {
			// The last receive completes the owned block, which goes
			// straight back to the same partner as the allgather's first
			// send, and into g for the allgather's last.
			var keep []T
			if steps > 1 {
				keep = g[keepLo-gLo : keepHi-gLo]
			}
			recvAddSend(cm, partner, tag, from[keepLo:keepHi], x[keepLo:keepHi], keep, partner, tagAllreduce+1024+s)
		}
		from = x
		lo, hi = keepLo, keepHi
	}
	// Allgather by recursive doubling: reverse the halving, restoring
	// each parent range by exchanging the complementary half. The first
	// step's send, the owned block, already left with the last
	// reduce-scatter receive. Every range sent after it lies in g.
	for s := steps - 1; s >= 0; s-- {
		dist := p >> (s + 1)
		partner := rank ^ dist
		parent := parents[s]
		var partnerLo, partnerHi int
		if lo == parent.lo {
			partnerLo, partnerHi = hi, parent.hi
		} else {
			partnerLo, partnerHi = parent.lo, lo
		}
		tag := tagAllreduce + 1024 + s
		switch {
		case s == 0 && steps > 1:
			sendBuf(cm, partner, tag, g)
		case s < steps-1:
			out := getBuf[T](cm, hi-lo)
			copy(out, g[lo-gLo:hi-gLo])
			sendBuf(cm, partner, tag, out)
		}
		var keep []T
		if s > 0 {
			keep = g[partnerLo-gLo : partnerHi-gLo]
		}
		putBuf(cm, recvWiden(cm, partner, tag, x[partnerLo:partnerHi], keep))
		lo, hi = parent.lo, parent.hi
	}
}

// AllreduceRing is the bandwidth-optimal ring allreduce of x in place:
// P−1 steps of reduce-scatter around the ring followed by P−1 steps of
// allgather.
func AllreduceRing(cm cluster.Endpoint, x []float64) {
	if cm.Size() == 1 {
		return
	}
	allreduceRingWire(cm, x, x)
}

// allreduceRingWire is allreduceRing at the endpoint's wire type.
func allreduceRingWire(cm cluster.Endpoint, src, x []float64) {
	if cm.Wire() == cluster.WireF32 {
		allreduceRing[float32](cm, src, x)
		return
	}
	allreduceRing[float64](cm, src, x)
}

// allreduceRing is the ring schedule reducing src into x over wire
// values of type T. Requires P > 1.
//
// Every message after the first is a buffer this rank received: the
// block sent at reduce-scatter step s+1 is the block received at step
// s, so the received buffer takes the sums in wire precision and goes
// on; the block sent at allgather step s+1 is the one received at step
// s, forwarded unchanged once widened into x.
func allreduceRing[T wireVal](cm cluster.Endpoint, src, x []float64) {
	p, rank, n := cm.Size(), cm.Rank(), len(x)
	next := (rank + 1) % p
	prev := (rank - 1 + p) % p
	// Reduce-scatter: at step s, send block (rank-s) and accumulate into
	// block (rank-s-1). Each block is received exactly once and read
	// from src then; only the last, the owned block (rank+1), is
	// written to x. Step 0 sends this rank's own block of src.
	slo, shi := blockRange(n, p, rank)
	send := getBuf[T](cm, shi-slo)
	narrowInto(send, src[slo:shi])
	for s := 0; s < p-1; s++ {
		sendBuf(cm, next, tagAllreduce+2048+s, send)
		rlo, rhi := blockRange(n, p, ((rank-s-1)%p+p)%p)
		if s < p-2 {
			send = recvToReduce[T](cm, prev, tagAllreduce+2048+s, rhi-rlo)
			addWire(send, src[rlo:rhi], send)
		} else {
			// The last receive completes the owned block, which leaves
			// at once as the allgather's first send.
			recvAddSend[T](cm, prev, tagAllreduce+2048+s, src[rlo:rhi], x[rlo:rhi], nil, next, tagAllreduce+4096)
		}
	}
	// Allgather ring: circulate the finished blocks. Step 0's send, the
	// owned block, already left with the last reduce-scatter receive.
	for s := 0; s < p-1; s++ {
		if s > 0 {
			sendBuf(cm, next, tagAllreduce+4096+s, send)
		}
		rlo, rhi := blockRange(n, p, ((rank-s)%p+p)%p)
		send = recvWiden[T](cm, prev, tagAllreduce+4096+s, x[rlo:rhi], nil)
	}
	putBuf(cm, send)
}

// Allgather gathers each rank's equally sized block into a full vector on
// every rank, using recursive doubling when P is a power of two and a
// ring otherwise. out must have length len(block)*P; the caller's block
// is placed at its rank offset.
func Allgather(cm cluster.Endpoint, block []float64, out []float64) {
	p, rank := cm.Size(), cm.Rank()
	bn := len(block)
	if len(out) != bn*p {
		panic("collectives: allgather output size mismatch")
	}
	copy(out[rank*bn:(rank+1)*bn], block)
	if p == 1 {
		return
	}
	// Round the own block through the wire precision: every other rank
	// receives the rounded values, so the local copy must match. (After
	// the P=1 guard: data that never crosses a wire is never rounded.)
	cm.Wire().Round(out[rank*bn : (rank+1)*bn])
	if isPow2(p) {
		// Recursive doubling: before the step at distance d each rank
		// holds the d contiguous blocks of its aligned group of size d;
		// exchanging with rank^d doubles the group.
		for s, dist := 0, 1; dist < p; s, dist = s+1, dist*2 {
			partner := rank ^ dist
			myBase := rank &^ (dist - 1)
			partnerBase := partner &^ (dist - 1)
			myLo := myBase * bn
			sendWire(cm, partner, tagAllgather+s, out[myLo:myLo+dist*bn])
			recvCopy(cm, partner, tagAllgather+s, out[partnerBase*bn:(partnerBase+dist)*bn])
		}
		return
	}
	// Ring allgather for non-power-of-two sizes.
	next := (rank + 1) % p
	prev := (rank - 1 + p) % p
	for s := 0; s < p-1; s++ {
		sb := ((rank-s)%p + p) % p
		rb := ((rank-s-1)%p + p) % p
		sendWire(cm, next, tagAllgather+1024+s, out[sb*bn:(sb+1)*bn])
		recvCopy(cm, prev, tagAllgather+1024+s, out[rb*bn:(rb+1)*bn])
	}
}

// AllgatherSizesInto exchanges one int per rank (e.g. variable buffer
// sizes) and returns the full size vector. This is the (log P)α-only
// collective the balance phase uses to plan data balancing. The int
// result and the float wire staging buffer are caller-retained scratch,
// reused across calls, so the steady-state balance phase allocates
// nothing. Both (possibly grown) slices are returned for the caller to
// keep.
func AllgatherSizesInto(cm cluster.Endpoint, mySize int, sizes []int, scratch []float64) ([]int, []float64) {
	p := cm.Size()
	if cap(scratch) < p {
		scratch = make([]float64, p)
	}
	fs := scratch[:p]
	block := [1]float64{float64(mySize)}
	Allgather(cm, block[:], fs)
	if cap(sizes) < p {
		sizes = make([]int, p)
	}
	sizes = sizes[:p]
	for i, v := range fs {
		sizes[i] = int(v)
	}
	return sizes, scratch
}

// Chunk is a tagged variable-size payload for AllgathervInto: the data
// contributed by one origin rank. It is an alias of the cluster
// runtime's wire chunk, which travels without boxing.
type Chunk = cluster.Chunk

// AllgathervInto gathers variable-size contributions from every rank
// onto all ranks. The result is indexed by origin rank and accounted at
// Chunk.Words per contribution. The gathered chunks' Data/Data32/Aux
// fan out to every rank by reference, so they are never pooled: the
// origin owns them and may rewrite them only once every rank has
// finished with them, which FanOut's two slots per call site guarantee.
// A rank must copy out what it keeps from the result before its next
// call at the same site. The result slice is caller-retained (grown as
// needed and returned) and valid until the caller's next use of it.
// The schedule is recursive doubling (for power-of-two P) or a ring;
// the multi-chunk containers of the recursive-doubling exchange come
// from the sender's rank pool and are released into the receiver's, so
// steady-state calls allocate nothing.
func AllgathervInto(cm cluster.Endpoint, mine Chunk, result []Chunk) []Chunk {
	p := cm.Size()
	mine.Origin = cm.Rank()
	if cap(result) < p {
		result = make([]Chunk, p)
	}
	result = result[:p]
	for i := range result {
		result[i] = Chunk{}
	}
	result[cm.Rank()] = mine
	if p == 1 {
		return result
	}
	if isPow2(p) {
		rank := cm.Rank()
		// Before the step at distance dist, rank holds exactly the chunks
		// of its aligned block [base, base+dist); exchange them all.
		for s, dist := 0, 1; dist < p; s, dist = s+1, dist*2 {
			partner := rank ^ dist
			myBase := rank &^ (dist - 1)
			send := cm.GetChunks(dist)
			words := 0
			for i := 0; i < dist; i++ {
				send[i] = result[myBase+i]
				words += send[i].Words()
			}
			cm.SendChunks(partner, tagVGather+s, send, words)
			recv := cm.RecvChunks(partner, tagVGather+s)
			for _, ch := range recv {
				result[ch.Origin] = ch
			}
			cm.PutChunks(recv)
		}
		return result
	}
	// Ring for non-power-of-two sizes: circulate chunks P−1 steps. Each
	// chunk's payload is retained by every rank it passes, so nothing on
	// this path is pooled.
	rank := cm.Rank()
	next := (rank + 1) % p
	prev := (rank - 1 + p) % p
	cur := mine
	for s := 0; s < p-1; s++ {
		cm.SendChunk(next, tagVGather+1024+s, cur, cur.Words())
		cur = cm.RecvChunk(prev, tagVGather+1024+s)
		result[cur.Origin] = cur
	}
	return result
}

// Bcast broadcasts root's vector to all ranks along a binomial tree and
// returns the received (or original) data. Each hop forwards pooled
// copies, so a non-root caller owns the returned buffer and may release
// it with cm.PutFloats once consumed (root gets its own input back). On
// the f32 wire, root's data is rounded through the wire precision in
// place before forwarding, so all ranks hold identical values.
func Bcast(cm cluster.Endpoint, root int, data []float64) []float64 {
	p := cm.Size()
	if p == 1 {
		return data
	}
	vrank := (cm.Rank() - root + p) % p
	if vrank != 0 {
		// Receive from parent: clear the lowest set bit.
		parent := (vrank&(vrank-1) + root) % p
		data = recvWireFloats(cm, parent, tagBcast)
	} else {
		cm.Wire().Round(data)
	}
	// Forward to children: set bits above the lowest set bit.
	for d := 1; d < p; d *= 2 {
		if vrank&(d-1) == 0 && vrank&d == 0 {
			child := vrank | d
			if child < p {
				sendWire(cm, (child+root)%p, tagBcast, data)
			}
		}
	}
	return data
}

// Reduce sums x across ranks onto root along a binomial tree. On root the
// result is accumulated into x; other ranks' x is left partially reduced
// (as with MPI, only root's output is defined).
func Reduce(cm cluster.Endpoint, root int, x []float64) {
	p := cm.Size()
	if p == 1 {
		return
	}
	vrank := (cm.Rank() - root + p) % p
	for d := 1; d < p; d *= 2 {
		if vrank&d != 0 {
			parent := (vrank&^d + root) % p
			sendWire(cm, parent, tagReduce+d, x)
			return
		}
		child := vrank | d
		if child < p {
			recvAddFrom(cm, (child+root)%p, tagReduce+d, x, x)
		}
	}
}
