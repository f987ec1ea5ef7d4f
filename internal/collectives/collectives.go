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
// Word accounting follows the paper: on the default f64 wire every
// transmitted element (value or index) is one word. On the f32 wire
// (cluster.WireF32) values are rounded to float32 at the send edge and
// every 4-byte element counts half a word, halving all β terms; where a
// rank keeps data it also transmits (the owned block of a
// reduce-scatter, a broadcast root's buffer), the kept copy is rounded
// through the same precision so every rank holds bit-identical results.
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

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Allreduce sums x element-wise across all ranks, leaving the full result
// in x on every rank. It dispatches to Rabenseifner's algorithm for
// power-of-two cluster sizes and to the ring algorithm otherwise; both
// achieve the 2n(P−1)/P bandwidth term.
func Allreduce(cm cluster.Endpoint, x []float64) {
	if cm.Size() == 1 {
		return
	}
	if isPow2(cm.Size()) {
		allreduceRabenseifner(cm, x)
	} else {
		AllreduceRing(cm, x)
	}
}

// allreduceRabenseifner: recursive halving reduce-scatter, then recursive
// doubling allgather. Requires power-of-two size.
func allreduceRabenseifner(cm cluster.Endpoint, x []float64) {
	p, rank, n := cm.Size(), cm.Rank(), len(x)
	// Reduce-scatter by recursive halving. At step s the active range
	// halves; each rank exchanges the half it will not own with its
	// partner at distance p>>(s+1). Ranges are recorded so the reverse
	// allgather handles odd-size halves exactly. The span stack is tiny
	// (log₂P entries) and lives on the stack.
	lo, hi := 0, n
	steps := bits.Len(uint(p)) - 1
	type span struct{ lo, hi int }
	var spanBuf [32]span
	parents := spanBuf[:0]
	for s := 0; s < steps; s++ {
		dist := p >> (s + 1)
		partner := rank ^ dist
		parents = append(parents, span{lo, hi})
		mid := lo + (hi-lo)/2
		var sendLo, sendHi, keepLo, keepHi int
		if rank&dist == 0 {
			// Keep the lower half, send the upper half.
			sendLo, sendHi, keepLo, keepHi = mid, hi, lo, mid
		} else {
			sendLo, sendHi, keepLo, keepHi = lo, mid, mid, hi
		}
		sendWire(cm, partner, tagAllreduce+s, x[sendLo:sendHi])
		recvAxpy(cm, partner, tagAllreduce+s, x[keepLo:keepHi])
		lo, hi = keepLo, keepHi
	}
	// The owned block now leaves through the allgather: round it through
	// the wire precision so this rank keeps exactly what the others
	// receive.
	cm.Wire().Round(x[lo:hi])
	// Allgather by recursive doubling: reverse the halving, restoring
	// each parent range by exchanging the complementary half.
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
		sendWire(cm, partner, tagAllreduce+1024+s, x[lo:hi])
		recvCopy(cm, partner, tagAllreduce+1024+s, x[partnerLo:partnerHi])
		lo, hi = parent.lo, parent.hi
	}
}

// AllreduceRing is the bandwidth-optimal ring allreduce: P−1 steps of
// reduce-scatter around the ring followed by P−1 steps of allgather.
func AllreduceRing(cm cluster.Endpoint, x []float64) {
	p, rank, n := cm.Size(), cm.Rank(), len(x)
	if p == 1 {
		return
	}
	next := (rank + 1) % p
	prev := (rank - 1 + p) % p
	// Reduce-scatter: at step s, send block (rank-s) and accumulate into
	// block (rank-s-1).
	for s := 0; s < p-1; s++ {
		sb := ((rank-s)%p + p) % p
		rb := ((rank-s-1)%p + p) % p
		slo, shi := blockRange(n, p, sb)
		sendWire(cm, next, tagAllreduce+2048+s, x[slo:shi])
		rlo, rhi := blockRange(n, p, rb)
		recvAxpy(cm, prev, tagAllreduce+2048+s, x[rlo:rhi])
	}
	// Round the finished owned block through the wire precision before it
	// circulates, so this rank keeps exactly what the others receive.
	flo, fhi := blockRange(n, p, (rank+1)%p)
	cm.Wire().Round(x[flo:fhi])
	// Allgather ring: circulate the finished blocks.
	for s := 0; s < p-1; s++ {
		sb := ((rank-s+1)%p + p) % p
		rb := ((rank-s)%p + p) % p
		slo, shi := blockRange(n, p, sb)
		sendWire(cm, next, tagAllreduce+4096+s, x[slo:shi])
		rlo, rhi := blockRange(n, p, rb)
		recvCopy(cm, prev, tagAllreduce+4096+s, x[rlo:rhi])
	}
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
			recvAxpy(cm, (child+root)%p, tagReduce+d, x)
		}
	}
}
