// Package sparsecoll implements the four state-of-the-art sparse
// allreduce baselines the paper compares against (Table 1):
//
//   - TopkA — allgather-based: every worker gathers every other worker's
//     top-k COO chunk and reduces locally; 2k(P−1) bandwidth, no fill-in
//     on the wire but ∝P growth.
//   - TopkDSA — SparCML's dynamic sparse allreduce: recursive-halving
//     reduce-scatter over the sparse index space with on-the-fly
//     switching to dense pieces when fill-in makes COO larger than the
//     dense representation, followed by an allgatherv of the owned
//     pieces.
//   - gTopk — a binomial reduction tree with hierarchical top-k
//     re-selection at every level (bounding fill-in at the cost of
//     4k·logP volume and sort work on the critical path, which the paper
//     attributes to communication), followed by a broadcast tree.
//   - Gaussiank — TopkA's schedule with the Gaussian percent-point
//     threshold estimator for selection, adaptively loosened until at
//     least 3k/4 values pass (the fairness adjustment used in §5.4).
//
// Every implementation follows the allreduce.Algorithm contract and
// accounts its traffic and selection work under the α-β cost model.
//
// All point-to-point payloads (TopkDSA's halving pieces, gTopk's tree
// and broadcast hops) travel as copies drawn from the sender's cluster
// rank pools under the ownership-transfer convention, each scheme
// drawing at one collectives.PieceClass per instance. The receiver
// reads each one in place, as a sparse.Vec view over the
// chunk's indexes and its values in compute precision (recvView),
// merges it and releases the chunk into its own rank pools after the
// last read; only collectives and cluster know how values look on the
// wire. Fan-out payloads (allgathered chunks) are owned by the
// instance that contributes them, in wire format, in a
// collectives.FanOut: two slots per call site, reused by call parity
// once every rank has finished reading them. TopkA, Gaussiank and
// TopkDSA gather and sum through one gatherState; every scheme keeps
// its Result.Update in an allreduce.SparseUpdate.
package sparsecoll

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/allreduce"
	"repro/internal/cluster"
	"repro/internal/collectives"
	"repro/internal/netmodel"
	"repro/internal/sparse"
	"repro/internal/topk"
)

// cooWireWords is the accounted COO wire size of nnz nonzeros (nnz
// values + nnz indexes) under the endpoint's wire mode.
func cooWireWords(cm cluster.Endpoint, nnz int) int { return cm.Wire().Words(2 * nnz) }

// rangeBounds returns the [start, end) positions of v's sorted indexes
// that fall in the coordinate range [lo, hi).
func rangeBounds(v *sparse.Vec, lo, hi int32) (int, int) {
	start := sort.Search(len(v.Indexes), func(i int) bool { return v.Indexes[i] >= lo })
	end := sort.Search(len(v.Indexes), func(i int) bool { return v.Indexes[i] >= hi })
	return start, end
}

// recvView receives one hop chunk, a PieceClass.Chunk, and returns
// it with a view of it as a vector of dimension dim: the chunk's
// indexes, and its values in compute precision (the chunk's own on the
// f64 wire, widened into *wide on the f32 wire). The caller owns the
// chunk and releases it with collectives.Release after its last read
// of the view.
func recvView(cm cluster.Endpoint, src, tag, dim int, wide *[]float64) (collectives.Chunk, sparse.Vec) {
	ch := cm.RecvChunk(src, tag)
	return ch, sparse.Vec{Dim: dim, Indexes: ch.Aux, Values: ch.Values(wide)}
}

// localTopkInto selects the exact top-k entries of acc (by |value|) the
// way the baselines do with torch.topk, charging the sort-based cost,
// building the selection into the instance-owned dst (allocated on
// first use). scratch backs the threshold's candidate set (O(k), see
// topk.ThresholdInto); both are returned for the caller to retain across
// iterations.
func localTopkInto(cm cluster.Endpoint, cfg allreduce.Config, acc []float64, k int, scratch []float64, dst *sparse.Vec) (*sparse.Vec, []float64) {
	allreduce.ChargeSort(cm, cfg, len(acc))
	th, scratch := topk.ThresholdInto(acc, k, scratch)
	return sparse.FromDenseThresholdInto(dst, acc, th), scratch
}

// gatherState is the allgather-and-sum backend TopkA, Gaussiank and
// TopkDSA share: the local selection, the FanOut its allgathered copy
// (or TopkDSA's reduced piece) is built in, the AllgathervInto result
// container and the update store.
type gatherState struct {
	sel    *sparse.Vec
	out    collectives.FanOut
	chunks []collectives.Chunk
	wide   []float64 // a chunk's values widened (Chunk.Values)
	update allreduce.SparseUpdate
}

// sum allgathers mine, whose Data/Aux fan out to every rank and so
// must come from gs.out, and adds every rank's chunk into the update
// store. It returns the update, its count of nonzeros and the number
// of values gathered.
func (gs *gatherState) sum(cm cluster.Endpoint, mine collectives.Chunk, n int) (update []float64, nz, total int) {
	gs.chunks = collectives.AllgathervInto(cm, mine, gs.chunks)
	update = gs.update.Begin(n)
	for _, ch := range gs.chunks {
		nz += gs.update.Add(ch.Aux, ch.Values(&gs.wide))
		total += ch.NumValues()
	}
	return update, nz, total
}

// gatherSelection is the allgather schedule: every rank gathers every
// other's selection gs.sel and sums them locally.
func (gs *gatherState) gatherSelection(cm cluster.Endpoint, n int) allreduce.Result {
	mine := gs.out.Fill(cm, gs.sel.Indexes, gs.sel.Values)
	cm.Clock().SetPhase(netmodel.PhaseComm)
	update, nz, total := gs.sum(cm, mine, n)
	cm.Clock().Compute(float64(total)) // local reduction of gathered chunks
	cm.Clock().SetPhase(netmodel.PhaseCompute)
	return allreduce.Result{
		Update: update,
		// The slot outlives the next Reduce, which writes the other one.
		Contributed: mine.Aux,
		LocalK:      gs.sel.NNZ(),
		GlobalK:     nz,
	}
}

// TopkA is the allgather-based sparse allreduce [36, 47].
type TopkA struct {
	cfg       allreduce.Config
	thScratch []float64
	gatherState
}

// NewTopkA returns a TopkA instance for one worker.
func NewTopkA(cfg allreduce.Config) *TopkA { return &TopkA{cfg: cfg.Defaults()} }

func (*TopkA) Name() string           { return "TopkA" }
func (*TopkA) OverlapsBackward() bool { return false }

// Reduce gathers all workers' exact top-k chunks and sums them locally.
func (a *TopkA) Reduce(cm cluster.Endpoint, acc []float64, t int) allreduce.Result {
	k := a.cfg.KFor(len(acc))
	a.sel, a.thScratch = localTopkInto(cm, a.cfg, acc, k, a.thScratch, a.sel)
	return a.gatherSelection(cm, len(acc))
}

// Gaussiank [41] uses the allgather schedule with Gaussian threshold
// estimation instead of exact selection, adjusted (§5.4 fairness) until
// it selects at least 3k/4 values; EstimateCount gives the raw
// estimate's count that Figure 6 plots.
type Gaussiank struct {
	cfg allreduce.Config
	gatherState
}

// NewGaussiank returns a Gaussiank instance for one worker.
func NewGaussiank(cfg allreduce.Config) *Gaussiank { return &Gaussiank{cfg: cfg.Defaults()} }

func (*Gaussiank) Name() string           { return "Gaussiank" }
func (*Gaussiank) OverlapsBackward() bool { return false }

// EstimateCount returns how many values the raw Gaussian threshold would
// select — the quantity Figure 6 plots for Gaussiank.
func (g *Gaussiank) EstimateCount(acc []float64, k int) int {
	th := topk.GaussianThreshold(acc, k)
	return topk.CountAbove(acc, th)
}

// Reduce selects by the adjusted Gaussian threshold and gathers.
func (g *Gaussiank) Reduce(cm cluster.Endpoint, acc []float64, t int) allreduce.Result {
	k := g.cfg.KFor(len(acc))
	// Mean/std fit plus one selection scan: 3 passes over n.
	allreduce.ChargeScan(cm, g.cfg, 3*len(acc))
	th, passes := topk.AdjustThreshold(acc, topk.GaussianThreshold(acc, k), 3*k/4)
	allreduce.ChargeScan(cm, g.cfg, passes*len(acc))
	g.sel = sparse.FromDenseThresholdInto(g.sel, acc, th)
	return g.gatherSelection(cm, len(acc))
}

// TopkDSA is SparCML's dynamic sparse allreduce [36]: recursive-halving
// reduce-scatter over the index space with per-piece dense fallback,
// then an allgatherv of the reduced pieces. The halving needs
// power-of-two P; at any other P, Reduce degrades to the allgather
// schedule itself, as SparCML's fallback does (the paper only
// evaluates power-of-two node counts).
type TopkDSA struct {
	cfg allreduce.Config
	// FillIn accumulates the output densities observed, for the §5.2
	// statistics.
	fillSum   float64
	fillCount int
	thScratch []float64
	// pieces is the capacity the halving pieces are drawn at, and wide
	// holds a received piece's values widened from the f32 wire.
	pieces collectives.PieceClass
	wide   []float64
	// mergeA/mergeB ping-pong the recursive-halving partial sums, so
	// the intermediate merges allocate nothing in steady state. The
	// final level merges into a slot of the gatherState's FanOut, whose
	// buffers fan out through the allgatherv; the non-power-of-two
	// fallback gathers its selection through the same FanOut (P is
	// fixed, so a rank only ever takes one of the two paths).
	mergeA, mergeB *sparse.Vec
	gatherState
}

// NewTopkDSA returns a TopkDSA instance for one worker.
func NewTopkDSA(cfg allreduce.Config) *TopkDSA { return &TopkDSA{cfg: cfg.Defaults()} }

func (*TopkDSA) Name() string           { return "TopkDSA" }
func (*TopkDSA) OverlapsBackward() bool { return false }

// MeanFillDensity reports the mean output density across all reductions
// performed so far (§5.2 reports 13.2% for VGG, 34.5% for LSTM).
func (d *TopkDSA) MeanFillDensity() float64 {
	if d.fillCount == 0 {
		return 0
	}
	return d.fillSum / float64(d.fillCount)
}

const tagDSA = 9 << 20

// Reduce performs the dynamic sparse allreduce.
func (d *TopkDSA) Reduce(cm cluster.Endpoint, acc []float64, t int) allreduce.Result {
	p, rank, n := cm.Size(), cm.Rank(), len(acc)
	k := d.cfg.KFor(n)
	d.sel, d.thScratch = localTopkInto(cm, d.cfg, acc, k, d.thScratch, d.sel)
	mine := d.sel

	if p&(p-1) != 0 {
		// Non-power-of-two: degrade to the allgather schedule, as
		// SparCML's fallback does.
		res := d.gatherSelection(cm, n)
		d.fillSum += float64(res.GlobalK) / float64(n)
		d.fillCount++
		return res
	}

	cm.Clock().SetPhase(netmodel.PhaseComm)
	// Recursive halving over the index space: after step s each rank is
	// responsible for a span of n/2^(s+1) indexes, holding the partial
	// sum of 2^(s+1) workers' contributions within it.
	lo, hi := 0, n
	cur := mine
	// final is this call's fan-out slot, which the last level merges
	// into; it stays nil at P = 1, where nothing is exchanged.
	var final *collectives.FanOutSlot
	for s, dist := 0, p/2; dist >= 1; s, dist = s+1, dist/2 {
		partner := rank ^ dist
		mid := lo + (hi-lo)/2
		var sendLo, sendHi, keepLo, keepHi int
		if rank&dist == 0 {
			sendLo, sendHi, keepLo, keepHi = mid, hi, lo, mid
		} else {
			sendLo, sendHi, keepLo, keepHi = lo, mid, mid, hi
		}
		start, end := rangeBounds(cur, int32(sendLo), int32(sendHi))
		// Dynamic format switch: account whichever representation is
		// smaller for this piece — COO (2·nnz elements) or dense (width
		// elements) — under the active wire mode.
		elems := 2 * (end - start)
		if w := sendHi - sendLo; elems > w {
			elems = w
		}
		ch := d.pieces.Chunk(cm, cur.Indexes[start:end], cur.Values[start:end])
		cm.SendChunk(partner, tagDSA+s, ch, cm.Wire().Words(elems))
		inCh, in := recvView(cm, partner, tagDSA+s, n, &d.wide)
		d.pieces.Received(inCh)
		// The kept half is a view of cur: the merge below writes the
		// other ping-pong buffer or the fan-out slot, never cur.
		start, end = rangeBounds(cur, int32(keepLo), int32(keepHi))
		kept := sparse.Vec{Dim: n, Indexes: cur.Indexes[start:end], Values: cur.Values[start:end]}
		cm.Clock().Compute(float64(kept.NNZ() + in.NNZ()))
		if dist > 1 {
			// Intermediate level: merge into ping-pong scratch.
			if d.mergeA == nil {
				d.mergeA, d.mergeB = sparse.New(n), sparse.New(n)
			}
			cur = sparse.AddTo(d.mergeA, &kept, &in)
			d.mergeA, d.mergeB = d.mergeB, d.mergeA
		} else {
			// Final level: the result's buffers ride the allgatherv to
			// every rank, so they go into this call's fan-out slot.
			final = d.out.Next()
			cur = sparse.AddTo(&final.Vec, &kept, &in)
		}
		collectives.Release(cm, inCh)
		lo, hi = keepLo, keepHi
	}

	// Allgatherv of the owned reduced pieces (COO accounting; a dense
	// fallback would only matter past ~50% piece density, which the
	// recursive-halving phase already handled). The fan-out payload is
	// the slot in wire format; on the f32 wire every rank — the owner
	// included — reads the same rounded values. At P = 1 nothing was
	// exchanged, and the slot gets a copy of the selection.
	var mineCh collectives.Chunk
	if final != nil {
		mineCh = final.Chunk(cm)
	} else {
		mineCh = d.out.Fill(cm, cur.Indexes, cur.Values)
	}
	update, nz, _ := d.sum(cm, mineCh, n)
	cm.Clock().SetPhase(netmodel.PhaseCompute)
	d.fillSum += float64(nz) / float64(n)
	d.fillCount++
	return allreduce.Result{
		Update:      update,
		Contributed: mine.Indexes,
		LocalK:      mine.NNZ(),
		GlobalK:     nz,
	}
}

// GTopk is the global-top-k sparse allreduce of Shi et al. [42]: a
// binomial reduction tree where every internal node merges its child's
// top-k set with its own and re-selects k values, followed by a binomial
// broadcast of the final global top-k. The hierarchical re-selection is
// charged to the communication phase, matching how the paper's
// measurements attribute it. Any P works: at a P that is not a power
// of two, the trees simply lack the partners rank|dist ≥ P.
type GTopk struct {
	cfg       allreduce.Config
	thScratch []float64
	pairs     []idxVal
	sel       *sparse.Vec // local selection scratch
	// pieces is the capacity the tree and broadcast hops are drawn at,
	// wide holds a received hop's values widened from the f32 wire, and
	// children is this rank's broadcast children.
	pieces   collectives.PieceClass
	wide     []float64
	children []int
	// mergeA/mergeB ping-pong the tree partial sums; trunc receives the
	// re-selected top-k at each level.
	mergeA, mergeB *sparse.Vec
	trunc          *sparse.Vec
	update         allreduce.SparseUpdate
	contributed    []int32 // Intersect scratch
}

// idxVal is the (index, value) pair truncTopk sorts during
// hierarchical re-selection.
type idxVal struct {
	idx int32
	val float64
}

// NewGTopk returns a gTopk instance for one worker.
func NewGTopk(cfg allreduce.Config) *GTopk { return &GTopk{cfg: cfg.Defaults()} }

func (*GTopk) Name() string           { return "gTopk" }
func (*GTopk) OverlapsBackward() bool { return false }

const tagGTopk = 10 << 20

// Reduce runs the reduction tree plus broadcast tree.
func (g *GTopk) Reduce(cm cluster.Endpoint, acc []float64, t int) allreduce.Result {
	p, rank, n := cm.Size(), cm.Rank(), len(acc)
	k := g.cfg.KFor(n)
	var mine *sparse.Vec
	mine, g.thScratch = localTopkInto(cm, g.cfg, acc, k, g.thScratch, g.sel)
	g.sel = mine
	localIdx := mine.Indexes
	if g.mergeA == nil {
		g.mergeA, g.mergeB = sparse.New(n), sparse.New(n)
		g.trunc = sparse.New(n)
	}

	cm.Clock().SetPhase(netmodel.PhaseComm)
	cur := mine
	sent := false
	for dist := 1; dist < p; dist *= 2 {
		if rank&dist != 0 {
			ch := g.pieces.Chunk(cm, cur.Indexes, cur.Values)
			cm.SendChunk(rank&^dist, tagGTopk+dist, ch, cooWireWords(cm, cur.NNZ()))
			sent = true
			break
		}
		if rank|dist < p {
			inCh, in := recvView(cm, rank|dist, tagGTopk+dist, n, &g.wide)
			g.pieces.Received(inCh)
			cm.Clock().Compute(float64(cur.NNZ() + in.NNZ()))
			merged := sparse.AddTo(g.mergeA, cur, &in)
			g.mergeA, g.mergeB = g.mergeB, g.mergeA
			collectives.Release(cm, inCh)
			// Hierarchical re-selection keeps the set at k values. The
			// reference implementation scatters into a dense buffer and
			// runs torch.topk over all n elements at every level, so the
			// full sort cost lands on the communication critical path —
			// the reason the paper's gTopk bars show outsized
			// "communication" time.
			cm.Clock().Compute(g.cfg.SortFlops * float64(n))
			cur = g.truncTopk(merged, k)
		}
	}
	// Broadcast the final global top-k down the mirrored tree. Every hop
	// carries owned wire buffers, so no backing array is ever shared
	// between ranks. A non-root rank reads the hop it received in place
	// and releases it once the result is built.
	var bcast collectives.Chunk
	if sent {
		var in sparse.Vec
		bcast, in = recvView(cm, parentOf(rank, p), tagGTopk+(1<<20), n, &g.wide)
		g.pieces.Received(bcast)
		cur = &in
	} else if p > 1 {
		// Root: round the final set through the wire precision before it
		// fans out, so every rank applies bit-identical values. (At P=1
		// nothing fans out and nothing is rounded.)
		cm.Wire().Round(cur.Values)
	}
	g.children = appendChildren(g.children[:0], rank, p)
	for _, child := range g.children {
		ch := g.pieces.Chunk(cm, cur.Indexes, cur.Values)
		cm.SendChunk(child, tagGTopk+(1<<20), ch, cooWireWords(cm, cur.NNZ()))
	}
	cm.Clock().SetPhase(netmodel.PhaseCompute)

	update := g.update.Begin(n)
	g.update.Set(cur.Indexes, cur.Values)
	g.contributed = sparse.AppendIntersect(g.contributed[:0], localIdx, cur.Indexes)
	globalK := cur.NNZ()
	if sent {
		collectives.Release(cm, bcast)
	}
	return allreduce.Result{
		Update:      update,
		Contributed: g.contributed,
		LocalK:      len(localIdx),
		GlobalK:     globalK,
	}
}

// parentOf and appendChildren define the binomial broadcast tree
// rooted at 0 that mirrors the reduction tree above.
func parentOf(rank, p int) int {
	for dist := 1; dist < p; dist *= 2 {
		if rank&dist != 0 {
			return rank &^ dist
		}
	}
	return 0
}

// appendChildren appends rank's children to out.
func appendChildren(out []int, rank, p int) []int {
	// Children are rank|dist for dist below rank's lowest set bit (or
	// every power of two below P for rank 0), matching the
	// reduction-tree partners.
	low := rank & (-rank)
	if rank == 0 {
		low = 1 << bits.Len(uint(p-1))
	}
	for dist := low / 2; dist >= 1; dist /= 2 {
		if rank|dist < p && rank&dist == 0 {
			out = append(out, rank|dist)
		}
	}
	return out
}

// truncTopk keeps the k largest-magnitude entries of v (ties broken by
// keeping all at the threshold, then trimming to exactly k by index
// order). The result is v itself (when already within k) or the
// instance's trunc scratch; the selection scratch and pair buffer are
// per-instance too, so re-selection allocates nothing in steady state.
func (g *GTopk) truncTopk(v *sparse.Vec, k int) *sparse.Vec {
	if v.NNZ() <= k {
		return v
	}
	var th float64
	th, g.thScratch = topk.ThresholdInto(v.Values, k, g.thScratch)
	if g.trunc == nil {
		g.trunc = sparse.New(v.Dim)
	}
	out := g.trunc
	out.Dim = v.Dim
	out.Indexes = out.Indexes[:0]
	out.Values = out.Values[:0]
	for i, val := range v.Values {
		if math.Abs(val) >= th {
			out.Indexes = append(out.Indexes, v.Indexes[i])
			out.Values = append(out.Values, val)
		}
	}
	if out.NNZ() > k {
		// Trim ties deterministically: drop smallest-magnitude extras.
		ps := g.pairs[:0]
		for i := range out.Indexes {
			ps = append(ps, idxVal{out.Indexes[i], out.Values[i]})
		}
		g.pairs = ps
		slices.SortFunc(ps, func(a, b idxVal) int {
			am, bm := math.Abs(a.val), math.Abs(b.val)
			if am != bm {
				return cmp.Compare(bm, am)
			}
			return cmp.Compare(a.idx, b.idx)
		})
		ps = ps[:k]
		slices.SortFunc(ps, func(a, b idxVal) int { return cmp.Compare(a.idx, b.idx) })
		out.Indexes = out.Indexes[:0]
		out.Values = out.Values[:0]
		for _, p := range ps {
			out.Indexes = append(out.Indexes, p.idx)
			out.Values = append(out.Values, p.val)
		}
	}
	return out
}
