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
// and broadcast hops) travel as wire-format chunks whose index/value
// buffers come from the sender's cluster rank pools under the
// ownership-transfer convention — float64 values on the default wire,
// rounded float32 values at half-word accounting on the f32 wire — and
// the receiver widens them back into a compute-precision sparse.Vec
// drawn from its own per-rank Pool before merging. Fan-out payloads
// (allgathered chunks) stay freshly allocated, in wire format.
// Result.Update and Result.Contributed are instance-owned scratch,
// valid until the next Reduce on the same instance.
package sparsecoll

import (
	"cmp"
	"math"
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

// slicePooled copies the [lo, hi) index range of v into a vector drawn
// from the pool — the local "kept" piece of TopkDSA's recursive
// halving.
func slicePooled(pool *sparse.Pool, v *sparse.Vec, lo, hi int32) *sparse.Vec {
	start, end := rangeBounds(v, lo, hi)
	out := pool.Get(v.Dim, end-start)
	copy(out.Indexes, v.Indexes[start:end])
	copy(out.Values, v.Values[start:end])
	return out
}

// sendVecChunk ships (idx, vals) to dst as a point-to-point wire chunk:
// both buffers come from this rank's cluster pools — values rounded to
// float32 on the f32 wire — and ownership transfers to the receiver,
// which rebuilds a compute-precision pool vector with recvVecChunk.
// words is the accounted size, already wire-adjusted by the caller.
func sendVecChunk(cm cluster.Endpoint, dst, tag int, idx []int32, vals []float64, words int) {
	wi := cm.GetInt32s(len(idx))
	copy(wi, idx)
	ch := collectives.Chunk{Aux: wi}
	if cm.Wire() == cluster.WireF32 {
		wv := cm.GetFloat32s(len(vals))
		cluster.NarrowInto(wv, vals)
		ch.Data32 = wv
	} else {
		wv := cm.GetFloats(len(vals))
		copy(wv, vals)
		ch.Data = wv
	}
	cm.SendChunk(dst, tag, ch, words)
}

// recvVecChunk receives one hop chunk and rebuilds it as a vector drawn
// from this rank's Pool (widening f32 wire values back to compute
// precision), releasing the wire buffers into this rank's cluster
// pools. The vector goes back to the same Pool after the merge.
func recvVecChunk(cm cluster.Endpoint, pool *sparse.Pool, src, tag, dim int) *sparse.Vec {
	ch := cm.RecvChunk(src, tag)
	out := pool.Get(dim, len(ch.Aux))
	out.SetWire(ch.Aux, ch.Data, ch.Data32)
	cm.PutInt32s(ch.Aux)
	if ch.Data32 != nil {
		cm.PutFloat32s(ch.Data32)
	} else {
		cm.PutFloats(ch.Data)
	}
	return out
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

// gatherState is the per-instance scratch behind the shared
// allgather-and-sum backend: the dense update buffer is kept logically
// all-zero between calls by re-zeroing exactly the indexes the previous
// call wrote (far cheaper than an n-word memset per iteration, and
// allocation-free).
type gatherState struct {
	update  []float64
	touched []int32             // indexes written by the last call
	chunks  []collectives.Chunk // AllgathervInto result scratch
}

// sumChunks folds the gathered chunks into the logically all-zero
// update buffer, recording every written index so the next call can
// re-zero exactly those. All maintenance of the touched-index invariant
// lives here; callers must not write the buffer through other paths.
func (gs *gatherState) sumChunks(n int) (update []float64, globalNNZ int) {
	if len(gs.update) != n {
		gs.update = make([]float64, n)
		gs.touched = gs.touched[:0]
	}
	update = gs.update
	sparse.ZeroIndexes(update, gs.touched)
	gs.touched = gs.touched[:0]
	nz := 0
	for _, ch := range gs.chunks {
		if ch.Data32 != nil {
			// f32 wire: widen once per element as it folds in.
			for i, idx := range ch.Aux {
				v := float64(ch.Data32[i])
				if update[idx] == 0 && v != 0 {
					nz++
				}
				update[idx] += v
			}
		} else {
			for i, idx := range ch.Aux {
				if update[idx] == 0 && ch.Data[i] != 0 {
					nz++
				}
				update[idx] += ch.Data[i]
			}
		}
		gs.touched = append(gs.touched, ch.Aux...)
	}
	return update, nz
}

// gatherAndSum allgathers everyone's COO chunk and reduces into the
// instance-owned update buffer. The chunk's Data/Aux fan out to every
// rank and must be freshly allocated by the caller.
func (gs *gatherState) gatherAndSum(cm cluster.Endpoint, mine collectives.Chunk, n int) (update []float64, globalNNZ int) {
	cm.Clock().SetPhase(netmodel.PhaseComm)
	gs.chunks = collectives.AllgathervInto(cm, mine, gs.chunks)
	total := 0
	for _, ch := range gs.chunks {
		total += ch.NumValues()
	}
	update, nz := gs.sumChunks(n)
	cm.Clock().Compute(float64(total)) // local reduction of gathered chunks
	cm.Clock().SetPhase(netmodel.PhaseCompute)
	return update, nz
}

// freshChunk copies the selection into exactly-sized fresh slices in
// the endpoint's wire format: allgathered payloads are shared read-only
// by every rank, so they must not alias instance scratch or pools. At
// P=1 the chunk never leaves the rank, so it stays float64 even on the
// f32 wire (no edge crossed, no rounding).
func freshChunk(cm cluster.Endpoint, sel *sparse.Vec) collectives.Chunk {
	ch := collectives.Chunk{Aux: append([]int32(nil), sel.Indexes...)}
	if cm.Wire() == cluster.WireF32 && cm.Size() > 1 {
		ch.Data32 = sparse.Narrow32(sel.Values)
	} else {
		ch.Data = append([]float64(nil), sel.Values...)
	}
	return ch
}

// TopkA is the allgather-based sparse allreduce [36, 47].
type TopkA struct {
	cfg       allreduce.Config
	thScratch []float64
	sel       *sparse.Vec
	gs        gatherState
}

// NewTopkA returns a TopkA instance for one worker.
func NewTopkA(cfg allreduce.Config) *TopkA { return &TopkA{cfg: cfg.Defaults()} }

func (*TopkA) Name() string           { return "TopkA" }
func (*TopkA) OverlapsBackward() bool { return false }

// Reduce gathers all workers' exact top-k chunks and sums them locally.
func (a *TopkA) Reduce(cm cluster.Endpoint, acc []float64, t int) allreduce.Result {
	k := a.cfg.KFor(len(acc))
	a.sel, a.thScratch = localTopkInto(cm, a.cfg, acc, k, a.thScratch, a.sel)
	mine := freshChunk(cm, a.sel)
	update, nz := a.gs.gatherAndSum(cm, mine, len(acc))
	return allreduce.Result{
		Update:      update,
		Contributed: mine.Aux,
		LocalK:      a.sel.NNZ(),
		GlobalK:     nz,
	}
}

// Gaussiank [41] uses the allgather schedule with Gaussian threshold
// estimation instead of exact selection.
type Gaussiank struct {
	cfg allreduce.Config
	// Estimated selects whether the raw Gaussian estimate is used
	// (paper's Figure 6 accounting) or the adjusted one (§5.4 fairness).
	Adjust bool

	sel *sparse.Vec
	gs  gatherState
}

// NewGaussiank returns a Gaussiank instance with the paper's fairness
// adjustment enabled.
func NewGaussiank(cfg allreduce.Config) *Gaussiank {
	return &Gaussiank{cfg: cfg.Defaults(), Adjust: true}
}

func (*Gaussiank) Name() string           { return "Gaussiank" }
func (*Gaussiank) OverlapsBackward() bool { return false }

// EstimateCount returns how many values the raw Gaussian threshold would
// select — the quantity Figure 6 plots for Gaussiank.
func (g *Gaussiank) EstimateCount(acc []float64, k int) int {
	th := topk.GaussianThreshold(acc, k)
	return topk.CountAbove(acc, th)
}

// Reduce selects by the (adjusted) Gaussian threshold and gathers.
func (g *Gaussiank) Reduce(cm cluster.Endpoint, acc []float64, t int) allreduce.Result {
	k := g.cfg.KFor(len(acc))
	// Mean/std fit plus one selection scan: 3 passes over n.
	allreduce.ChargeScan(cm, g.cfg, 3*len(acc))
	th := topk.GaussianThreshold(acc, k)
	if g.Adjust {
		adjTh, passes := topk.AdjustThreshold(acc, th, 3*k/4)
		allreduce.ChargeScan(cm, g.cfg, passes*len(acc))
		th = adjTh
	}
	g.sel = sparse.FromDenseThresholdInto(g.sel, acc, th)
	mine := freshChunk(cm, g.sel)
	update, nz := g.gs.gatherAndSum(cm, mine, len(acc))
	return allreduce.Result{
		Update:      update,
		Contributed: mine.Aux,
		LocalK:      g.sel.NNZ(),
		GlobalK:     nz,
	}
}

// TopkDSA is SparCML's dynamic sparse allreduce [36]: recursive-halving
// reduce-scatter over the index space with per-piece dense fallback,
// then an allgatherv of the reduced pieces. Requires power-of-two P;
// the factory falls back to TopkA otherwise (the paper only evaluates
// power-of-two node counts).
type TopkDSA struct {
	cfg allreduce.Config
	// FillIn accumulates the output densities observed, for the §5.2
	// statistics.
	fillSum   float64
	fillCount int
	thScratch []float64
	sel       *sparse.Vec
	// pool is this rank's halving-payload arena: outgoing pieces are
	// drawn from it and received pieces are returned to it after the
	// merge (ownership transfer).
	pool sparse.Pool
	// mergeA/mergeB ping-pong the recursive-halving partial sums, so
	// the intermediate merges allocate nothing in steady state. Only
	// the final level's result (whose buffers fan out through the
	// allgatherv) is freshly allocated.
	mergeA, mergeB *sparse.Vec
	gs             gatherState
}

// NewTopkDSA returns a TopkDSA instance for one worker.
func NewTopkDSA(cfg allreduce.Config) *TopkDSA { return &TopkDSA{cfg: cfg.Defaults()} }

func (*TopkDSA) Name() string           { return "TopkDSA" }
func (*TopkDSA) OverlapsBackward() bool { return false }

// Pool exposes the halving-payload pool for the ownership property
// tests.
func (d *TopkDSA) Pool() *sparse.Pool { return &d.pool }

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
	var mine *sparse.Vec
	mine, d.thScratch = localTopkInto(cm, d.cfg, acc, k, d.thScratch, d.sel)
	d.sel = mine
	localIdx := mine.Indexes

	if p&(p-1) != 0 {
		// Non-power-of-two: degrade to the allgather schedule, as
		// SparCML's fallback does.
		update, nz := d.gs.gatherAndSum(cm, freshChunk(cm, mine), n)
		d.fillSum += float64(nz) / float64(n)
		d.fillCount++
		return allreduce.Result{Update: update, Contributed: localIdx, LocalK: mine.NNZ(), GlobalK: nz}
	}

	cm.Clock().SetPhase(netmodel.PhaseComm)
	// Recursive halving over the index space: after step s each rank is
	// responsible for a span of n/2^(s+1) indexes, holding the partial
	// sum of 2^(s+1) workers' contributions within it.
	lo, hi := 0, n
	cur := mine
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
		sendVecChunk(cm, partner, tagDSA+s,
			cur.Indexes[start:end], cur.Values[start:end], cm.Wire().Words(elems))
		in := recvVecChunk(cm, &d.pool, partner, tagDSA+s, n)
		kept := slicePooled(&d.pool, cur, int32(keepLo), int32(keepHi))
		cm.Clock().Compute(float64(kept.NNZ() + in.NNZ()))
		if dist > 1 {
			// Intermediate level: merge into ping-pong scratch (the
			// previous level's cur is fully consumed by the wire copy
			// and the kept slicePooled copy above).
			if d.mergeA == nil {
				d.mergeA, d.mergeB = sparse.New(n), sparse.New(n)
			}
			cur = sparse.AddTo(d.mergeA, kept, in)
			d.mergeA, d.mergeB = d.mergeB, d.mergeA
		} else {
			// Final level: the result's buffers ride the allgatherv to
			// every rank, so they must be freshly allocated.
			cur = sparse.Add(kept, in)
		}
		d.pool.Put(kept)
		d.pool.Put(in)
		lo, hi = keepLo, keepHi
	}

	// Allgatherv of the owned reduced pieces (COO accounting; a dense
	// fallback would only matter past ~50% piece density, which the
	// recursive-halving phase already handled). The fan-out payload is
	// fresh in wire format; on the f32 wire every rank — the owner
	// included — reads the same rounded values.
	final := collectives.Chunk{Data: cur.Values, Aux: cur.Indexes}
	if cm.Wire() == cluster.WireF32 && p > 1 {
		final = collectives.Chunk{Data32: sparse.Narrow32(cur.Values), Aux: cur.Indexes}
	}
	gs := &d.gs
	gs.chunks = collectives.AllgathervInto(cm, final, gs.chunks)
	update, nz := gs.sumChunks(n)
	cm.Clock().SetPhase(netmodel.PhaseCompute)
	d.fillSum += float64(nz) / float64(n)
	d.fillCount++
	return allreduce.Result{
		Update:      update,
		Contributed: localIdx,
		LocalK:      mine.NNZ(),
		GlobalK:     nz,
	}
}

// GTopk is the global-top-k sparse allreduce of Shi et al. [42]: a
// binomial reduction tree where every internal node merges its child's
// top-k set with its own and re-selects k values, followed by a binomial
// broadcast of the final global top-k. The hierarchical re-selection is
// charged to the communication phase, matching how the paper's
// measurements attribute it.
type GTopk struct {
	cfg       allreduce.Config
	thScratch []float64
	pairs     []idxVal
	// pool is this rank's tree-payload arena: every hop of the reduction
	// and broadcast trees carries a pool vector owned by exactly one
	// receiver.
	pool sparse.Pool
	sel  *sparse.Vec // local selection scratch
	// mergeA/mergeB ping-pong the tree partial sums; trunc receives the
	// re-selected top-k at each level.
	mergeA, mergeB *sparse.Vec
	trunc          *sparse.Vec
	update         []float64
	touched        []int32 // update indexes written last iteration
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

// Pool exposes the tree-payload pool for the ownership property tests.
func (g *GTopk) Pool() *sparse.Pool { return &g.pool }

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
			sendVecChunk(cm, rank&^dist, tagGTopk+dist, cur.Indexes, cur.Values,
				cooWireWords(cm, cur.NNZ()))
			sent = true
			break
		}
		if rank|dist < p {
			in := recvVecChunk(cm, &g.pool, rank|dist, tagGTopk+dist, n)
			cm.Clock().Compute(float64(cur.NNZ() + in.NNZ()))
			merged := sparse.AddTo(g.mergeA, cur, in)
			g.mergeA, g.mergeB = g.mergeB, g.mergeA
			g.pool.Put(in)
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
	// between ranks.
	if sent {
		cur = recvVecChunk(cm, &g.pool, parentOf(rank, p), tagGTopk+(1<<20), n)
	} else if p > 1 {
		// Root: round the final set through the wire precision before it
		// fans out, so every rank applies bit-identical values. (At P=1
		// nothing fans out and nothing is rounded.)
		cm.Wire().Round(cur.Values)
	}
	for _, child := range childrenOf(rank, p) {
		sendVecChunk(cm, child, tagGTopk+(1<<20), cur.Indexes, cur.Values,
			cooWireWords(cm, cur.NNZ()))
	}
	cm.Clock().SetPhase(netmodel.PhaseCompute)

	// Scatter the final top-k into the instance update buffer, zeroing
	// exactly what the previous iteration wrote.
	if len(g.update) != n {
		g.update = make([]float64, n)
		g.touched = g.touched[:0]
	}
	update := g.update
	sparse.ZeroIndexes(update, g.touched)
	g.touched = append(g.touched[:0], cur.Indexes...)
	for i, idx := range cur.Indexes {
		update[idx] = cur.Values[i]
	}
	g.contributed = sparse.AppendIntersect(g.contributed[:0], localIdx, cur.Indexes)
	globalK := cur.NNZ()
	if sent {
		g.pool.Put(cur) // received broadcast hop: consumed, return to my pool
	}
	return allreduce.Result{
		Update:      update,
		Contributed: g.contributed,
		LocalK:      len(localIdx),
		GlobalK:     globalK,
	}
}

// parentOf and childrenOf define the binomial broadcast tree rooted at 0
// that mirrors the reduction tree above.
func parentOf(rank, p int) int {
	for dist := 1; dist < p; dist *= 2 {
		if rank&dist != 0 {
			return rank &^ dist
		}
	}
	return 0
}

func childrenOf(rank, p int) []int {
	var out []int
	// Children are rank|dist for dist above rank's lowest set bit (or
	// all powers for rank 0), matching the reduction-tree partners.
	low := rank & (-rank)
	if rank == 0 {
		low = p
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
