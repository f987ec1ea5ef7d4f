// Package core implements the paper's primary contribution: the O(k)
// sparse allreduce (§3) and the Ok-Topk SGD machinery built on it (§4).
//
// The collective has two phases:
//
//  1. split and reduce (§3.1.1): the gradient index space is cut into P
//     regions whose boundaries are periodically (every τ iterations)
//     rebalanced so each region holds ≈k/P of every worker's local top-k
//     values; each worker sends region j's values to worker j with a
//     rotated, bucketed schedule and reduces the region it owns.
//  2. balance and allgatherv (§3.1.2): each worker selects the global
//     top-k values inside its region by an estimated global threshold,
//     optionally rebalances the selected data when its distribution is
//     skewed (max > 4× mean), and allgathers the balanced chunks with
//     recursive doubling.
//
// Local and global thresholds are exact values recomputed every τ′
// iterations and reused in between (§3.1.3). Total traffic is bounded by
// 6k(P−1)/P words, within 3× of the 2k(P−1)/P lower bound (Theorem 3.1);
// the bound is asserted by tests in this package.
package core

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"repro/internal/allreduce"
	"repro/internal/cluster"
	"repro/internal/collectives"
	"repro/internal/netmodel"
	"repro/internal/sparse"
	"repro/internal/topk"
)

const (
	tagSplit   = 11 << 20
	tagBalance = 12 << 20
)

// OkTopk is one worker's instance of the O(k) sparse allreduce. Create
// one per rank with New and call Reduce collectively.
type OkTopk struct {
	cfg       allreduce.Config
	localCtl  *topk.ReuseController
	globalCtl *topk.ReuseController
	// boundaries are the P+1 consensus region boundaries over the index
	// space, recomputed every cfg.Tau iterations.
	boundaries []int

	// lastVolume records the words this rank sent during the most recent
	// Reduce, excluding the amortized threshold/boundary maintenance
	// traffic; tests check it against the 6k(P−1)/P bound.
	lastVolume int

	scratch scratch
}

// scratch holds per-instance buffers reused across Reduce calls. A
// rank's Reduce calls are serial, so reuse is safe as long as nothing
// here is ever handed to another rank by reference: wire payloads are
// copied into buffers drawn from the rank's pool and owned by the
// message (released into the receiver's pool), and payloads that fan
// out through the allgatherv are freshly allocated each call. The
// returned Result's Update/Contributed slices point into this scratch
// and stay valid until the next Reduce on the same instance.
type scratch struct {
	// localIdx/localVal are the local selection as parallel (index,
	// value) slices, indexes ascending; region r is the sub-slice between
	// splits[r] and splits[r+1].
	localIdx []int32
	localVal []float64
	splits   []int
	// red is the owned-region reduction buffer and redMask the bitmap of
	// its offsets that received a nonzero value. Both are kept all-zero
	// between calls: splitAndReduce clears exactly the marked offsets
	// while extracting the reduced values into redIdx/redVal, so
	// region-boundary changes (every τ iterations) can resize them
	// freely.
	red     []float64
	redMask []uint64
	redIdx  []int32
	redVal  []float64
	// gidx collects the allgathered global index runs, whose end offsets
	// land in gidxEnds; MergeRuns sorts them against mergeSpare without
	// allocating. thScratch/gatherBuf back the periodic exact
	// global-threshold re-evaluation.
	mergeSpare []int32
	gidx       []int32
	gidxEnds   []int
	thScratch  []float64
	gatherBuf  []float64
	// update is the dense result buffer handed back in Result.Update.
	// It is kept logically all-zero between calls by re-zeroing exactly
	// the indexes recorded in prevWritten (an O(k) scatter instead of an
	// O(n) memset and a fresh allocation per iteration).
	update      []float64
	prevWritten []int32
	contributed []int32
	// Balance-phase scratch: the size allgather's int/float staging, the
	// allgatherv result container, and the split-phase receive keys.
	sizes      []int
	sizeFloats []float64
	chunks     []collectives.Chunk
	keys       []cluster.RecvKey
}

// updateBuffer returns the instance update buffer, logically all-zero,
// resizing it when the gradient dimension changes.
func (o *OkTopk) updateBuffer(n int) []float64 {
	s := &o.scratch
	if len(s.update) != n {
		s.update = make([]float64, n)
		s.prevWritten = s.prevWritten[:0]
	}
	u := s.update
	sparse.ZeroIndexes(u, s.prevWritten)
	s.prevWritten = s.prevWritten[:0]
	return u
}

// New returns a per-worker Ok-Topk instance. The config's zero values
// take the paper's defaults; Rotation, Repartition and DataBalance are
// all enabled unless the caller built the Config explicitly for an
// ablation.
func New(cfg allreduce.Config) *OkTopk {
	cfg = cfg.Defaults()
	return &OkTopk{
		cfg:       cfg,
		localCtl:  topk.NewReuseController(cfg.TauPrime),
		globalCtl: topk.NewReuseController(cfg.TauPrime),
	}
}

// NewDefault returns an Ok-Topk instance with every optimization on.
func NewDefault(cfg allreduce.Config) *OkTopk {
	cfg.Rotation = true
	cfg.Repartition = true
	cfg.DataBalance = true
	return New(cfg)
}

func (*OkTopk) Name() string           { return "OkTopk" }
func (*OkTopk) OverlapsBackward() bool { return false }

// Config returns the worker's effective configuration.
func (o *OkTopk) Config() allreduce.Config { return o.cfg }

// LastVolumeWords returns the number of words this rank sent during the
// most recent Reduce (per-iteration steady-state traffic).
func (o *OkTopk) LastVolumeWords() int { return o.lastVolume }

// LocalThreshold returns the currently cached (possibly reused) local
// top-k threshold; the Figure-4 experiment compares it against the exact
// and Gaussian-estimated thresholds.
func (o *OkTopk) LocalThreshold() float64 { return o.localCtl.Current() }

// Boundaries returns the current consensus region boundaries (nil before
// the first Reduce).
func (o *OkTopk) Boundaries() []int { return o.boundaries }

// Reduce implements Algorithm 1. It returns the dense global top-k
// update u_t and the intersection of local and global top-k indexes.
func (o *OkTopk) Reduce(cm cluster.Endpoint, acc []float64, t int) allreduce.Result {
	if t < 1 {
		panic("core: iteration numbers are 1-based")
	}
	n := len(acc)
	p := cm.Size()
	k := o.cfg.KFor(n)

	// Lines 2-4: local threshold re-evaluation every τ′ iterations.
	if o.localCtl.ShouldReevaluate(t) {
		allreduce.ChargeSort(cm, o.cfg, n)
	}
	localTh := o.localCtl.ThresholdFor(t, acc, k)

	// Local top-k selection by threshold: one O(n) scan that keeps the
	// selected values beside their indexes, so nothing below reads acc
	// again. Both buffers are per-instance scratch.
	allreduce.ChargeScan(cm, o.cfg, n)
	localIdx, localVal := topk.AppendSelectValuesByThreshold(o.scratch.localIdx[:0], o.scratch.localVal[:0], acc, localTh)
	o.scratch.localIdx, o.scratch.localVal = localIdx, localVal

	if p == 1 {
		update := o.updateBuffer(n)
		for i, idx := range localIdx {
			update[idx] = localVal[i]
		}
		o.scratch.prevWritten = append(o.scratch.prevWritten, localIdx...)
		o.scratch.contributed = append(o.scratch.contributed[:0], localIdx...)
		o.lastVolume = 0
		return allreduce.Result{Update: update,
			Contributed: o.scratch.contributed,
			LocalK:      len(localIdx), GlobalK: len(localIdx)}
	}

	volume0 := cm.Clock().Snapshot().SentWords

	// Lines 5-7: region boundary re-evaluation every τ iterations.
	if o.boundaries == nil || (t-1)%o.cfg.Tau == 0 {
		o.boundaries = o.repartition(cm, n, localIdx)
	}

	// Line 8: split and reduce.
	reducedIdx, reducedVal := o.splitAndReduce(cm, localIdx, localVal)

	// Lines 9-12: global threshold re-evaluation every τ′ iterations,
	// from the allgathered reduced top-k values. (The chunk copy is
	// required: allgathered payloads fan out to several ranks.)
	if o.globalCtl.ShouldReevaluate(t) {
		var gch collectives.Chunk
		if cm.Wire() == cluster.WireF32 {
			gch = collectives.Chunk{Data32: sparse.Narrow32(reducedVal)}
		} else {
			gch = collectives.Chunk{Data: append([]float64(nil), reducedVal...)}
		}
		o.scratch.chunks = collectives.AllgathervInto(cm, gch, o.scratch.chunks)
		all := o.scratch.gatherBuf[:0]
		for _, ch := range o.scratch.chunks {
			all = ch.AppendValues(all)
		}
		o.scratch.gatherBuf = all
		allreduce.ChargeSort(cm, o.cfg, len(all))
		var th float64
		th, o.scratch.thScratch = topk.ThresholdInto(all, k, o.scratch.thScratch)
		o.globalCtl.Set(th)
	}
	globalTh := o.globalCtl.Current()

	// Line 13: balance and allgatherv.
	update, globalIdx := o.balanceAndAllgatherv(cm, n, reducedIdx, reducedVal, globalTh)

	o.lastVolume = int(cm.Clock().Snapshot().SentWords - volume0)

	// Line 14: indexes of local values that contributed to the global
	// top-k result.
	contributed := sparse.AppendIntersect(o.scratch.contributed[:0], localIdx, globalIdx)
	o.scratch.contributed = contributed
	return allreduce.Result{
		Update:      update,
		Contributed: contributed,
		LocalK:      len(localIdx),
		GlobalK:     len(globalIdx),
	}
}

// repartition computes consensus region boundaries (§3.1.1): each worker
// proposes boundaries that split its own local top-k values into P
// equal-count regions, and the proposals are averaged with a small
// allreduce (P−1 interior boundaries, (logP)α cost amortized over τ
// iterations).
func (o *OkTopk) repartition(cm cluster.Endpoint, n int, localIdx []int32) []int {
	p := cm.Size()
	prop := make([]float64, p-1)
	if !o.cfg.Repartition || len(localIdx) == 0 {
		for j := 1; j < p; j++ {
			prop[j-1] = float64(j) * float64(n) / float64(p)
		}
	} else {
		for j := 1; j < p; j++ {
			pos := j * len(localIdx) / p
			prop[j-1] = float64(localIdx[pos])
		}
	}
	cm.Clock().SetPhase(netmodel.PhaseComm)
	collectives.Allreduce(cm, prop)
	cm.Clock().SetPhase(netmodel.PhaseCompute)

	bounds := make([]int, p+1)
	bounds[0] = 0
	bounds[p] = n
	for j := 1; j < p; j++ {
		b := int(prop[j-1] / float64(p))
		if b < bounds[j-1] {
			b = bounds[j-1]
		}
		if b > n {
			b = n
		}
		bounds[j] = b
	}
	return bounds
}

// regionSplits returns the P+1 positions that cut the ascending index
// list idx at the region boundaries: region r is idx[s[r]:s[r+1]], the
// indexes in [bounds[r], bounds[r+1]). An index equal to a boundary
// belongs to the region that starts there, and repeated boundaries give
// empty regions.
func regionSplits(dst []int, idx []int32, bounds []int) []int {
	dst = dst[:0]
	for _, b := range bounds {
		dst = append(dst, sort.Search(len(idx), func(i int) bool { return int(idx[i]) >= b }))
	}
	return dst
}

// accumulateRegion folds one source's (index, value) pairs into the
// owned-region buffer buf, whose offset 0 is index lo, and marks in
// mask every offset that received a nonzero value.
func accumulateRegion[T float32 | float64](buf []float64, mask []uint64, lo int, idxs []int32, vals []T) {
	for i, idx := range idxs {
		off := int(idx) - lo
		v := float64(vals[i])
		if v != 0 {
			mask[off>>6] |= 1 << (off & 63)
		}
		buf[off] += v
	}
}

// splitAndReduce sends each region's selected values to its owner with
// the rotated, bucketed schedule of Figure 2 and reduces the owned
// region. It returns the reduced region contents as parallel
// index/value slices, indexes strictly ascending: an index appears once
// if any source contributed a nonzero value to it, with the sum of all
// contributions as its value — also when that sum, or a partial sum on
// the way, cancels to exactly zero.
func (o *OkTopk) splitAndReduce(cm cluster.Endpoint, localIdx []int32, localVal []float64) ([]int32, []float64) {
	p, rank := cm.Size(), cm.Rank()
	cm.Clock().SetPhase(netmodel.PhaseComm)
	defer cm.Clock().SetPhase(netmodel.PhaseCompute)

	// The selection is index-sorted and regions are index ranges, so
	// each region is a sub-slice of it. Wire copies are made at send
	// time, so no other rank ever references the selection.
	splits := regionSplits(o.scratch.splits, localIdx, o.boundaries)
	o.scratch.splits = splits
	region := func(r int) ([]int32, []float64) {
		return localIdx[splits[r]:splits[r+1]], localVal[splits[r]:splits[r+1]]
	}

	// wire copies region dst into wire-format buffers drawn from this
	// rank's pool, owned by the outgoing message; the receiver releases
	// them into its own pool after accumulating (ownership transfer).
	// On the f32 wire the values are rounded here, at the edge.
	wire := func(dst int) collectives.Chunk {
		ridx, rval := region(dst)
		idx := cm.GetInt32s(len(ridx))
		copy(idx, ridx)
		if cm.Wire() == cluster.WireF32 {
			val := cm.GetFloat32s(len(rval))
			cluster.NarrowInto(val, rval)
			return collectives.Chunk{Data32: val, Aux: idx}
		}
		val := cm.GetFloats(len(rval))
		copy(val, rval)
		return collectives.Chunk{Data: val, Aux: idx}
	}

	// Reduction buffer for my region and the bitmap of its touched
	// offsets (scratch, both all-zero on entry).
	lo, hi := o.boundaries[rank], o.boundaries[rank+1]
	maskWords := (hi - lo + 63) / 64
	if cap(o.scratch.red) < hi-lo {
		o.scratch.red = make([]float64, hi-lo)
		o.scratch.redMask = make([]uint64, maskWords)
	}
	buf := o.scratch.red[:hi-lo]
	mask := o.scratch.redMask[:maskWords]
	// receiveEach drains one region message per key in key order (the
	// deterministic accumulation order), harvesting queued messages in
	// batches under a single mailbox lock hold, and releases each
	// message's buffers into this rank's pool.
	receiveEach := func(keys []cluster.RecvKey) {
		cm.RecvChunkEach(keys, func(i int, ch collectives.Chunk) {
			if ch.Data32 != nil {
				accumulateRegion(buf, mask, lo, ch.Aux, ch.Data32)
				cm.PutFloat32s(ch.Data32)
			} else {
				accumulateRegion(buf, mask, lo, ch.Aux, ch.Data)
				cm.PutFloats(ch.Data)
			}
			cm.Clock().Compute(float64(len(ch.Aux)))
			cm.PutInt32s(ch.Aux)
		})
	}
	ownIdx, ownVal := region(rank)
	accumulateRegion(buf, mask, lo, ownIdx, ownVal)
	cm.Clock().Compute(float64(len(ownIdx)))

	bucket := o.cfg.BucketSize
	if bucket < 1 {
		bucket = 1
	}
	if cap(o.scratch.keys) < p {
		o.scratch.keys = make([]cluster.RecvKey, p)
	}
	if o.cfg.Rotation {
		// Rotated schedule: at step s, rank sends to rank+s and receives
		// from rank−s; steps are grouped into buckets whose sends are
		// posted together so transfers overlap the previous bucket's
		// reduction.
		for base := 1; base < p; base += bucket {
			end := base + bucket
			if end > p {
				end = p
			}
			for s := base; s < end; s++ {
				dst := (rank + s) % p
				ch := wire(dst)
				cm.SendChunk(dst, tagSplit+s, ch, ch.Words())
			}
			keys := o.scratch.keys[:0]
			for s := base; s < end; s++ {
				keys = append(keys, cluster.RecvKey{Src: (rank - s + p) % p, Tag: tagSplit + s})
			}
			receiveEach(keys)
		}
	} else {
		// Naive schedule (Figure 2a): all workers target worker s at
		// step s, concentrating P−1 concurrent arrivals on one endpoint.
		for s := 0; s < p; s++ {
			if s == rank {
				keys := o.scratch.keys[:0]
				for src := 0; src < p; src++ {
					if src == rank {
						continue
					}
					keys = append(keys, cluster.RecvKey{Src: src, Tag: tagSplit + s})
				}
				receiveEach(keys)
			} else {
				ch := wire(s)
				cm.SendChunk(s, tagSplit+s, ch, ch.Words())
			}
		}
	}

	// Extract the marked offsets in ascending order, restoring the
	// all-zero invariant of both buffers for the next call.
	redIdx, redVal := o.scratch.redIdx[:0], o.scratch.redVal[:0]
	for w, word := range mask {
		for ; word != 0; word &= word - 1 {
			off := w<<6 | bits.TrailingZeros64(word)
			redIdx = append(redIdx, int32(lo+off))
			redVal = append(redVal, buf[off])
			buf[off] = 0
		}
		mask[w] = 0
	}
	o.scratch.redIdx, o.scratch.redVal = redIdx, redVal
	return redIdx, redVal
}

// balanceAndAllgatherv selects the global top-k values of the owned
// region by the estimated global threshold, rebalances the selected data
// across ranks when skewed, and allgathers everything (§3.1.2, Figure 3).
func (o *OkTopk) balanceAndAllgatherv(cm cluster.Endpoint, n int, reducedIdx []int32, reducedVal []float64, globalTh float64) ([]float64, []int32) {
	p := cm.Size()

	// ① Global top-k selection within my region (local scan). The
	// selection is copied into exactly-sized fresh slices: its backing
	// arrays fan out to every rank through the allgatherv below, so they
	// must not alias instance scratch or pooled buffers.
	allreduce.ChargeScan(cm, o.cfg, len(reducedVal))
	sel := 0
	for _, v := range reducedVal {
		if v >= globalTh || -v >= globalTh {
			sel++
		}
	}
	selIdx := make([]int32, 0, sel)
	selVal := make([]float64, 0, sel)
	for i, v := range reducedVal {
		if v >= globalTh || -v >= globalTh {
			selIdx = append(selIdx, reducedIdx[i])
			selVal = append(selVal, v)
		}
	}

	cm.Clock().SetPhase(netmodel.PhaseComm)
	defer cm.Clock().SetPhase(netmodel.PhaseCompute)

	// ② Package sizes: an allgather of one size per rank ((logP)α only).
	var sizes []int
	sizes, o.scratch.sizeFloats = collectives.AllgatherSizesInto(cm, len(selIdx),
		o.scratch.sizes, o.scratch.sizeFloats)
	o.scratch.sizes = sizes
	total := 0
	maxSize := 0
	for _, s := range sizes {
		total += s
		if s > maxSize {
			maxSize = s
		}
	}
	mean := float64(total) / float64(p)

	// ③ Conditional data balancing: redistribute the concatenated global
	// array into equal spans with point-to-point sends, computed from the
	// size vector every rank already holds.
	if o.cfg.DataBalance && total > 0 && float64(maxSize) > o.cfg.BalanceTrigger*mean {
		selIdx, selVal = rebalance(cm, sizes, selIdx, selVal)
	}

	// ④ Allgatherv (recursive doubling) of the (balanced) chunks. Each
	// chunk's indexes are sorted and the rank-ordered chunks cover
	// ascending spans, so the global index list is a merge of sorted
	// runs (usually a pure concatenation, which MergeRuns detects). The
	// payload is fresh in wire format (selIdx/selVal were freshly
	// allocated above); on the f32 wire every rank — the contributor
	// included — scatters the same rounded values into its update.
	mine := collectives.Chunk{Data: selVal, Aux: selIdx}
	if cm.Wire() == cluster.WireF32 {
		mine = collectives.Chunk{Data32: sparse.Narrow32(selVal), Aux: selIdx}
	}
	o.scratch.chunks = collectives.AllgathervInto(cm, mine, o.scratch.chunks)
	update := o.updateBuffer(n)
	globalIdx := o.scratch.gidx[:0]
	gidxEnds := o.scratch.gidxEnds[:0]
	for _, ch := range o.scratch.chunks {
		if ch.Data32 != nil {
			for i, idx := range ch.Aux {
				update[idx] = float64(ch.Data32[i])
			}
		} else {
			for i, idx := range ch.Aux {
				update[idx] = ch.Data[i]
			}
		}
		globalIdx = append(globalIdx, ch.Aux...)
		gidxEnds = append(gidxEnds, len(globalIdx))
	}
	globalIdx, o.scratch.mergeSpare = sparse.MergeRuns(globalIdx, gidxEnds, o.scratch.mergeSpare)
	o.scratch.gidx = globalIdx
	o.scratch.gidxEnds = gidxEnds[:0]
	o.scratch.prevWritten = append(o.scratch.prevWritten, globalIdx...)
	cm.Clock().Compute(float64(len(globalIdx)))
	return update, globalIdx
}

// rebalance redistributes the logically concatenated (by rank order)
// global top-k array into equal consecutive spans. Every rank derives
// the same plan from the shared size vector, so only the overlapping
// pieces move, with at most one message per (sender, receiver) pair —
// bounded by Pα + 2k(P−1)/P·β in the worst case of full concentration.
func rebalance(cm cluster.Endpoint, sizes []int, idx []int32, val []float64) ([]int32, []float64) {
	p, rank := cm.Size(), cm.Rank()
	offsets := make([]int, p+1)
	for i, s := range sizes {
		offsets[i+1] = offsets[i] + s
	}
	total := offsets[p]
	target := func(r int) (int, int) {
		lo := r * total / p
		hi := (r + 1) * total / p
		return lo, hi
	}

	myLo, myHi := offsets[rank], offsets[rank+1]
	newIdx := make([]int32, 0, total/p+1)
	newVal := make([]float64, 0, total/p+1)

	// Send my pieces that belong to other ranks' targets; keep my own.
	for r := 0; r < p; r++ {
		tLo, tHi := target(r)
		oLo, oHi := maxInt(myLo, tLo), minInt(myHi, tHi)
		if oLo >= oHi {
			continue
		}
		a, b := oLo-myLo, oHi-myLo
		if r == rank {
			newIdx = append(newIdx, idx[a:b]...)
			newVal = append(newVal, val[a:b]...)
			continue
		}
		// Indexes ride as views of the (immutable from here) selection;
		// on the f32 wire the values are rounded into a pooled buffer
		// the receiver releases. Words come from the chunk itself, which
		// accounts per the representation it carries.
		ch := collectives.Chunk{Data: val[a:b], Aux: idx[a:b]}
		if cm.Wire() == cluster.WireF32 {
			vals := cm.GetFloat32s(b - a)
			cluster.NarrowInto(vals, val[a:b])
			ch = collectives.Chunk{Data32: vals, Aux: idx[a:b]}
		}
		cm.SendChunk(r, tagBalance, ch, ch.Words())
	}
	// Receive pieces of my target span from their current owners.
	tLo, tHi := target(rank)
	for r := 0; r < p; r++ {
		if r == rank {
			continue
		}
		oLo, oHi := maxInt(offsets[r], tLo), minInt(offsets[r+1], tHi)
		if oLo >= oHi {
			continue
		}
		ch := cm.RecvChunk(r, tagBalance)
		if len(ch.Aux) != oHi-oLo {
			panic(fmt.Sprintf("core: rebalance plan mismatch: got %d want %d", len(ch.Aux), oHi-oLo))
		}
		newIdx = append(newIdx, ch.Aux...)
		newVal = ch.AppendValues(newVal)
		if ch.Data32 != nil {
			cm.PutFloat32s(ch.Data32)
		}
	}
	return newIdx, newVal
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TrueGlobalTopk computes Topk(Σ_i acc_i) exactly from all workers'
// accumulators — the "true global top-k values intended to be applied"
// in Assumption 1. It is an offline helper for the ξ experiments, not a
// collective.
func TrueGlobalTopk(accs [][]float64, k int) *sparse.Vec {
	if len(accs) == 0 {
		return sparse.New(0)
	}
	n := len(accs[0])
	sum := make([]float64, n)
	for _, a := range accs {
		for i, v := range a {
			sum[i] += v
		}
	}
	th := topk.Threshold(sum, k)
	return sparse.FromDenseThreshold(sum, th)
}

// Xi computes the empirical ξ of Assumption 1 for one iteration:
//
//	ξ = ‖Topk((1/P)Σ(αG_i+ε_i)) − Topk((1/P)ΣTopk(αG_i+ε_i))‖ / ‖αG_t‖
//
// accs are the per-worker accumulators αG_i+ε_i, applied is the dense
// sum Ok-Topk actually produced (Update, before the 1/P scaling), and
// gradNorm is ‖α·(1/P)Σ G_i‖. Both Topk terms scale linearly in 1/P, so
// the difference is computed on the sums and divided by P. Figure 5
// plots this value over training.
func Xi(accs [][]float64, applied []float64, k int, gradNorm float64) float64 {
	if gradNorm == 0 || len(accs) == 0 {
		return 0
	}
	truth := TrueGlobalTopk(accs, k)
	dense := truth.Dense()
	var diff float64
	for i := range dense {
		d := dense[i] - applied[i]
		diff += d * d
	}
	return math.Sqrt(diff) / (float64(len(accs)) * gradNorm)
}
