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
	// balanceTrigger is the max/mean selection-size ratio above which
	// the conditional data balancing step runs (§3.1.2). The largest
	// selection is at most the total, P times the mean, so balancing
	// never runs at P ≤ 4, whatever the input. The tests that exercise
	// it do so at P ≥ 5: the skewed rows of TestSparseReducePinned
	// (internal/train), the skewed case of TestReduceStorageDifferential,
	// which asserts that it ran, and TestRebalanceConservesPairs, which
	// calls rebalance directly.
	balanceTrigger = 4
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

	// recvRegion is accumulateChunk bound once: RecvChunkEach's callback
	// escapes through the Endpoint interface, so a closure built per
	// call would be garbage on every Reduce. It reads the split phase in
	// progress from split: the endpoint, the owned region of update
	// starting at index lo, and the region's bitmap.
	recvRegion func(i int, ch collectives.Chunk)
	split      struct {
		cm     cluster.Endpoint
		region []float64
		mask   []uint64
		lo     int
	}

	scratch scratch
}

// scratch holds per-instance buffers reused across Reduce calls. A
// rank's Reduce calls are serial, so reuse is safe as long as nothing
// here is handed to another rank by reference while it can still be
// rewritten: point-to-point payloads are copied into buffers drawn from
// the rank's pool and owned by the message (released into the
// receiver's pool), and payloads that fan out through an allgatherv are
// written into that call site's FanOut, whose two slots are reused only
// once every rank has finished with them. The returned Result's
// Update/Contributed slices point into this scratch and stay valid
// until the next Reduce on the same instance.
//
// Only update is sized by n, and the bitmap by n/P bits. Everything
// else is O(k): the buffers reserve sizes on the first call, the
// fan-out slots and the threshold candidates.
type scratch struct {
	// localIdx/localVal are the local selection as parallel (index,
	// value) slices, indexes ascending; region r is the sub-slice between
	// splits[r] and splits[r+1].
	localIdx []int32
	localVal []float64
	splits   []int
	// The owned region is reduced in place in update[lo:hi], and redMask
	// is the bitmap of its offsets that received a nonzero value.
	// splitAndReduce clears exactly the marked offsets of both while
	// extracting the reduced values into redIdx/redVal, so the region
	// (which moves every τ iterations) is all-zero again before the
	// global selection is scattered into update.
	redMask []uint64
	redIdx  []int32
	redVal  []float64
	// gidx collects the allgathered global index runs, whose end offsets
	// land in gidxEnds; MergeRuns sorts them against mergeSpare without
	// allocating. thScratch backs the periodic exact global-threshold
	// re-evaluation, and wide holds a received chunk's values widened
	// from the f32 wire (Chunk.Values).
	mergeSpare []int32
	gidx       []int32
	gidxEnds   []int
	thScratch  []float64
	wide       []float64
	// update holds the dense result handed back in Result.Update.
	update      allreduce.SparseUpdate
	contributed []int32
	// Balance-phase scratch: the size allgather's int/float staging,
	// rebalance's span offsets, the allgatherv result container, and the
	// split-phase receive keys.
	sizes      []int
	sizeFloats []float64
	offsets    []int
	chunks     []collectives.Chunk
	keys       []cluster.RecvKey
	// pieces is the capacity this rank draws its split-phase pieces at
	// (collectives.PieceClass).
	pieces collectives.PieceClass
	// The fan-out payloads, one FanOut per call site: the global
	// selection, its rebalanced span (a second site, since rebalance
	// reads the selection while writing it), and the reduced region's
	// values gathered for the exact global threshold.
	selOut, balOut, thOut collectives.FanOut
}

// reserve gives the buffers that hold a selection, the reduced region or
// the global indexes their capacity on the first call: k and a half,
// since the reused thresholds select somewhat more than k, plus a
// little for tiny k. Appends that grew them from empty would leave each
// outgrown array behind as garbage, which the steady state, allocating
// next to nothing, never collects.
func (s *scratch) reserve(k int) {
	if s.localIdx != nil {
		return
	}
	c := k + k/2 + 64
	s.localIdx, s.localVal = make([]int32, 0, c), make([]float64, 0, c)
	s.redIdx, s.redVal = make([]int32, 0, c), make([]float64, 0, c)
	s.gidx, s.mergeSpare = make([]int32, 0, c), make([]int32, 0, c)
	s.contributed = make([]int32, 0, c)
	s.update.Reserve(c)
}

// New returns a per-worker Ok-Topk instance. Zero config values take
// the paper's defaults, but a zero Config leaves Rotation, Repartition
// and DataBalance off; NewDefault turns all three on.
func New(cfg allreduce.Config) *OkTopk {
	cfg = cfg.Defaults()
	o := &OkTopk{
		cfg:       cfg,
		localCtl:  topk.NewReuseController(cfg.TauPrime),
		globalCtl: topk.NewReuseController(cfg.TauPrime),
	}
	o.recvRegion = o.accumulateChunk
	return o
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

// LastVolumeWords returns the number of words this rank sent during the
// most recent Reduce (per-iteration steady-state traffic).
func (o *OkTopk) LastVolumeWords() int { return o.lastVolume }

// LocalThreshold returns the currently cached (possibly reused) local
// top-k threshold; the Figure-4 experiment compares it against the exact
// and Gaussian-estimated thresholds.
func (o *OkTopk) LocalThreshold() float64 { return o.localCtl.Current() }

// Reduce implements Algorithm 1. It returns the dense global top-k
// update u_t and the intersection of local and global top-k indexes.
func (o *OkTopk) Reduce(cm cluster.Endpoint, acc []float64, t int) allreduce.Result {
	if t < 1 {
		panic("core: iteration numbers are 1-based")
	}
	n := len(acc)
	p := cm.Size()
	k := o.cfg.KFor(n)
	o.scratch.reserve(k)

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
		update := o.scratch.update.Begin(n)
		o.scratch.update.Set(localIdx, localVal)
		o.scratch.contributed = append(o.scratch.contributed[:0], localIdx...)
		o.lastVolume = 0
		return allreduce.Result{Update: update,
			Contributed: o.scratch.contributed,
			LocalK:      len(localIdx), GlobalK: len(localIdx)}
	}

	volume0 := cm.Clock().Snapshot().SentWords
	// The dense result, all-zero: line 8 reduces the owned region in it
	// and leaves it all-zero again, line 13 scatters u_t into it.
	update := o.scratch.update.Begin(n)

	// Lines 5-7: region boundary re-evaluation every τ iterations.
	if o.boundaries == nil || (t-1)%o.cfg.Tau == 0 {
		o.boundaries = o.repartition(cm, n, localIdx)
	}

	// Line 8: split and reduce.
	reducedIdx, reducedVal := o.splitAndReduce(cm, update, localIdx, localVal)

	// Lines 9-12: global threshold re-evaluation every τ′ iterations,
	// from the allgathered reduced top-k values, read in the chunks the
	// allgatherv delivered. (The copy into the fan-out slot is required:
	// the next call's splitAndReduce rewrites reducedVal.)
	if o.globalCtl.ShouldReevaluate(t) {
		gch := o.scratch.thOut.Fill(cm, nil, reducedVal)
		chunks := collectives.AllgathervInto(cm, gch, o.scratch.chunks)
		o.scratch.chunks = chunks
		total := 0
		for _, ch := range chunks {
			total += ch.NumValues()
		}
		allreduce.ChargeSort(cm, o.cfg, total)
		var th float64
		th, o.scratch.thScratch = topk.ThresholdRunsInto(func(i int) []float64 {
			return chunks[i].Values(&o.scratch.wide)
		}, len(chunks), total, k, o.scratch.thScratch)
		o.globalCtl.Set(th)
	}
	globalTh := o.globalCtl.Current()

	// Line 13: balance and allgatherv.
	globalIdx := o.balanceAndAllgatherv(cm, reducedIdx, reducedVal, globalTh)

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
	bounds[p] = n
	for j := 1; j < p; j++ {
		bounds[j] = min(max(int(prop[j-1]/float64(p)), bounds[j-1]), n)
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
func accumulateRegion(buf []float64, mask []uint64, lo int, idxs []int32, vals []float64) {
	for i, idx := range idxs {
		off := int(idx) - lo
		v := vals[i]
		if v != 0 {
			mask[off>>6] |= 1 << (off & 63)
		}
		buf[off] += v
	}
}

// splitAndReduce sends each region's selected values to its owner with
// the rotated, bucketed schedule of Figure 2 and reduces the owned
// region in the all-zero update, which it leaves all-zero. It returns
// the reduced region contents as parallel index/value slices, indexes
// strictly ascending: an index appears once if any source contributed a
// nonzero value to it, with the sum of all contributions as its value
// — also when that sum, or a partial sum on the way, cancels to exactly
// zero.
func (o *OkTopk) splitAndReduce(cm cluster.Endpoint, update []float64, localIdx []int32, localVal []float64) ([]int32, []float64) {
	p, rank := cm.Size(), cm.Rank()
	cm.Clock().SetPhase(netmodel.PhaseComm)
	defer cm.Clock().SetPhase(netmodel.PhaseCompute)

	// The selection is index-sorted and regions are index ranges, so
	// each region is a sub-slice of it. send ships region dst as a
	// pooled wire copy drawn at the piece class, which the
	// receiver releases after accumulating, so no other rank ever
	// references the selection.
	splits := regionSplits(o.scratch.splits, localIdx, o.boundaries)
	o.scratch.splits = splits
	region := func(r int) ([]int32, []float64) {
		return localIdx[splits[r]:splits[r+1]], localVal[splits[r]:splits[r+1]]
	}
	send := func(dst, tag int) {
		ridx, rval := region(dst)
		ch := o.scratch.pieces.Chunk(cm, ridx, rval)
		cm.SendChunk(dst, tag, ch, ch.Words())
	}

	// My region of update is the reduction buffer, and the bitmap of its
	// written offsets is scratch (all-zero on entry). A repartition that
	// widens the region past the bitmap's high-water mark doubles it (up
	// to the whole index space), so region widths that wander from one
	// repartition to the next stop re-allocating after a few.
	lo, hi := o.boundaries[rank], o.boundaries[rank+1]
	words := (hi - lo + 63) / 64
	if cap(o.scratch.redMask) < words {
		o.scratch.redMask = make([]uint64, min(max(words, 2*cap(o.scratch.redMask)), (o.boundaries[p]+63)/64))
	}
	buf := update[lo:hi]
	mask := o.scratch.redMask[:words]
	// receiveEach drains one region message per key in key order (the
	// deterministic accumulation order), harvesting queued messages in
	// batches under a single mailbox lock hold; accumulateChunk folds
	// each into the region.
	o.split.cm, o.split.region, o.split.mask, o.split.lo = cm, buf, mask, lo
	receiveEach := func(keys []cluster.RecvKey) { cm.RecvChunkEach(keys, o.recvRegion) }
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
				send((rank+s)%p, tagSplit+s)
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
				send(s, tagSplit+s)
			}
		}
	}

	// Extract the marked offsets in ascending order, restoring the
	// all-zero invariant of the region and the bitmap.
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

// accumulateChunk folds one received region message into the owned
// region splitAndReduce is reducing and releases the message's buffers
// into this rank's pool.
func (o *OkTopk) accumulateChunk(_ int, ch collectives.Chunk) {
	s := &o.split
	o.scratch.pieces.Received(ch)
	accumulateRegion(s.region, s.mask, s.lo, ch.Aux, ch.Values(&o.scratch.wide))
	s.cm.Clock().Compute(float64(len(ch.Aux)))
	collectives.Release(s.cm, ch)
}

// balanceAndAllgatherv selects the global top-k values of the owned
// region by the estimated global threshold, rebalances the selected data
// across ranks when skewed, and allgathers everything (§3.1.2, Figure 3).
// The global selection is set into the update store, whose buffer is
// all-zero; the global indexes are returned ascending.
func (o *OkTopk) balanceAndAllgatherv(cm cluster.Endpoint, reducedIdx []int32, reducedVal []float64, globalTh float64) []int32 {
	p := cm.Size()

	// ① Global top-k selection within my region (local scan), written
	// into this call's fan-out slot: its buffers reach every rank through
	// the allgatherv below, or through rebalance's sends.
	allreduce.ChargeScan(cm, o.cfg, len(reducedVal))
	sel := o.scratch.selOut.Next()
	selected := 0
	for _, v := range reducedVal {
		if v >= globalTh || -v >= globalTh {
			selected++
		}
	}
	sel.Reset(selected)
	for i, v := range reducedVal {
		if v >= globalTh || -v >= globalTh {
			sel.Indexes = append(sel.Indexes, reducedIdx[i])
			sel.Values = append(sel.Values, v)
		}
	}

	cm.Clock().SetPhase(netmodel.PhaseComm)
	defer cm.Clock().SetPhase(netmodel.PhaseCompute)

	// ② Package sizes: an allgather of one size per rank ((logP)α only).
	var sizes []int
	sizes, o.scratch.sizeFloats = collectives.AllgatherSizesInto(cm, sel.NNZ(),
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
	if o.cfg.DataBalance && total > 0 && float64(maxSize) > balanceTrigger*mean {
		sel = o.rebalance(cm, sizes, sel)
	}

	// ④ Allgatherv (recursive doubling) of the (balanced) chunks. Each
	// chunk's indexes are sorted and the rank-ordered chunks cover
	// ascending spans, so the global index list is a merge of sorted
	// runs (usually a pure concatenation, which MergeRuns detects). The
	// payload is the fan-out slot in wire format; on the f32 wire every
	// rank — the contributor included — scatters the same rounded values
	// into its update.
	o.scratch.chunks = collectives.AllgathervInto(cm, sel.Chunk(cm), o.scratch.chunks)
	globalIdx := o.scratch.gidx[:0]
	gidxEnds := o.scratch.gidxEnds[:0]
	for _, ch := range o.scratch.chunks {
		o.scratch.update.Set(ch.Aux, ch.Values(&o.scratch.wide))
		globalIdx = append(globalIdx, ch.Aux...)
		gidxEnds = append(gidxEnds, len(globalIdx))
	}
	globalIdx, o.scratch.mergeSpare = sparse.MergeRuns(globalIdx, gidxEnds, o.scratch.mergeSpare)
	o.scratch.gidx = globalIdx
	o.scratch.gidxEnds = gidxEnds[:0]
	cm.Clock().Compute(float64(len(globalIdx)))
	return globalIdx
}

// rebalance redistributes the logically concatenated (by rank order)
// global top-k array into equal consecutive spans. Every rank derives
// the same plan from the shared size vector, so only the overlapping
// pieces move, with at most one message per (sender, receiver) pair —
// bounded by Pα + 2k(P−1)/P·β in the worst case of full concentration.
// It reads this call's selection sel and returns this call's slot of
// the balanced span, which fans out next.
func (o *OkTopk) rebalance(cm cluster.Endpoint, sizes []int, sel *collectives.FanOutSlot) *collectives.FanOutSlot {
	p, rank := cm.Size(), cm.Rank()
	idx, val := sel.Indexes, sel.Values
	wire := sel.Chunk(cm)
	offsets := append(o.scratch.offsets[:0], 0)
	for i, s := range sizes {
		offsets = append(offsets, offsets[i]+s)
	}
	o.scratch.offsets = offsets
	total := offsets[p]
	target := func(r int) (int, int) {
		lo := r * total / p
		hi := (r + 1) * total / p
		return lo, hi
	}

	myLo, myHi := offsets[rank], offsets[rank+1]
	out := o.scratch.balOut.Next()
	tLo, tHi := target(rank)
	out.Reset(tHi - tLo)
	newIdx, newVal := out.Indexes, out.Values

	// Send my pieces that belong to other ranks' targets; keep my own.
	for r := 0; r < p; r++ {
		tLo, tHi := target(r)
		oLo, oHi := max(myLo, tLo), min(myHi, tHi)
		if oLo >= oHi {
			continue
		}
		a, b := oLo-myLo, oHi-myLo
		if r == rank {
			newIdx = append(newIdx, idx[a:b]...)
			newVal = append(newVal, val[a:b]...)
			continue
		}
		// Pieces ride as views of the selection's slot in wire format,
		// which the fan-out slot rule keeps unchanged until every
		// receiver has copied its piece; nothing is pooled or released.
		// Words come from the chunk itself, which accounts per the
		// representation it carries.
		ch := wire.Slice(a, b)
		cm.SendChunk(r, tagBalance, ch, ch.Words())
	}
	// Receive pieces of my target span from their current owners.
	for r := 0; r < p; r++ {
		if r == rank {
			continue
		}
		oLo, oHi := max(offsets[r], tLo), min(offsets[r+1], tHi)
		if oLo >= oHi {
			continue
		}
		ch := cm.RecvChunk(r, tagBalance)
		if len(ch.Aux) != oHi-oLo {
			panic(fmt.Sprintf("core: rebalance plan mismatch: got %d want %d", len(ch.Aux), oHi-oLo))
		}
		newIdx = append(newIdx, ch.Aux...)
		newVal = ch.AppendValues(newVal)
	}
	out.Indexes, out.Values = newIdx, newVal
	return out
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
