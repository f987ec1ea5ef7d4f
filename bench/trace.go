package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/allreduce"
	"repro/internal/cluster"
	"repro/internal/train"
)

// Tracing from outside: decorators around train.Workload,
// allreduce.Algorithm and cluster.Endpoint record spans into per-rank
// in-memory buffers; nothing is written until the run ends. A rank is
// one goroutine at a time (the Comm threading contract), so the buffers
// need no lock.

type spanKind uint8

const (
	spanOp      spanKind = iota // one collective op, seen by the caller
	spanRank                    // one rank's body of a reduce op
	spanStep                    // one rank's training step: first Workload call → op end
	spanCompute                 // Workload.ComputeBatch
	spanReduce                  // Algorithm.Reduce
	spanRecv                    // waiting inside Endpoint.Recv*
	spanBarrier                 // waiting inside Endpoint.Barrier
)

var spanNames = [...]string{"op", "rank", "train.step", "nn.compute_batch", "allreduce.reduce", "cluster.recv_wait", "cluster.barrier_wait"}

// span is one timed interval. parent indexes the same rank's buffer
// (-1 for a root); start and end are nanoseconds since the tracer's epoch.
type span struct {
	kind       spanKind
	op         int32
	parent     int32
	start, end int64
}

// rankTrace is one rank's span buffer, open-span stack and counters.
type rankTrace struct {
	spans    []span
	stack    []int32
	sends    int64
	words    int64
	poolGets int64
	localK   int64
	globalK  int64
	reduces  int64
	_        [64]byte // keep neighbouring ranks' hot fields off one cache line
}

type tracer struct {
	epoch  time.Time
	ranks  []rankTrace
	ops    []span // spanOp, recorded by the caller's goroutine
	op     int32
	paused bool
}

// newTracer preallocates room for spansPerOp spans per rank and op, so
// recording does not allocate inside the timed window.
func newTracer(p, ops, spansPerOp int) *tracer {
	tr := &tracer{epoch: time.Now(), ranks: make([]rankTrace, p), ops: make([]span, 0, ops)}
	for r := range tr.ranks {
		tr.ranks[r].spans = make([]span, 0, ops*spansPerOp)
		tr.ranks[r].stack = make([]int32, 0, 8)
	}
	return tr
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.epoch)) }

// pause stops recording (warm-up ops); the decorators stay installed.
// pause, beginOp and endOp are no-ops on a nil tracer, so an untraced
// run makes the same calls.
func (tr *tracer) pause(on bool) {
	if tr != nil {
		tr.paused = on
	}
}

func (tr *tracer) begin(rank int, kind spanKind) {
	if tr.paused {
		return
	}
	rt := &tr.ranks[rank]
	parent := int32(-1)
	if n := len(rt.stack); n > 0 {
		parent = rt.stack[n-1]
	}
	rt.stack = append(rt.stack, int32(len(rt.spans)))
	rt.spans = append(rt.spans, span{kind: kind, op: tr.op, parent: parent, start: tr.now()})
}

func (tr *tracer) end(rank int) { tr.endAt(rank, tr.now()) }

func (tr *tracer) endAt(rank int, at int64) {
	if tr.paused {
		return
	}
	rt := &tr.ranks[rank]
	n := len(rt.stack)
	if n == 0 {
		return
	}
	rt.spans[rt.stack[n-1]].end = at
	rt.stack = rt.stack[:n-1]
}

// beginOp and endOp bracket one op on the caller's goroutine. endOp
// also closes spans the ranks left open — the training step, whose end
// no decorator sees — at the op's end.
func (tr *tracer) beginOp(i int) {
	if tr == nil {
		return
	}
	tr.op = int32(i)
	tr.ops = append(tr.ops, span{kind: spanOp, op: tr.op, parent: -1, start: tr.now()})
}

func (tr *tracer) endOp() {
	if tr == nil {
		return
	}
	at := tr.now()
	tr.ops[len(tr.ops)-1].end = at
	for r := range tr.ranks {
		for len(tr.ranks[r].stack) > 0 {
			tr.endAt(r, at)
		}
	}
}

// tracedWorkload spans ComputeBatch and opens the step span at the
// trainer's first call of the iteration (ZeroGrads).
type tracedWorkload struct {
	train.Workload
	tr   *tracer
	rank int
}

func (tr *tracer) wrapWorkload(w train.Workload, rank int) train.Workload {
	return &tracedWorkload{Workload: w, tr: tr, rank: rank}
}

func (w *tracedWorkload) ZeroGrads() {
	w.tr.begin(w.rank, spanStep)
	w.Workload.ZeroGrads()
}

func (w *tracedWorkload) ComputeBatch(r *rand.Rand, batch int) (float64, int, int) {
	w.tr.begin(w.rank, spanCompute)
	loss, correct, total := w.Workload.ComputeBatch(r, batch)
	w.tr.end(w.rank)
	return loss, correct, total
}

// tracedAlgorithm spans Reduce and hands the wrapped algorithm a traced
// endpoint. It implements only allreduce.Algorithm: an Overlapped
// algorithm behind it would lose its bucket pipeline, so it is used for
// monolithic Reduce calls only.
type tracedAlgorithm struct {
	inner allreduce.Algorithm
	tr    *tracer
	rank  int
	ep    tracedEndpoint
}

func (tr *tracer) wrapAlgorithm(a allreduce.Algorithm, rank int) allreduce.Algorithm {
	return &tracedAlgorithm{inner: a, tr: tr, rank: rank, ep: tracedEndpoint{tr: tr, rank: rank}}
}

func (a *tracedAlgorithm) Name() string           { return a.inner.Name() }
func (a *tracedAlgorithm) OverlapsBackward() bool { return a.inner.OverlapsBackward() }

func (a *tracedAlgorithm) Reduce(cm cluster.Endpoint, acc []float64, t int) allreduce.Result {
	a.ep.Endpoint = cm
	a.tr.begin(a.rank, spanReduce)
	res := a.inner.Reduce(&a.ep, acc, t)
	a.tr.end(a.rank)
	if !a.tr.paused {
		rt := &a.tr.ranks[a.rank]
		rt.localK += int64(res.LocalK)
		rt.globalK += int64(res.GlobalK)
		rt.reduces++
	}
	return res
}

// tracedEndpoint records the time a rank waits inside Recv*,
// RecvChunkEach and Barrier as spans, and counts sends, words sent and
// pool gets. Everything else passes through.
type tracedEndpoint struct {
	cluster.Endpoint
	tr   *tracer
	rank int
}

func (e *tracedEndpoint) sent(words int) {
	if !e.tr.paused {
		rt := &e.tr.ranks[e.rank]
		rt.sends++
		rt.words += int64(words)
	}
}

func (e *tracedEndpoint) got() {
	if !e.tr.paused {
		e.tr.ranks[e.rank].poolGets++
	}
}

func (e *tracedEndpoint) Send(dst, tag int, data any, words int) {
	e.sent(words)
	e.Endpoint.Send(dst, tag, data, words)
}

func (e *tracedEndpoint) SendFloats(dst, tag int, x []float64, words int) {
	e.sent(words)
	e.Endpoint.SendFloats(dst, tag, x, words)
}

func (e *tracedEndpoint) SendFloat32s(dst, tag int, x []float32, words int) {
	e.sent(words)
	e.Endpoint.SendFloat32s(dst, tag, x, words)
}

func (e *tracedEndpoint) SendChunk(dst, tag int, ch cluster.Chunk, words int) {
	e.sent(words)
	e.Endpoint.SendChunk(dst, tag, ch, words)
}

func (e *tracedEndpoint) SendChunks(dst, tag int, chs []cluster.Chunk, words int) {
	e.sent(words)
	e.Endpoint.SendChunks(dst, tag, chs, words)
}

func (e *tracedEndpoint) Recv(src, tag int) any {
	e.tr.begin(e.rank, spanRecv)
	defer e.tr.end(e.rank)
	return e.Endpoint.Recv(src, tag)
}

func (e *tracedEndpoint) RecvFloat64(src, tag int) []float64 {
	e.tr.begin(e.rank, spanRecv)
	defer e.tr.end(e.rank)
	return e.Endpoint.RecvFloat64(src, tag)
}

func (e *tracedEndpoint) RecvFloat32(src, tag int) []float32 {
	e.tr.begin(e.rank, spanRecv)
	defer e.tr.end(e.rank)
	return e.Endpoint.RecvFloat32(src, tag)
}

func (e *tracedEndpoint) RecvChunk(src, tag int) cluster.Chunk {
	e.tr.begin(e.rank, spanRecv)
	defer e.tr.end(e.rank)
	return e.Endpoint.RecvChunk(src, tag)
}

func (e *tracedEndpoint) RecvChunks(src, tag int) []cluster.Chunk {
	e.tr.begin(e.rank, spanRecv)
	defer e.tr.end(e.rank)
	return e.Endpoint.RecvChunks(src, tag)
}

// RecvChunkEach interleaves waiting with the caller's callback, which
// does the algorithm's merge work. The time spent inside the callback
// is taken off the span's end, so the span is wait only and the merge
// work stays in the reduce span's self time.
func (e *tracedEndpoint) RecvChunkEach(keys []cluster.RecvKey, fn func(i int, ch cluster.Chunk)) {
	e.tr.begin(e.rank, spanRecv)
	var inFn int64
	e.Endpoint.RecvChunkEach(keys, func(i int, ch cluster.Chunk) {
		t0 := e.tr.now()
		fn(i, ch)
		inFn += e.tr.now() - t0
	})
	e.tr.endAt(e.rank, e.tr.now()-inFn)
}

func (e *tracedEndpoint) Barrier() {
	e.tr.begin(e.rank, spanBarrier)
	defer e.tr.end(e.rank)
	e.Endpoint.Barrier()
}

func (e *tracedEndpoint) GetFloats(n int) []float64 {
	e.got()
	return e.Endpoint.GetFloats(n)
}

func (e *tracedEndpoint) GetFloat32s(n int) []float32 {
	e.got()
	return e.Endpoint.GetFloat32s(n)
}

func (e *tracedEndpoint) GetInt32s(n int) []int32 {
	e.got()
	return e.Endpoint.GetInt32s(n)
}

func (e *tracedEndpoint) GetChunks(n int) []cluster.Chunk {
	e.got()
	return e.Endpoint.GetChunks(n)
}

// selfTimes returns each span's duration minus the part its children
// cover, in the buffer's order. Children of one rank never overlap.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// spanSummary folds the span buffers into the per-layer span metrics.
// Durations are means over (op, rank) in milliseconds unless the name
// says otherwise.
func (tr *tracer) spanSummary(ms *metricSet, ops int, opMs []float64) {
	p := len(tr.ranks)
	perOpRank := float64(ops * p)
	var total [len(spanNames)]int64
	var reduceSelf int64
	// Root span duration per (op, rank), for skew and session overhead.
	root := make([][]int64, ops)
	for i := range root {
		root[i] = make([]int64, p)
	}
	var sends, words, gets, localK, globalK, reduces int64
	for r := range tr.ranks {
		rt := &tr.ranks[r]
		self := selfTimes(rt.spans)
		for i, s := range rt.spans {
			total[s.kind] += s.end - s.start
			if s.kind == spanReduce {
				reduceSelf += self[i]
			}
			if s.parent < 0 && int(s.op) < ops {
				root[s.op][r] += s.end - s.start
			}
		}
		sends += rt.sends
		words += rt.words
		gets += rt.poolGets
		localK += rt.localK
		globalK += rt.globalK
		reduces += rt.reduces
	}
	msPer := func(ns int64) float64 { return float64(ns) / 1e6 / perOpRank }

	var rootSum, skewSum, overheadSum float64
	for i, ranks := range root {
		lo, hi := ranks[0], ranks[0]
		for _, d := range ranks {
			rootSum += float64(d)
			lo, hi = min(lo, d), max(hi, d)
		}
		skewSum += float64(hi - lo)
		if i < len(opMs) {
			overheadSum += opMs[i] - float64(hi)/1e6
		}
	}
	ms.set("op.rank_span_ms", rootSum/1e6/perOpRank)
	ms.set("op.rank_skew_ms", skewSum/1e6/float64(ops))
	ms.set("allreduce.reduce_ms", msPer(total[spanReduce]))
	ms.set("allreduce.reduce_self_ms", msPer(reduceSelf))
	ms.set("cluster.recv_wait_ms", msPer(total[spanRecv]))
	ms.set("cluster.barrier_wait_ms", msPer(total[spanBarrier]))
	ms.set("cluster.sends_per_op", float64(sends)/float64(ops))
	ms.set("cluster.words_sent_per_op", float64(words)/float64(ops))
	ms.set("cluster.pool_gets_per_op", float64(gets)/float64(ops))
	if reduces > 0 {
		ms.set("core.local_k", float64(localK)/float64(reduces))
		ms.set("core.global_k", float64(globalK)/float64(reduces))
	}
	if total[spanStep] > 0 {
		ms.set("train.step_ms", msPer(total[spanStep]))
		ms.set("train.step_self_ms", msPer(total[spanStep]-total[spanCompute]-total[spanReduce]))
		ms.set("train.session_overhead_ms", overheadSum/float64(ops))
		ms.set("nn.compute_batch_ms", msPer(total[spanCompute]))
		// Share of the ranks' busy step time: endpoint waits are a rank
		// idling for slower ranks' compute, not work of any layer.
		busy := total[spanStep] - total[spanRecv] - total[spanBarrier]
		ms.set("nn.compute_share", float64(total[spanCompute])/float64(busy))
	}
}

// writeChrome writes the spans of the first maxOps ops as Chrome
// trace-event JSON (chrome://tracing, Perfetto): one track per rank and
// one for the caller's op spans, the run header under otherData.
func (tr *tracer) writeChrome(path string, hdr header, maxOps int) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"` // microseconds
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	var events []event
	add := func(tid int, spans []span) {
		for _, s := range spans {
			if int(s.op) >= maxOps {
				continue
			}
			events = append(events, event{
				Name: spanNames[s.kind], Ph: "X",
				Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
				Tid: tid, Args: map[string]int{"op": int(s.op)},
			})
		}
	}
	add(0, tr.ops)
	for r := range tr.ranks {
		add(r+1, tr.ranks[r].spans) // tid 0 is the caller, tid r+1 is rank r
	}
	doc := struct {
		TraceEvents []event `json:"traceEvents"`
		OtherData   header  `json:"otherData"`
	}{events, hdr}
	b, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("creating trace directory: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
