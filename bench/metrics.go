package main

import (
	"math"
	"sort"
	"syscall"
	"time"

	"repro/internal/train"
)

// metricDef is one metric as BENCHMARK.json declares it. main_test.go
// holds the two lists and that file equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndDefs are the gated metrics, the same six on every workload.
// REPEATABILITY.md says where each bound comes from.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_ms_per_op_p50", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"sim_ms_per_op", "ms", "lower", 0.005},
	{"words_per_rank_per_op", "words", "lower", 0.005},
}

// perLayerDefs are the reported, ungated rows of a traced run. A traced
// run measures the rows of the layers its workload runs and stresses;
// the others are not measured on it.
var perLayerDefs = buildPerLayerDefs()

func buildPerLayerDefs() []metricDef {
	d := []metricDef{
		// Op shape and process counters, every workload.
		{Name: "op.wall_ms_p10", Unit: "ms", Better: "lower"},
		{Name: "op.wall_ms_p90", Unit: "ms", Better: "lower"},
		{Name: "op.setup_first_s", Unit: "s", Better: "lower"},
		{Name: "op.rank_span_ms", Unit: "ms", Better: "lower"},
		{Name: "op.rank_skew_ms", Unit: "ms", Better: "lower"},
		{Name: "proc.cpu_ms_per_op", Unit: "ms", Better: "lower"},
		{Name: "proc.allocs_per_op", Unit: "count", Better: "lower"},
		{Name: "proc.alloc_kb_per_op", Unit: "KB", Better: "lower"},
		{Name: "proc.gc_pause_ms_total", Unit: "ms", Better: "lower"},
		{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
		// train / nn spans (train-vgg) and probes.
		{Name: "train.step_ms", Unit: "ms", Better: "lower"},
		{Name: "train.step_self_ms", Unit: "ms", Better: "lower"},
		{Name: "train.session_overhead_ms", Unit: "ms", Better: "lower"},
		{Name: "nn.compute_batch_ms", Unit: "ms", Better: "lower"},
		{Name: "nn.compute_share", Unit: "ratio", Better: "higher"},
		{Name: "train.final_loss", Unit: "loss", Better: "lower"},
		{Name: "train.replica_divergence", Unit: "abs", Better: "lower"},
		{Name: "nn.compute_batch_ms.vgg", Unit: "ms", Better: "lower"},
		{Name: "nn.compute_batch_ms.lstm", Unit: "ms", Better: "lower"},
		{Name: "nn.compute_batch_ms.bert", Unit: "ms", Better: "lower"},
		// tensor probes.
		{Name: "tensor.matmul_gflops", Unit: "GFLOP/s", Better: "higher"},
		{Name: "tensor.gemmtb_gflops", Unit: "GFLOP/s", Better: "higher"},
		{Name: "tensor.scaleadd_gb_s", Unit: "GB/s", Better: "higher"},
		// allreduce / core spans, every workload.
		{Name: "allreduce.reduce_ms", Unit: "ms", Better: "lower"},
		{Name: "allreduce.reduce_self_ms", Unit: "ms", Better: "lower"},
		{Name: "core.local_k", Unit: "count", Better: "lower"},
		{Name: "core.global_k", Unit: "count", Better: "higher"},
		{Name: "core.global_k_over_k", Unit: "ratio", Better: "higher"},
	}
	// The sweep is the only coverage the non-headline algorithms get.
	for _, a := range sweepAlgorithms() {
		d = append(d,
			metricDef{Name: "allreduce." + a + ".reduce_ms", Unit: "ms", Better: "lower"},
			metricDef{Name: "allreduce." + a + ".sim_ms", Unit: "ms", Better: "lower"},
			metricDef{Name: "allreduce." + a + ".words_per_rank", Unit: "words", Better: "lower"},
		)
	}
	return append(d, []metricDef{
		{Name: "topk.threshold_ms", Unit: "ms", Better: "lower"},
		{Name: "topk.select_scan_ms", Unit: "ms", Better: "lower"},
		{Name: "topk.count_above_ms", Unit: "ms", Better: "lower"},
		{Name: "topk.gaussian_ms", Unit: "ms", Better: "lower"},
		{Name: "sparse.merge_runs_us", Unit: "us", Better: "lower"},
		{Name: "sparse.add_us", Unit: "us", Better: "lower"},
		{Name: "sparse.from_dense_threshold_ms", Unit: "ms", Better: "lower"},
		{Name: "collectives.allreduce_ms", Unit: "ms", Better: "lower"},
		{Name: "collectives.allreduce_ring_ms", Unit: "ms", Better: "lower"},
		{Name: "collectives.allgatherv_us", Unit: "us", Better: "lower"},
		{Name: "collectives.hierarchical_ms", Unit: "ms", Better: "lower"},
		// cluster inproc: spans, then probes.
		{Name: "cluster.recv_wait_ms", Unit: "ms", Better: "lower"},
		{Name: "cluster.barrier_wait_ms", Unit: "ms", Better: "lower"},
		{Name: "cluster.sends_per_op", Unit: "count", Better: "lower"},
		{Name: "cluster.words_sent_per_op", Unit: "words", Better: "lower"},
		{Name: "cluster.pool_gets_per_op", Unit: "count", Better: "lower"},
		{Name: "cluster.run_empty_us", Unit: "us", Better: "lower"},
		{Name: "cluster.barrier_us", Unit: "us", Better: "lower"},
		{Name: "cluster.pingpong_us", Unit: "us", Better: "lower"},
		{Name: "cluster.tcp.rendezvous_ms", Unit: "ms", Better: "lower"},
		{Name: "cluster.tcp.close_ms", Unit: "ms", Better: "lower"},
		{Name: "cluster.tcp.small_frames_per_s", Unit: "1/s", Better: "higher"},
		{Name: "cluster.tcp.large_mb_s", Unit: "MB/s", Better: "higher"},
		{Name: "cluster.tcp.barrier_us", Unit: "us", Better: "lower"},
		{Name: "cluster.tcp.oktopk_reduce_ms", Unit: "ms", Better: "lower"},
		{Name: "cluster.tcp.transport_share", Unit: "ratio", Better: "lower"},
		{Name: "netmodel.stamp_pair_ns", Unit: "ns", Better: "lower"},
		{Name: "netmodel.stamp_pair_topo_ns", Unit: "ns", Better: "lower"},
		{Name: "experiments.runspecs_table1_s", Unit: "s", Better: "lower"},
		{Name: "experiments.runspecs_parallel_speedup", Unit: "ratio", Better: "higher"},
		{Name: "checkpoint.save_ms", Unit: "ms", Better: "lower"},
		{Name: "checkpoint.load_ms", Unit: "ms", Better: "lower"},
		{Name: "worker.launch_s", Unit: "s", Better: "lower"},
	}...)
}

// sweepAlgorithms is every registered reduction scheme: the paper's
// seven plus the node-aware dense baseline.
func sweepAlgorithms() []string {
	return append(append([]string(nil), train.AlgorithmNames...), "Hierarchical")
}

// unitOf returns the declared unit of a metric in defs.
func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("bench: metric " + name + " is not declared")
}

// metricSet collects values under their declared units.
type metricSet struct {
	defs []metricDef
	m    map[string]metric
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, m: make(map[string]metric, len(defs))}
}

// set stores v; NaN and ±Inf (a metric of a failed run) become 0 so the
// result line stays valid JSON. Such a run already reports failed ops.
func (s *metricSet) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	s.m[name] = metric{Value: v, Unit: unitOf(s.defs, name)}
}

// withUnmeasured returns m plus every metric of defs that m lacks, at 0:
// the benchmark contract's result line lists every declared name.
// Reports and -compare use only what was measured.
func withUnmeasured(defs []metricDef, m map[string]metric) map[string]metric {
	all := make(map[string]metric, len(defs))
	for _, d := range defs {
		all[d.Name] = metric{Unit: d.Unit}
	}
	for name, v := range m {
		all[name] = v
	}
	return all
}

// quantile returns the q-quantile of xs by linear interpolation; xs is
// not modified. It returns 0 for an empty input.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is how
// the benchmark contract measures spread.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(k*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// blockRate is ops_per_s: the timed ops split into 10 consecutive
// equal blocks, median over blocks of ops/wall, so one stalled block
// cannot move it. starts and ends are per-op timestamps.
func blockRate(starts, ends []time.Duration) float64 {
	const blocks = 10
	per := len(starts) / blocks
	if per == 0 {
		return 0
	}
	rates := make([]float64, blocks)
	for b := range rates {
		wall := ends[(b+1)*per-1] - starts[b*per]
		rates[b] = float64(per) / wall.Seconds()
	}
	return median(rates)
}

// rusage is the process's CPU time and peak resident set so far.
func rusage() (cpu time.Duration, peakRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu, float64(ru.Maxrss) / 1024 // Linux reports KB
}
