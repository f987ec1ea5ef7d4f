package main

import (
	"fmt"
	"io"
	"path/filepath"
)

// traceOps is how many ops the Chrome trace file holds.
const traceOps = 50

// spanMetrics repeats the workload twice at the given op count, once
// plain and once with the decorators of trace.go installed, and returns
// the span-derived and process rows. End-to-end numbers never come from
// here; the plain pass exists so that trace.overhead_pct compares two
// runs of the same length in the same process.
func spanMetrics(sh shape, seed int64, ops int) (*metricSet, *tracer, runOutput, runOutput) {
	plain := execute(runConfig{sh: sh, seed: seed, ops: ops})
	// Ok-Topk at P=8 makes ≈60 endpoint waits per rank and op.
	tr := newTracer(sh.p, plain.ops, 96)
	traced := execute(runConfig{sh: sh, seed: seed, ops: ops, tr: tr})

	ms := newMetricSet(perLayerDefs)
	done := float64(max(len(plain.opMs), 1))
	ms.set("op.wall_ms_p10", quantile(plain.opMs, 0.1))
	ms.set("op.wall_ms_p90", quantile(plain.opMs, 0.9))
	ms.set("op.setup_first_s", median(plain.setupS)) // the process's first, cold set-up
	ms.set("proc.cpu_ms_per_op", plain.cpu.Seconds()*1e3/done)
	ms.set("proc.allocs_per_op", float64(plain.mallocs)/done)
	ms.set("proc.alloc_kb_per_op", plain.allocKB/done)
	ms.set("proc.gc_pause_ms_total", plain.gcPauseMs)
	if base := median(plain.opMs); base > 0 {
		ms.set("trace.overhead_pct", 100*(median(traced.opMs)-base)/base)
	}
	if n := len(traced.opMs); n > 0 {
		tr.spanSummary(ms, n, traced.opMs)
	}
	// Useful-to-requested ratio: values that reached the update over the
	// k asked for (dense reductions ask for all n).
	if gk, ok := ms.m["core.global_k"]; ok {
		k := traced.gradSize
		if sh.cfg.K != 0 || sh.cfg.Density != 0 {
			k = sh.cfg.KFor(traced.gradSize)
		}
		ms.set("core.global_k_over_k", gk.Value/float64(k))
	}
	if sh.train {
		ms.set("train.final_loss", traced.finalLoss)
		ms.set("train.replica_divergence", traced.divergence)
	}
	return ms, tr, plain, traced
}

// tracedRun is `-trace 1`: the span rows of this workload, the probe
// rows of the layers it stresses, and a Chrome trace of the first ops.
func tracedRun(sh shape, hdr header, seed int64, ops int, stdout, stderr io.Writer) record {
	ms, tr, plain, traced := spanMetrics(sh, seed, ops)
	hdr.stamp(traced)
	printHeader(stdout, hdr)

	runs := []runOutput{plain, traced}
	if sh.tcp {
		// The twin without the transport, at the same op count in this
		// process: what is left of the op is the transport's share.
		twin := sh
		twin.tcp = false
		inproc := execute(runConfig{sh: twin, seed: seed, ops: ops})
		runs = append(runs, inproc)
		if base := median(plain.opMs); base > 0 && inproc.failed == 0 {
			ms.set("cluster.tcp.transport_share", 1-median(inproc.opMs)/base)
		}
	}
	runProbes(ms, sh.name, seed, stderr)
	printMetrics(stdout, perLayerDefs, ms.m)
	fmt.Fprintf(stdout, "  %d of %d per-layer rows measured; the others belong to layers this workload does not run or to another workload's probes\n",
		len(ms.m), len(perLayerDefs))

	res := result{Metrics: ms.m}
	for _, o := range runs {
		res.Attempted += o.attempted
		res.Failed += o.failed
		for _, e := range o.errs {
			fmt.Fprintf(stdout, "  FAILED: %v\n", e)
		}
	}
	path := filepath.Join(outDir, sh.name+".trace.json")
	if err := tr.writeChrome(path, hdr, traceOps); err != nil {
		// A traced run that leaves no trace did not do its job.
		fmt.Fprintf(stderr, "bench: %v\n", err)
		res.Failed++
	} else {
		fmt.Fprintf(stdout, "  trace of the first %d ops: %s\n", traceOps, path)
	}
	res.Correct = res.Failed == 0
	return record{Header: hdr, Workload: sh.name, Trace: true, Result: res}
}
