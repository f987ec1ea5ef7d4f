package experiments

import (
	"bytes"
	"testing"

	"repro/internal/cluster"
	"repro/internal/tensor"
)

// TestFig8DeterministicAcrossParallelWorkersWire: the fig8 runner — now
// driven by the simulated overlap engine — renders byte-identically
// (report and CSV) across scheduler parallelism and tensor-kernel
// worker counts, on both wire formats. The overlap window's two-track
// clock is a pure function of the schedule and the messages, so no
// scheduling order may leak into the result.
func TestFig8DeterministicAcrossParallelWorkersWire(t *testing.T) {
	if testing.Short() {
		t.Skip("four full fig8 runs")
	}
	r, ok := FindRunner("fig8")
	if !ok {
		t.Fatal("fig8 not registered")
	}
	// A trimmed scale keeps the four full runner executions inside the
	// package's test budget; determinism at P=8 × 7 algorithms already
	// exercises every overlap-engine code path.
	sc := QuickScale()
	sc.WeakPs = map[string][]int{"VGG": {8}}
	sc.WeakIters = 6
	for _, wire := range []cluster.Wire{cluster.WireF64, cluster.WireF32} {
		t.Run(wire.String(), func(t *testing.T) {
			sc.Wire = wire
			run := func(parallel, workers int) (string, string) {
				tensor.SetWorkers(workers)
				defer tensor.SetWorkers(0)
				rs := RunSpecs(r.Specs(sc), parallel)
				var render, csv bytes.Buffer
				r.Render(&render, rs)
				if err := WriteCSV(&csv, rs); err != nil {
					t.Fatal(err)
				}
				return render.String(), csv.String()
			}
			baseRender, baseCSV := run(1, 0)
			render, csv := run(4, 7)
			if render != baseRender {
				t.Errorf("fig8 %s report differs at parallel=4 workers=7:\nbase:\n%s\ngot:\n%s",
					wire, baseRender, render)
			}
			if csv != baseCSV {
				t.Errorf("fig8 %s CSV differs at parallel=4 workers=7", wire)
			}
		})
	}
}

// TestOverlapAblationShape: the bucket sweep must show the
// imperfect-pipelining signature on every workload — the 1-bucket
// degenerate case hides nothing, the default depth hides a meaningful
// fraction, and hiding never reaches 100% (the tail bucket, produced
// by the earliest layers, is always exposed).
func TestOverlapAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("trains several sessions per workload")
	}
	for _, wl := range []string{"VGG", "BERT"} {
		t.Run(wl, func(t *testing.T) {
			batch := map[string]int{"VGG": 16, "BERT": 4}[wl]
			pts := OverlapAblation(Scale{}, wl, 4, batch, 5, []int{1, 8})
			if len(pts) != 2 {
				t.Fatalf("%d points", len(pts))
			}
			one, eight := pts[0], pts[1]
			if one.Buckets != 1 || eight.Buckets != 8 {
				t.Fatalf("bucket order %+v", pts)
			}
			if one.HiddenFrac > 1e-9 || one.HiddenFrac < -1e-9 {
				t.Fatalf("1 bucket hides %.1f%%, want 0", one.HiddenFrac*100)
			}
			if eight.HiddenFrac < 0.10 {
				t.Fatalf("8 buckets hide only %.1f%%", eight.HiddenFrac*100)
			}
			if eight.HiddenFrac > 0.99 {
				t.Fatalf("8 buckets hide %.1f%% — the tail bucket should stay exposed", eight.HiddenFrac*100)
			}
			if eight.Total >= one.Total {
				t.Fatalf("pipelining did not help: %v vs %v", eight.Total, one.Total)
			}
		})
	}
}
