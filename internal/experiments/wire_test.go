package experiments

import (
	"bytes"
	"testing"

	"repro/internal/cluster"
	"repro/internal/tensor"
)

// TestWireF32Fig5Deterministic: the fig5 runner on the f32 wire renders
// byte-identically (report and CSV) across scheduler parallelism and
// tensor-kernel worker counts — the same guarantee the f64 wire has
// held since PR 2. Rounding at the send edge is pure function of the
// data, so no scheduling order may leak into the result.
func TestWireF32Fig5Deterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("three full fig5 runs")
	}
	SetWire(cluster.WireF32)
	defer SetWire(cluster.WireF64)
	r, ok := FindRunner("fig5")
	if !ok {
		t.Fatal("fig5 not registered")
	}
	run := func(parallel, workers int) (string, string) {
		tensor.SetWorkers(workers)
		defer tensor.SetWorkers(0)
		rs := RunSpecs(r.Specs(QuickScale()), parallel)
		var render, csv bytes.Buffer
		r.Render(&render, rs)
		if err := WriteCSV(&csv, rs); err != nil {
			t.Fatal(err)
		}
		return render.String(), csv.String()
	}
	baseRender, baseCSV := run(1, 0)
	for _, pc := range [][2]int{{2, 4}, {4, 7}} {
		render, csv := run(pc[0], pc[1])
		if render != baseRender {
			t.Errorf("fig5 f32 report differs at parallel=%d workers=%d:\nbase:\n%s\ngot:\n%s",
				pc[0], pc[1], baseRender, render)
		}
		if csv != baseCSV {
			t.Errorf("fig5 f32 CSV differs at parallel=%d workers=%d", pc[0], pc[1])
		}
	}
}

// TestWireModeChangesVolume: the experiment-level wire switch must
// actually reach the measurement clusters — Table 1 volumes on the f32
// wire are half the f64 volumes.
func TestWireModeChangesVolume(t *testing.T) {
	defer SetWire(cluster.WireF64)
	vols := map[cluster.Wire]float64{}
	for _, w := range []cluster.Wire{cluster.WireF64, cluster.WireF32} {
		SetWire(w)
		vols[w], _ = MeasureVolumeStats("OkTopk", 8, 20000, 200)
	}
	ratio := vols[cluster.WireF32] / vols[cluster.WireF64]
	if ratio > 0.55 || ratio < 0.45 {
		t.Fatalf("f32/f64 volume ratio %.3f, want ≈0.5 (%v)", ratio, vols)
	}
}
