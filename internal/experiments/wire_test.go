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
	sc := QuickScale()
	sc.Wire = cluster.WireF32
	r, ok := FindRunner("fig5")
	if !ok {
		t.Fatal("fig5 not registered")
	}
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

// TestWireModeChangesVolume: the experiment-level wire setting must
// actually reach the measurement clusters — Table 1 volumes on the f32
// wire are half the f64 volumes — and two Scales that differ only in
// their wire run side by side in one RunSpecs call without touching
// each other's clusters.
func TestWireModeChangesVolume(t *testing.T) {
	f64 := Scale{Table1Ps: []int{8}, Table1N: 20000, Table1K: 200}
	f32 := f64
	f32.Wire = cluster.WireF32
	rs := RunSpecs(append(table1Specs(f64), table1Specs(f32)...), 2)
	var vols [2]float64
	for i, r := range rs {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		vols[i] = r.Outcome.Payload.(Table1Col).Mean["OkTopk"]
	}
	ratio := vols[1] / vols[0]
	if ratio > 0.55 || ratio < 0.45 {
		t.Fatalf("f32/f64 volume ratio %.3f, want ≈0.5 (f64 %v, f32 %v)", ratio, vols[0], vols[1])
	}
}
