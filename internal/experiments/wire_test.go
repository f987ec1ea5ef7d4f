package experiments

import (
	"testing"

	"repro/internal/cluster"
)

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
