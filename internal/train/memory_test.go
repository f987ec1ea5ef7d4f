package train

import (
	"runtime"
	"testing"
)

// TestPerRankMemory bounds the live heap one more in-process rank costs:
// its parameters, gradients, residual and reduction state, not a model's
// layer scratch. Sessions at P=4 and P=12 train two iterations at
// GOMAXPROCS 2, so both are served by two compute engines and the
// difference of their live heaps is eight ranks' own state. Measured
// with go1.24 on amd64, in MB per rank: VGG 5.26, LSTM 3.04 and BERT
// 7.79, against 16.31, 3.69 and 13.92 while every rank held its own
// model replica.
func TestPerRankMemory(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const mb = 1 << 20
	for _, tc := range []struct {
		workload string
		budget   float64 // bytes per rank
	}{
		{"VGG", 8 * mb},
		{"LSTM", 4 * mb},
		{"BERT", 10 * mb},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			lo, hi := liveHeap(tc.workload, 4), liveHeap(tc.workload, 12)
			per := (float64(hi) - float64(lo)) / 8
			t.Logf("%s: live heap %.1f MB at P=4, %.1f MB at P=12: %.2f MB per rank",
				tc.workload, float64(lo)/mb, float64(hi)/mb, per/mb)
			if per > tc.budget {
				t.Fatalf("%s costs %.2f MB per rank, budget %.0f MB", tc.workload, per/mb, tc.budget/mb)
			}
		})
	}
}

// liveHeap returns the live heap while a P-rank session of the workload
// that has trained two iterations is still reachable.
func liveHeap(workload string, p int) uint64 {
	s := NewSession(quickCfg(workload, "OkTopk", p))
	s.RunIterations(2, nil)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(s)
	return ms.HeapAlloc
}
