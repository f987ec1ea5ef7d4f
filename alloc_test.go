package repro

// Allocation-budget regression guards for the steady state of the
// collective stack and the training loop, in two currencies.
//
// Counts: after the warm-up iterations (threshold evaluation, pool
// filling), a full collective Reduce across all P=32 ranks must stay
// within 4 allocations, for every sparse scheme and Dense on both
// wires; each measures 1, also under -race. A reintroduced per-rank
// allocation costs 32 per Reduce and trips the guard, and so does a
// per-message pool miss once it recurs on a few ranks.
//
// Bytes: a low count does not make the steady state free of garbage —
// one fresh k-sized payload per call is a single allocation. Under Go's
// GC pacing that garbage let the heap grow to twice its live size
// between collections, which is most of the benchmark's peak RSS
// (BENCHMARK.json's peak_rss_mb on reduce-oktopk and train-vgg). So
// TestSteadyStateBytes also bounds the bytes allocated per cluster-wide
// Reduce and per training iteration.

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/allreduce"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/netmodel"
	"repro/internal/train"
)

// reduceStep returns a function running one cluster-wide Reduce of the
// named algorithm per call, with iteration numbers counting from 1.
func reduceStep(t *testing.T, name string, wire cluster.Wire, cfg allreduce.Config, p, n, k int) func() {
	t.Helper()
	grads := experiments.SyntheticGradients(77, p, n, k, 0.3)
	algos := make([]allreduce.Algorithm, p)
	for i := range algos {
		algos[i] = train.NewAlgorithm(name, cfg)
	}
	c := cluster.NewWire(p, netmodel.PizDaint(), wire)
	it := 0
	return func() {
		it++
		if err := c.Run(func(cm *cluster.Comm) error {
			algos[cm.Rank()].Reduce(cm, grads[cm.Rank()], it)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// steadyStateAllocs measures allocations per cluster-wide Reduce after
// warm-up. Thresholds and boundaries use a huge re-evaluation period so
// the measurement never crosses an amortized maintenance iteration.
func steadyStateAllocs(t *testing.T, name string, wire cluster.Wire, p, n, k int) float64 {
	t.Helper()
	step := reduceStep(t, name, wire, allreduce.Config{K: k, TauPrime: 1 << 20, Tau: 1 << 20}, p, n, k)
	// Warm-up: first iteration evaluates thresholds/boundaries, the next
	// few fill the rank pools to their steady-state sizes.
	for i := 0; i < 3; i++ {
		step()
	}
	return testing.AllocsPerRun(5, step)
}

// TestSteadyStateAllocBudget enforces the per-iteration allocation
// ceilings at the Table 1 benchmark shape (n=100k, k=1k, P=32). Both
// wire modes are held to the same budgets: the f32 wire swaps buffer
// pools, it must not reintroduce per-message allocation.
func TestSteadyStateAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is not meaningful under -short race mixes")
	}
	for _, wire := range testWireModes(t) {
		for _, tc := range []struct {
			algo   string
			budget float64
		}{
			{"OkTopk", 4},
			{"TopkDSA", 4},
			{"gTopk", 4},
			{"TopkA", 4},
			{"Gaussiank", 4},
			{"Dense", 4},
		} {
			wire, tc := wire, tc
			t.Run(fmt.Sprintf("%s/P=32/wire=%s", tc.algo, wire), func(t *testing.T) {
				got := steadyStateAllocs(t, tc.algo, wire, 32, 100000, 1000)
				t.Logf("%s steady-state allocs per cluster-wide reduce (%s wire): %.0f",
					tc.algo, wire, got)
				if got > tc.budget {
					t.Fatalf("%s allocates %.0f per steady-state reduce on the %s wire, budget %.0f",
						tc.algo, got, wire, tc.budget)
				}
			})
		}
	}
}

// bytesPerCall returns the heap bytes allocated per call of step over
// calls warm+1 .. warm+measure, from the runtime.MemStats.TotalAlloc
// delta; the first warm calls run unmeasured.
func bytesPerCall(step func(), warm, measure int) float64 {
	for i := 0; i < warm; i++ {
		step()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < measure; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(measure)
}

// TestSteadyStateBytes bounds the bytes the steady state hands the GC.
//
// Per cluster-wide Reduce, every algorithm on both wires at P=8,
// n=200k, k=2k, over iterations 33–64 with τ=τ′=16, so two threshold
// and boundary re-evaluations fall inside the window: at most 1 KiB
// (measured 0.06–0.55, the high end noise in the process's first
// measurement). Hierarchical's budget was 3 KiB (measured 1.41, the
// same every run) until HierDense kept its node and leader groups
// across calls instead of building them per call (now 0.06). Until
// Cluster.Run started its rank goroutines from entries bound
// once, the budget was 4 KiB for all of them (measured 0.9–2.4); before
// fan-out payloads were owned by their origin, the allgather-based
// baselines allocated 129–257 KiB and Ok-Topk 35–39.
//
// Per Session.RunIteration of Ok-Topk at P=8, batch 4, over iterations
// 65–128, which include the τ=τ′=32 maintenance steps: VGG at most
// 8 KiB, LSTM 6 and BERT 20 (measured 3.6, 3.0 and 9.8), and after them
// at most 4 objects per iteration (testing.AllocsPerRun reads 0 for
// each). The budgets were 64, 96 and 128 KiB (measured 39.6, 61.4 and
// 53.3, and 397 objects for VGG) before the layers' loop bodies were
// bound once (tensor.Body), Ok-Topk's split-phase pieces were drawn at
// one capacity per exchange, and the stats gather and Cluster.Run
// stopped allocating; 843, 427 and 1 422 KiB when every batch, loss
// gradient and fan-out payload was fresh. What remains is buffers
// whose size still drifts upward this early in training outgrowing
// their arrays: fan-out slots and threshold candidates.
func TestSteadyStateBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is not meaningful under -short race mixes")
	}
	const kib = 1024
	for _, wire := range testWireModes(t) {
		for _, scheme := range train.Schemes {
			wire, name := wire, scheme.Name
			t.Run(fmt.Sprintf("Reduce/%s/P=8/wire=%s", name, wire), func(t *testing.T) {
				const p, n, k = 8, 200_000, 2_000
				const budget = 1 * kib
				step := reduceStep(t, name, wire, allreduce.Config{K: k, Tau: 16, TauPrime: 16}, p, n, k)
				got := bytesPerCall(step, 32, 32)
				t.Logf("%s allocates %.2f KiB per steady-state cluster-wide reduce (%s wire)", name, got/kib, wire)
				if got > float64(budget) {
					t.Fatalf("%s allocates %.2f KiB per steady-state reduce on the %s wire, budget %d KiB",
						name, got/kib, wire, budget/kib)
				}
			})
		}
	}
	for _, tc := range []struct {
		workload string
		budget   float64
		objects  float64
	}{
		{"VGG", 8 * kib, 4},
		{"LSTM", 6 * kib, 4},
		{"BERT", 20 * kib, 4},
	} {
		tc := tc
		t.Run(fmt.Sprintf("RunIteration/%s/P=8", tc.workload), func(t *testing.T) {
			s := train.NewSession(train.Config{
				Workload: tc.workload, Algorithm: "OkTopk", P: 8, Batch: 4, Seed: 1,
				Reduce: allreduce.Config{Density: 0.02, Tau: 32, TauPrime: 32},
			})
			step := func() { s.RunIteration() }
			got := bytesPerCall(step, 64, 64)
			t.Logf("%s allocates %.1f KiB per steady-state iteration", tc.workload, got/kib)
			if got > tc.budget {
				t.Fatalf("%s allocates %.1f KiB per steady-state iteration, budget %.0f KiB",
					tc.workload, got/kib, tc.budget/kib)
			}
			objs := testing.AllocsPerRun(16, step)
			t.Logf("%s allocates %.0f objects per steady-state iteration", tc.workload, objs)
			if objs > tc.objects {
				t.Fatalf("%s allocates %.0f objects per steady-state iteration, budget %.0f",
					tc.workload, objs, tc.objects)
			}
		})
	}
}
