package collectives

import (
	"testing"

	"repro/internal/cluster"
)

// TestHierarchicalAllreduce checks the two-level schedule against the
// flat sum on the P × nodeSize grid, including non-divisor node sizes
// (ragged last node) and degenerate single-node / single-rank-node
// layouts.
func TestHierarchicalAllreduce(t *testing.T) {
	for _, tc := range []struct{ p, nodeSize int }{
		{4, 2}, {4, 4}, {4, 3}, {4, 1}, {4, 5},
		{8, 2}, {8, 4}, {8, 3}, {8, 5}, {6, 6},
		{12, 3}, {16, 2}, {16, 4}, {16, 5}, {16, 6},
	} {
		n := 57
		want := expectedSum(tc.p, n)
		runCluster(t, tc.p, func(cm *cluster.Comm) error {
			x := rankVector(cm.Rank(), n)
			HierarchicalAllreduce(cm, x, tc.nodeSize)
			for i := range x {
				if !almostEqual(x[i], want[i]) {
					t.Errorf("P=%d node=%d rank %d: x[%d]=%v want %v",
						tc.p, tc.nodeSize, cm.Rank(), i, x[i], want[i])
					return nil
				}
			}
			return nil
		})
	}
}

// TestHierarchicalMatchesFlat: on identical inputs the hierarchical
// schedule and the flat Allreduce must agree to within reduction-order
// rounding at every P × nodeSize combination the topo runner sweeps.
func TestHierarchicalMatchesFlat(t *testing.T) {
	for _, p := range []int{4, 8, 16} {
		for _, nodeSize := range []int{2, 4, 3} {
			n := 129
			flat := make([][]float64, p)
			runCluster(t, p, func(cm *cluster.Comm) error {
				x := rankVector(cm.Rank(), n)
				Allreduce(cm, x)
				flat[cm.Rank()] = x
				return nil
			})
			runCluster(t, p, func(cm *cluster.Comm) error {
				x := rankVector(cm.Rank(), n)
				HierarchicalAllreduce(cm, x, nodeSize)
				for i := range x {
					if !almostEqual(x[i], flat[cm.Rank()][i]) {
						t.Errorf("P=%d node=%d rank %d: hier[%d]=%v flat=%v",
							p, nodeSize, cm.Rank(), i, x[i], flat[cm.Rank()][i])
						return nil
					}
				}
				return nil
			})
		}
	}
}

func TestHierarchicalBadNodeSizePanics(t *testing.T) {
	for _, bad := range []int{0, -2} {
		func() {
			c := cluster.New(4, testParams())
			defer func() {
				if recover() == nil {
					t.Fatalf("nodeSize=%d: expected panic", bad)
				}
			}()
			_ = c.Run(func(cm *cluster.Comm) error {
				HierarchicalAllreduce(cm, make([]float64, 4), bad)
				return nil
			})
		}()
	}
}

// TestHierarchicalNoAliasing: each rank's result buffer must be
// private — the broadcast fold must copy pooled hop buffers, never
// retain them. Mutating one rank's output must not disturb another's
// (run under -race in CI, which additionally catches unsynchronized
// sharing of the pooled payloads).
func TestHierarchicalNoAliasing(t *testing.T) {
	p, n := 8, 65
	outs := make([][]float64, p)
	runCluster(t, p, func(cm *cluster.Comm) error {
		x := rankVector(cm.Rank(), n)
		HierarchicalAllreduce(cm, x, 3)
		outs[cm.Rank()] = x
		return nil
	})
	want := expectedSum(p, n)
	for i := range outs[0] {
		outs[0][i] = -1e9
	}
	for r := 1; r < p; r++ {
		for i, v := range outs[r] {
			if !almostEqual(v, want[i]) {
				t.Fatalf("rank %d output disturbed by rank 0 mutation at %d: %v", r, i, v)
			}
		}
	}
}

// TestHierarchicalAllocBudget: the pooled-payload contract holds for
// the two-level schedule too. Group construction allocates (rank
// slices, group headers) but payload hops must stay pooled, so the
// per-iteration ceiling is a small constant — far below one fresh
// buffer per hop (which would be ≥ P·n words).
func TestHierarchicalAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is noisy under -short race mixes")
	}
	p, n := 16, 4096
	c := cluster.New(p, testParams())
	xs := make([][]float64, p)
	for r := range xs {
		xs[r] = rankVector(r, n)
	}
	step := func() {
		if err := c.Run(func(cm *cluster.Comm) error {
			copy(xs[cm.Rank()], rankVector(cm.Rank(), n))
			HierarchicalAllreduce(cm, xs[cm.Rank()], 4)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		step() // warm the rank pools
	}
	got := testing.AllocsPerRun(5, step)
	t.Logf("hierarchical allreduce allocs per cluster-wide call (P=%d): %.0f", p, got)
	// Measured steady state ≈ P·(goroutine spawn + 2 groups + 2 rank
	// slices + rankVector scratch) ≈ 160; budget 2× above that and far
	// below the ≥ P·n-word cost of unpooled payload hops.
	if got > 400 {
		t.Fatalf("hierarchical allreduce allocates %.0f per call, budget 400", got)
	}
}

// TestHierarchicalReducesInterNodeTraffic: with node-local groups the
// total traffic is below the flat allreduce's when nodeSize > 1 (the
// leaders exchange once per node; in a real machine the intra-node hops
// would additionally be cheaper).
func TestHierarchicalTrafficShape(t *testing.T) {
	n := 4096
	traffic := func(nodeSize int) float64 {
		c := cluster.New(8, testParams())
		if err := c.Run(func(cm *cluster.Comm) error {
			x := rankVector(cm.Rank(), n)
			HierarchicalAllreduce(cm, x, nodeSize)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, s := range c.Stats() {
			sum += float64(s.SentWords)
		}
		return sum
	}
	flat := traffic(1)
	two := traffic(4)
	if two >= 1.3*flat {
		t.Errorf("hierarchical traffic %v should not blow up vs flat %v", two, flat)
	}
}
