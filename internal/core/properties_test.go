package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/allreduce"
	"repro/internal/cluster"
	"repro/internal/collectives"
	"repro/internal/netmodel"
	"repro/internal/sparse"
	"repro/internal/tensor"
)

// TestRotationDoesNotChangeResult: destination rotation is a pure
// scheduling optimization — the reduced values must be identical with
// and without it.
func TestRotationDoesNotChangeResult(t *testing.T) {
	r := tensor.RNG(41)
	p, n := 8, 4096
	grads := make([][]float64, p)
	for i := range grads {
		grads[i] = heavyTailGradient(r, n, 40, 1)
	}
	run := func(rotation bool) []allreduce.Result {
		cfg := allreduce.Config{Density: 0.02, TauPrime: 4, Tau: 4,
			Rotation: rotation, Repartition: true, DataBalance: true}
		algos := make([]*OkTopk, p)
		for i := range algos {
			algos[i] = New(cfg)
		}
		c := cluster.New(p, netmodel.PizDaint())
		results := make([]allreduce.Result, p)
		for it := 1; it <= 2; it++ {
			if err := c.Run(func(cm *cluster.Comm) error {
				results[cm.Rank()] = algos[cm.Rank()].Reduce(cm, grads[cm.Rank()], it)
				return nil
			}); err != nil {
				t.Fatalf("run: %v", err)
			}
		}
		return results
	}
	a, b := run(true), run(false)
	for i := range a[0].Update {
		if a[0].Update[i] != b[0].Update[i] {
			t.Fatalf("rotation changed the result at %d: %v vs %v",
				i, a[0].Update[i], b[0].Update[i])
		}
	}
}

// TestBucketSizeDoesNotChangeResult: bucketing only affects overlap, not
// values.
func TestBucketSizeDoesNotChangeResult(t *testing.T) {
	r := tensor.RNG(42)
	p, n := 8, 2048
	grads := make([][]float64, p)
	for i := range grads {
		grads[i] = heavyTailGradient(r, n, 30, 1)
	}
	var base []float64
	for _, bucket := range []int{1, 2, 4, 7, 16} {
		cfg := allreduce.Config{Density: 0.03, TauPrime: 4, Tau: 4, BucketSize: bucket}
		algos := make([]*OkTopk, p)
		for i := range algos {
			algos[i] = NewDefault(cfg)
		}
		c := cluster.New(p, netmodel.PizDaint())
		results := make([]allreduce.Result, p)
		if err := c.Run(func(cm *cluster.Comm) error {
			results[cm.Rank()] = algos[cm.Rank()].Reduce(cm, grads[cm.Rank()], 1)
			return nil
		}); err != nil {
			t.Fatalf("run: %v", err)
		}
		if base == nil {
			base = results[0].Update
			continue
		}
		for i := range base {
			if results[0].Update[i] != base[i] {
				t.Fatalf("bucket=%d changed the result at %d", bucket, i)
			}
		}
	}
}

// TestRotationAvoidsEndpointCongestion: under the cost model, the naive
// pattern must have a strictly worse makespan at scale.
func TestRotationAvoidsEndpointCongestion(t *testing.T) {
	r := tensor.RNG(43)
	p, n := 16, 16384
	grads := make([][]float64, p)
	for i := range grads {
		grads[i] = heavyTailGradient(r, n, 300, 1)
	}
	makespan := func(rotation bool) float64 {
		cfg := allreduce.Config{Density: 0.02, TauPrime: 2, Tau: 2,
			Rotation: rotation, Repartition: true, DataBalance: true}
		algos := make([]*OkTopk, p)
		for i := range algos {
			algos[i] = New(cfg)
		}
		c := cluster.New(p, netmodel.PizDaint())
		for it := 1; it <= 2; it++ {
			if it == 2 {
				c.ResetClocks()
			}
			if err := c.Run(func(cm *cluster.Comm) error {
				algos[cm.Rank()].Reduce(cm, grads[cm.Rank()], it)
				return nil
			}); err != nil {
				t.Fatalf("run: %v", err)
			}
		}
		return netmodel.AggregateStats(c.Stats()).Makespan
	}
	rotated, naive := makespan(true), makespan(false)
	if rotated >= naive {
		t.Errorf("rotation (%v) not faster than the naive pattern (%v)", rotated, naive)
	}
}

// TestRepartitionBoundariesMonotonic: consensus boundaries are always a
// valid partition — non-decreasing, anchored at 0 and n — for arbitrary
// index distributions (property test).
func TestRepartitionBoundariesMonotonic(t *testing.T) {
	f := func(seed int64, pRaw uint8) bool {
		p := int(pRaw)%7 + 2
		n := 1024
		rng := rand.New(rand.NewSource(seed))
		grads := make([][]float64, p)
		for i := range grads {
			g := make([]float64, n)
			for j := 0; j < 30; j++ {
				g[rng.Intn(n)] = rng.NormFloat64() + 0.5
			}
			grads[i] = g
		}
		cfg := allreduce.Config{Density: 0.03, TauPrime: 2, Tau: 2}
		algos := make([]*OkTopk, p)
		for i := range algos {
			algos[i] = NewDefault(cfg)
		}
		c := cluster.New(p, netmodel.PizDaint())
		if err := c.Run(func(cm *cluster.Comm) error {
			algos[cm.Rank()].Reduce(cm, grads[cm.Rank()], 1)
			return nil
		}); err != nil {
			return false
		}
		for _, a := range algos {
			b := a.boundaries
			if len(b) != p+1 || b[0] != 0 || b[p] != n {
				return false
			}
			for j := 1; j <= p; j++ {
				if b[j] < b[j-1] {
					return false
				}
			}
			// All ranks must agree on the consensus boundaries.
			for j := range b {
				if b[j] != algos[0].boundaries[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestRebalanceConservesPairs: the data-balancing step never loses,
// duplicates or corrupts (index, value) pairs (property test over random
// skewed size distributions).
func TestRebalanceConservesPairs(t *testing.T) {
	f := func(seed int64, pRaw uint8) bool {
		p := int(pRaw)%7 + 2
		rng := rand.New(rand.NewSource(seed))
		// Random skewed sizes, including empty ranks.
		sizes := make([]int, p)
		for i := range sizes {
			if rng.Float64() < 0.3 {
				sizes[i] = 0
			} else {
				sizes[i] = rng.Intn(40)
			}
		}
		total := 0
		for _, s := range sizes {
			total += s
		}
		if total == 0 {
			return true
		}
		// Each rank owns pairs tagged with globally unique indexes.
		owned := make([][]int32, p)
		vals := make([][]float64, p)
		next := int32(0)
		for r := 0; r < p; r++ {
			for j := 0; j < sizes[r]; j++ {
				owned[r] = append(owned[r], next)
				vals[r] = append(vals[r], float64(next)*1.5)
				next++
			}
		}
		c := cluster.New(p, netmodel.PizDaint())
		outIdx := make([][]int32, p)
		outVal := make([][]float64, p)
		if err := c.Run(func(cm *cluster.Comm) error {
			sel := &collectives.FanOutSlot{Vec: sparse.Vec{Indexes: owned[cm.Rank()], Values: vals[cm.Rank()]}}
			out := New(allreduce.Config{}).rebalance(cm, sizes, sel)
			outIdx[cm.Rank()], outVal[cm.Rank()] = out.Indexes, out.Values
			return nil
		}); err != nil {
			return false
		}
		// Union must be exactly {0..total-1} with matching values, and
		// per-rank sizes must match the balanced split.
		seen := make(map[int32]bool)
		for r := 0; r < p; r++ {
			wantLo := r * total / p
			wantHi := (r + 1) * total / p
			if len(outIdx[r]) != wantHi-wantLo {
				return false
			}
			for j, idx := range outIdx[r] {
				if seen[idx] || outVal[r][j] != float64(idx)*1.5 {
					return false
				}
				seen[idx] = true
			}
		}
		return len(seen) == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestUpdateAgreementProperty: for arbitrary sparse-ish inputs, all
// ranks agree on the update and contributed indexes are consistent.
func TestUpdateAgreementProperty(t *testing.T) {
	f := func(seed int64, pRaw, kRaw uint8) bool {
		p := []int{2, 4, 8}[int(pRaw)%3]
		n := 512
		k := int(kRaw)%40 + 5
		rng := rand.New(rand.NewSource(seed))
		grads := make([][]float64, p)
		for i := range grads {
			g := make([]float64, n)
			for j := 0; j < 25; j++ {
				g[rng.Intn(n)] = rng.NormFloat64()
			}
			grads[i] = g
		}
		cfg := allreduce.Config{K: k, TauPrime: 2, Tau: 2}
		algos := make([]*OkTopk, p)
		for i := range algos {
			algos[i] = NewDefault(cfg)
		}
		c := cluster.New(p, netmodel.PizDaint())
		results := make([]allreduce.Result, p)
		if err := c.Run(func(cm *cluster.Comm) error {
			results[cm.Rank()] = algos[cm.Rank()].Reduce(cm, grads[cm.Rank()], 1)
			return nil
		}); err != nil {
			return false
		}
		for r := 1; r < p; r++ {
			for i := range results[0].Update {
				if results[r].Update[i] != results[0].Update[i] {
					return false
				}
			}
		}
		// Contributed indexes must point at nonzero update entries.
		for r := 0; r < p; r++ {
			for _, idx := range results[r].Contributed {
				if results[r].Update[idx] == 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
