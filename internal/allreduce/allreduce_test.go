package allreduce

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/netmodel"
)

func TestConfigDefaults(t *testing.T) {
	c := Config{}.Defaults()
	if c.Density != 0.01 || c.TauPrime != 32 || c.Tau != 64 ||
		c.BucketSize != 8 || c.DenseBuckets != 8 {
		t.Fatalf("defaults %+v", c)
	}
	if c.SortFlops <= c.ScanFlops {
		t.Fatal("sort must be modeled slower than scan")
	}
	// Explicit values survive.
	c2 := Config{Density: 0.05, TauPrime: 7}.Defaults()
	if c2.Density != 0.05 || c2.TauPrime != 7 {
		t.Fatalf("explicit values overwritten: %+v", c2)
	}
}

func TestKFor(t *testing.T) {
	if k := (Config{Density: 0.01}).KFor(1000); k != 10 {
		t.Fatalf("k=%d", k)
	}
	if k := (Config{K: 77}).KFor(1000); k != 77 {
		t.Fatalf("explicit k=%d", k)
	}
	if k := (Config{K: 5000}).KFor(1000); k != 1000 {
		t.Fatalf("clamped k=%d", k)
	}
	if k := (Config{Density: 1e-9}).KFor(1000); k != 1 {
		t.Fatalf("floor k=%d", k)
	}
}

func TestChargePhases(t *testing.T) {
	c := cluster.New(1, netmodel.Params{Gamma: 1e-9})
	cm := c.Comm(0)
	cm.Clock().SetPhase(netmodel.PhaseCompute)
	ChargeSort(cm, Config{}.Defaults(), 1000)
	ChargeScan(cm, Config{}.Defaults(), 1000)
	s := cm.Clock().Snapshot()
	if s.PhaseTime[netmodel.PhaseSparsify] <= 0 {
		t.Fatal("sparsification time not charged")
	}
	if cm.Clock().CurrentPhase() != netmodel.PhaseCompute {
		t.Fatal("phase not restored")
	}
}

func TestDenseReduceSingleRank(t *testing.T) {
	c := cluster.New(1, netmodel.PizDaint())
	res := NewDense().Reduce(c.Comm(0), []float64{1, 2, 3}, 1)
	if !res.All || res.Update[2] != 3 {
		t.Fatalf("res %+v", res)
	}
}

func TestDenseOvlpBucketsSumCorrectly(t *testing.T) {
	p, n := 4, 103 // n not divisible by bucket count
	c := cluster.New(p, netmodel.PizDaint())
	results := make([]Result, p)
	if err := c.Run(func(cm *cluster.Comm) error {
		x := make([]float64, n)
		for i := range x {
			x[i] = float64(cm.Rank()*1000 + i)
		}
		results[cm.Rank()] = NewDenseOvlp(Config{DenseBuckets: 8}).Reduce(cm, x, 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := float64((0+1+2+3)*1000 + 4*i)
		if results[0].Update[i] != want {
			t.Fatalf("update[%d]=%v want %v", i, results[0].Update[i], want)
		}
	}
	if !NewDenseOvlp(Config{}).OverlapsBackward() {
		t.Fatal("DenseOvlp must declare overlap")
	}
	if NewDense().OverlapsBackward() {
		t.Fatal("Dense must not declare overlap")
	}
}

func TestDenseDoesNotMutateInput(t *testing.T) {
	p := 2
	c := cluster.New(p, netmodel.PizDaint())
	if err := c.Run(func(cm *cluster.Comm) error {
		x := []float64{1, 2, 3, 4}
		NewDense().Reduce(cm, x, 1)
		for i, v := range x {
			if v != float64(i+1) {
				t.Errorf("input mutated at %d: %v", i, v)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestHierDenseRebuildsGroups: HierDense keeps its node and leader
// groups across calls, and builds new ones for a new world
// communicator. The same instances reduce twice on one cluster, then
// twice on another of the same size. Groups kept from the first would
// still sum correctly, through the first cluster's mailboxes and
// clocks, so the second cluster's clocks must see the same traffic.
func TestHierDenseRebuildsGroups(t *testing.T) {
	const p, n = 6, 5
	algos := make([]*HierDense, p)
	for i := range algos {
		algos[i] = NewHierDense(4)
	}
	var sent [2][p]int64
	for round := 0; round < 2; round++ {
		c := cluster.New(p, netmodel.PizDaint())
		for call := 1; call <= 2; call++ {
			err := c.Run(func(cm *cluster.Comm) error {
				acc := make([]float64, n)
				for i := range acc {
					acc[i] = float64(cm.Rank()*n + i)
				}
				res := algos[cm.Rank()].Reduce(cm, acc, call)
				for i, v := range res.Update {
					if want := float64(n*p*(p-1)/2 + p*i); v != want {
						return fmt.Errorf("round %d call %d rank %d: Update[%d] = %v, want %v", round, call, cm.Rank(), i, v, want)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		for r, st := range c.Stats() {
			sent[round][r] = st.SentWords
		}
	}
	if sent[1] != sent[0] || sent[0] == [p]int64{} {
		t.Fatalf("words sent per rank: %v on the first cluster, %v on the second", sent[0], sent[1])
	}
}
