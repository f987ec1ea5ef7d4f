package collectives

import (
	"math"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/netmodel"
	"repro/internal/tensor"
)

func testParams() netmodel.Params { return netmodel.PizDaint() }

// runCluster executes body on a fresh cluster of the given size and
// fails the test on error.
func runCluster(t *testing.T, p int, body func(cm *cluster.Comm) error) *cluster.Cluster {
	t.Helper()
	c := cluster.New(p, testParams())
	if err := c.Run(body); err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	return c
}

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

func expectedSum(p, n int) []float64 {
	// Rank r contributes x[i] = r + i*0.001; sum over ranks is
	// p*(p-1)/2 + p*i*0.001.
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(p*(p-1))/2 + float64(p)*float64(i)*0.001
	}
	return out
}

func rankVector(rank, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(rank) + float64(i)*0.001
	}
	return x
}

func testAllreduceSize(t *testing.T, p, n int) {
	t.Helper()
	want := expectedSum(p, n)
	runCluster(t, p, func(cm *cluster.Comm) error {
		x := rankVector(cm.Rank(), n)
		Allreduce(cm, x)
		for i := range x {
			if !almostEqual(x[i], want[i]) {
				t.Errorf("P=%d n=%d rank %d: x[%d]=%v want %v", p, n, cm.Rank(), i, x[i], want[i])
				return nil
			}
		}
		return nil
	})
}

func TestAllreducePowerOfTwo(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8, 16, 32} {
		for _, n := range []int{1, 7, 64, 1000} {
			testAllreduceSize(t, p, n)
		}
	}
}

func TestAllreduceNonPowerOfTwo(t *testing.T) {
	for _, p := range []int{3, 5, 6, 7, 12} {
		testAllreduceSize(t, p, 100)
	}
}

func TestAllreduceRing(t *testing.T) {
	for _, p := range []int{2, 3, 4, 8, 9} {
		want := expectedSum(p, 123)
		runCluster(t, p, func(cm *cluster.Comm) error {
			x := rankVector(cm.Rank(), 123)
			AllreduceRing(cm, x)
			for i := range x {
				if !almostEqual(x[i], want[i]) {
					t.Errorf("ring P=%d rank %d: x[%d]=%v want %v", p, cm.Rank(), i, x[i], want[i])
					return nil
				}
			}
			return nil
		})
	}
}

func TestAllgather(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8, 16, 3, 6} {
		bn := 5
		runCluster(t, p, func(cm *cluster.Comm) error {
			block := make([]float64, bn)
			for i := range block {
				block[i] = float64(cm.Rank()*100 + i)
			}
			out := make([]float64, bn*p)
			Allgather(cm, block, out)
			for r := 0; r < p; r++ {
				for i := 0; i < bn; i++ {
					want := float64(r*100 + i)
					if out[r*bn+i] != want {
						t.Errorf("P=%d rank %d: out[%d][%d]=%v want %v", p, cm.Rank(), r, i, out[r*bn+i], want)
						return nil
					}
				}
			}
			return nil
		})
	}
}

func TestAllgatherSizes(t *testing.T) {
	p := 8
	runCluster(t, p, func(cm *cluster.Comm) error {
		sizes, _ := AllgatherSizesInto(cm, cm.Rank()*7+1, nil, nil)
		for r, s := range sizes {
			if s != r*7+1 {
				t.Errorf("rank %d: sizes[%d]=%d want %d", cm.Rank(), r, s, r*7+1)
			}
		}
		return nil
	})
}

func TestAllgatherv(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8, 3, 5} {
		runCluster(t, p, func(cm *cluster.Comm) error {
			// Rank r contributes r+1 values and r indexes.
			data := make([]float64, cm.Rank()+1)
			for i := range data {
				data[i] = float64(cm.Rank()) + float64(i)/10
			}
			aux := make([]int32, cm.Rank())
			for i := range aux {
				aux[i] = int32(cm.Rank()*10 + i)
			}
			got := AllgathervInto(cm, Chunk{Data: data, Aux: aux}, nil)
			if len(got) != p {
				t.Errorf("P=%d: got %d chunks", p, len(got))
				return nil
			}
			for r, ch := range got {
				if ch.Origin != r {
					t.Errorf("P=%d: chunk %d has origin %d", p, r, ch.Origin)
					return nil
				}
				if len(ch.Data) != r+1 || len(ch.Aux) != r {
					t.Errorf("P=%d: chunk %d sizes %d/%d", p, r, len(ch.Data), len(ch.Aux))
					return nil
				}
				for i, v := range ch.Data {
					if v != float64(r)+float64(i)/10 {
						t.Errorf("P=%d chunk %d data[%d]=%v", p, r, i, v)
						return nil
					}
				}
				for i, v := range ch.Aux {
					if v != int32(r*10+i) {
						t.Errorf("P=%d chunk %d aux[%d]=%v", p, r, i, v)
						return nil
					}
				}
			}
			return nil
		})
	}
}

func TestBcast(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8, 3, 7} {
		for root := 0; root < p; root++ {
			runCluster(t, p, func(cm *cluster.Comm) error {
				var data []float64
				if cm.Rank() == root {
					data = []float64{3.5, -1, 42}
				}
				out := Bcast(cm, root, data)
				if len(out) != 3 || out[0] != 3.5 || out[1] != -1 || out[2] != 42 {
					t.Errorf("P=%d root=%d rank %d: got %v", p, root, cm.Rank(), out)
				}
				return nil
			})
		}
	}
}

func TestReduce(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8, 5} {
		for root := 0; root < p; root += 3 {
			n := 33
			want := expectedSum(p, n)
			results := make([][]float64, p)
			runCluster(t, p, func(cm *cluster.Comm) error {
				x := rankVector(cm.Rank(), n)
				Reduce(cm, root, x)
				results[cm.Rank()] = x
				return nil
			})
			for i := range want {
				if !almostEqual(results[root][i], want[i]) {
					t.Fatalf("P=%d root=%d: x[%d]=%v want %v", p, root, i, results[root][i], want[i])
				}
			}
		}
	}
}

// TestAllreduceVolume checks the bandwidth term of the dense allreduce
// against the 2n(P−1)/P model from Table 1.
func TestAllreduceVolume(t *testing.T) {
	p, n := 8, 1<<12
	c := runCluster(t, p, func(cm *cluster.Comm) error {
		x := rankVector(cm.Rank(), n)
		Allreduce(cm, x)
		return nil
	})
	want := float64(2*n) * float64(p-1) / float64(p)
	for r, s := range c.Stats() {
		got := float64(s.SentWords)
		if got < 0.95*want || got > 1.1*want {
			t.Errorf("rank %d sent %v words, want ≈%v (2n(P-1)/P)", r, got, want)
		}
	}
}

// TestAllgatherVolume checks the allgather bandwidth term n(P−1)/P per
// rank (each rank sends its share P−1 times cumulatively doubling).
func TestAllgatherVolume(t *testing.T) {
	p, bn := 16, 256
	c := runCluster(t, p, func(cm *cluster.Comm) error {
		block := make([]float64, bn)
		out := make([]float64, bn*p)
		Allgather(cm, block, out)
		return nil
	})
	want := float64(bn * (p - 1))
	for r, s := range c.Stats() {
		got := float64(s.SentWords)
		if got != want {
			t.Errorf("rank %d sent %v words, want %v", r, got, want)
		}
	}
}

// TestTimeAdvances checks that the cost model attributes nonzero
// communication time and that a barrier synchronizes clocks.
func TestTimeAdvances(t *testing.T) {
	p := 4
	times := make([]float64, p)
	c := runCluster(t, p, func(cm *cluster.Comm) error {
		cm.Clock().SetPhase(netmodel.PhaseComm)
		x := rankVector(cm.Rank(), 4096)
		Allreduce(cm, x)
		cm.Barrier()
		times[cm.Rank()] = cm.Clock().Now()
		return nil
	})
	for r := 1; r < p; r++ {
		if times[r] != times[0] {
			t.Errorf("clocks diverge after barrier: %v vs %v", times[r], times[0])
		}
	}
	agg := netmodel.AggregateStats(c.Stats())
	if agg.MeanPhase[netmodel.PhaseComm] <= 0 {
		t.Errorf("no communication time attributed: %+v", agg)
	}
	if agg.Makespan <= 0 {
		t.Errorf("makespan not advanced")
	}
}

// TestNoSelfChannelUse ensures tensor helpers used here behave (guard
// against accidental aliasing in rankVector/expectedSum).
func TestHelpersConsistent(t *testing.T) {
	x := rankVector(3, 10)
	y := slices.Clone(x)
	tensor.Axpy(1, x, y)
	for i := range y {
		if !almostEqual(y[i], 2*x[i]) {
			t.Fatalf("axpy broken at %d", i)
		}
	}
}
