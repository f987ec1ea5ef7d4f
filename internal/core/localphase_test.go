package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/allreduce"
	"repro/internal/cluster"
	"repro/internal/netmodel"
	"repro/internal/tensor"
)

// regionsByLoop is the per-element region split regionSplits replaced,
// kept as a reference: walk the ascending selection once, advance the
// region while the index is at or past its end, and copy the index and
// acc's value at it into the region's own slices.
func regionsByLoop(acc []float64, localIdx []int32, bounds []int) ([][]int32, [][]float64) {
	p := len(bounds) - 1
	idx, val := make([][]int32, p), make([][]float64, p)
	j := 0
	for _, i := range localIdx {
		for int(i) >= bounds[j+1] {
			j++
		}
		idx[j] = append(idx[j], i)
		val[j] = append(val[j], acc[i])
	}
	return idx, val
}

// checkRegionSplits holds the sub-slices cut by regionSplits against
// regionsByLoop for one selection and one set of boundaries.
func checkRegionSplits(t *testing.T, n int, localIdx []int32, bounds []int) {
	t.Helper()
	acc := make([]float64, n)
	for i := range acc {
		acc[i] = float64(i) + 0.5
	}
	localVal := make([]float64, len(localIdx))
	for i, idx := range localIdx {
		localVal[i] = acc[idx]
	}
	wantIdx, wantVal := regionsByLoop(acc, localIdx, bounds)
	// A dirty, longer dst: the splits must not depend on what it held.
	splits := regionSplits([]int{7, 7, 7, 7, 7, 7, 7, 7, 7}, localIdx, bounds)
	if len(splits) != len(bounds) {
		t.Fatalf("bounds %v: %d splits, want %d", bounds, len(splits), len(bounds))
	}
	if splits[0] != 0 || splits[len(splits)-1] != len(localIdx) {
		t.Fatalf("bounds %v: splits %v do not cover the selection of %d", bounds, splits, len(localIdx))
	}
	for r := range wantIdx {
		gotIdx, gotVal := localIdx[splits[r]:splits[r+1]], localVal[splits[r]:splits[r+1]]
		if !slices.Equal(gotIdx, wantIdx[r]) || !slices.Equal(gotVal, wantVal[r]) {
			t.Fatalf("bounds %v, selection %v: region %d is %v/%v, the loop gives %v/%v",
				bounds, localIdx, r, gotIdx, gotVal, wantIdx[r], wantVal[r])
		}
	}
}

func TestRegionSplitsMatchLoop(t *testing.T) {
	const n = 12
	for _, c := range []struct {
		name   string
		idx    []int32
		bounds []int
	}{
		{"empty selection", nil, []int{0, 4, 8, n}},
		{"one worker", []int32{0, 3, 11}, []int{0, n}},
		{"one worker, empty selection", nil, []int{0, n}},
		{"every region hit", []int32{1, 2, 5, 9, 10}, []int{0, 4, 8, n}},
		{"all in the first region", []int32{0, 1, 3}, []int{0, 4, 8, n}},
		{"all in the middle region", []int32{4, 6, 7}, []int{0, 4, 8, n}},
		{"all in the last region", []int32{8, 11}, []int{0, 4, 8, n}},
		{"index equal to a boundary", []int32{3, 4, 7, 8}, []int{0, 4, 8, n}},
		{"repeated boundaries", []int32{2, 5, 6, 9}, []int{0, 5, 5, 5, n}},
		{"index equal to a repeated boundary", []int32{4, 5, 6}, []int{0, 5, 5, n}},
		{"empty first and last regions", []int32{0, 2, 11}, []int{0, 0, 3, n, n}},
		{"every index selected", []int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, []int{0, 1, 1, 6, n}},
	} {
		t.Run(c.name, func(t *testing.T) { checkRegionSplits(t, n, c.idx, c.bounds) })
	}
}

// TestRegionSplitsRandom: random selections against random monotone
// boundaries, repeats and empty regions included.
func TestRegionSplitsRandom(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(300)
		var idx []int32
		for i := 0; i < n; i++ {
			if r.Intn(4) == 0 {
				idx = append(idx, int32(i))
			}
		}
		p := 1 + r.Intn(9)
		bounds := make([]int, p+1)
		for j := 1; j < p; j++ {
			bounds[j] = r.Intn(n + 1)
		}
		bounds[p] = n
		slices.Sort(bounds)
		checkRegionSplits(t, n, idx, bounds)
	}
}

// TestSplitAndReduceEmitsEachIndexOnce: an owned index whose partial sum
// cancels to exactly zero and then receives another contribution is
// still one entry of the reduced region. (The touched-list bookkeeping
// this bitmap replaced appended it a second time, and the second copy
// went out with value 0: one word too many in the global-threshold
// gather.) Three ranks contribute ±s to the first three offsets of every
// region in the three sign orders, so whatever order an owner
// accumulates in, one of them cancels on the way; the fourth offset
// cancels for good and stays in the result with value 0.
func TestSplitAndReduceEmitsEachIndexOnce(t *testing.T) {
	const (
		p = 3
		n = 12
		s = 0.5
	)
	bounds := []int{0, 4, 8, n}
	// signs[rank][offset]; 0 means the rank does not select the offset.
	signs := [p][4]float64{
		{+1, +1, -1, +1},
		{+1, -1, +1, -1},
		{-1, +1, +1, 0},
	}
	wantVal := []float64{s, s, s, 0}
	for _, wire := range []cluster.Wire{cluster.WireF64, cluster.WireF32} {
		for _, rotation := range []bool{true, false} {
			t.Run(fmt.Sprintf("%v/rotation=%v", wire, rotation), func(t *testing.T) {
				c := cluster.NewWire(p, netmodel.PizDaint(), wire)
				err := c.Run(func(cm *cluster.Comm) error {
					rank := cm.Rank()
					var idx []int32
					var val []float64
					for i := 0; i < n; i++ {
						if sg := signs[rank][i%4]; sg != 0 {
							idx = append(idx, int32(i))
							val = append(val, sg*s)
						}
					}
					o := New(allreduce.Config{Rotation: rotation})
					o.boundaries = bounds
					// Twice: the second call runs on the scratch the first left.
					for it := 1; it <= 2; it++ {
						gotIdx, gotVal := o.splitAndReduce(cm, idx, val)
						lo := int32(bounds[rank])
						if !slices.Equal(gotIdx, []int32{lo, lo + 1, lo + 2, lo + 3}) || !slices.Equal(gotVal, wantVal) {
							return fmt.Errorf("rank %d call %d: reduced region is %v/%v, want indexes %d..%d once each with values %v",
								rank, it, gotIdx, gotVal, lo, lo+3, wantVal)
						}
						if slices.IndexFunc(o.scratch.red, func(v float64) bool { return v != 0 }) >= 0 ||
							slices.IndexFunc(o.scratch.redMask, func(w uint64) bool { return w != 0 }) >= 0 {
							return fmt.Errorf("rank %d call %d: reduction buffer or its bitmap not left all-zero", rank, it)
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// sliceBytes sums cap·elemsize over the slice fields of the struct v,
// descending into struct and array fields (the fan-out slots), fields
// named in skip left out.
func sliceBytes(v reflect.Value, skip ...string) int {
	total := 0
	for i := 0; i < v.NumField(); i++ {
		if !slices.Contains(skip, v.Type().Field(i).Name) {
			total += valueBytes(v.Field(i))
		}
	}
	return total
}

func valueBytes(f reflect.Value) int {
	switch f.Kind() {
	case reflect.Slice:
		return f.Cap() * int(f.Type().Elem().Size())
	case reflect.Struct:
		return sliceBytes(f)
	case reflect.Array:
		total := 0
		for i := 0; i < f.Len(); i++ {
			total += valueBytes(f.Index(i))
		}
		return total
	}
	return 0
}

// TestOkTopkScratchIsOk: everything an instance retains between Reduce
// calls, bar the dense update the API returns and the owned-region
// reduction buffer (n/P values), is O(k) — the selection, the reduced
// region, the index merges, the gather staging, the fan-out slots and
// both threshold controllers' candidate buffers. Two re-evaluation
// periods go by, so every buffer has been through an exact
// re-evaluation and a boundary change at its steady-state size.
//
// The bound is 40 words of 8 bytes per unit of k, where n is 100·k:
// before the thresholds were found by filter-select, each controller
// alone kept an n-sized |x| copy. Measured: 20 words per unit of k.
func TestOkTopkScratchIsOk(t *testing.T) {
	const (
		p        = 4
		n        = 400_000
		k        = 4_000
		wordsPer = 40
	)
	r := tensor.RNG(12)
	// Two gradient sets a rank alternates between, so that a reused
	// threshold meets values it was not computed from.
	var grads [2][p][]float64
	for s := range grads {
		for rank := range grads[s] {
			grads[s][rank] = heavyTailGradient(r, n, k/2, 1)
		}
	}
	cfg := allreduce.Config{K: k}.Defaults()
	c := cluster.New(p, netmodel.PizDaint())
	algos := make([]*OkTopk, p)
	for i := range algos {
		algos[i] = NewDefault(cfg)
	}
	for it := 1; it <= 2*cfg.TauPrime; it++ {
		err := c.Run(func(cm *cluster.Comm) error {
			algos[cm.Rank()].Reduce(cm, grads[it%2][cm.Rank()], it)
			return nil
		})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	}
	for rank, o := range algos {
		bytes := sliceBytes(reflect.ValueOf(o.scratch), "update", "red") +
			sliceBytes(reflect.ValueOf(o.localCtl).Elem()) +
			sliceBytes(reflect.ValueOf(o.globalCtl).Elem())
		t.Logf("rank %d: %d bytes of scratch, %.1f words per unit of k", rank, bytes, float64(bytes)/8/k)
		if bytes > wordsPer*8*k {
			t.Fatalf("rank %d retains %d bytes of scratch besides update and red, want at most %d (%d words per unit of k=%d, n=%d)",
				rank, bytes, wordsPer*8*k, wordsPer, k, n)
		}
	}
}
