package sparse

import (
	"math/rand"
	"slices"
	"testing"
)

// TestMergeRuns merges randomized sorted runs and checks against a
// plain sort of the concatenation (stable: duplicates keep run order,
// which for values is indistinguishable — indexes only here).
func TestMergeRuns(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		runs := 1 + r.Intn(9)
		var idx []int32
		var ends []int
		for ri := 0; ri < runs; ri++ {
			ln := r.Intn(20)
			run := make([]int32, ln)
			for i := range run {
				run[i] = int32(r.Intn(100))
			}
			slices.Sort(run)
			idx = append(idx, run...)
			ends = append(ends, len(idx))
		}
		want := append([]int32(nil), idx...)
		slices.Sort(want)
		var scratch []int32
		got, _ := MergeRuns(idx, ends, scratch)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: MergeRuns = %v, want %v", trial, got, want)
		}
	}
}

// TestMergeRunsConcatFastPath: disjoint ascending runs must come back
// as-is (no copying pass).
func TestMergeRunsConcatFastPath(t *testing.T) {
	idx := []int32{1, 2, 5, 7, 8, 9, 12}
	ends := []int{3, 6, 7}
	got, _ := MergeRuns(idx, ends, nil)
	if &got[0] != &idx[0] {
		t.Fatal("fast path copied the already-sorted buffer")
	}
	if !slices.IsSorted(got) {
		t.Fatal("fast path returned unsorted data")
	}
}

// TestMergeRunsScratchReuse: a second call must not allocate when the
// scratch from the first is handed back.
func TestMergeRunsScratchReuse(t *testing.T) {
	idx := []int32{5, 9, 1, 7, 0, 3}
	ends := []int{2, 4, 6}
	sorted, spare := MergeRuns(idx, ends, nil)
	if !slices.IsSorted(sorted) {
		t.Fatalf("unsorted: %v", sorted)
	}
	if cap(spare) < len(idx) {
		t.Fatal("spare buffer not returned for reuse")
	}
	allocs := testing.AllocsPerRun(10, func() {
		i2 := sorted[:0]
		i2 = append(i2, 5, 9, 1, 7, 0, 3)
		e2 := ends[:0]
		e2 = append(e2, 2, 4, 6)
		i2, spare = MergeRuns(i2, e2, spare)
		sorted = i2
	})
	if allocs != 0 {
		t.Fatalf("steady-state MergeRuns allocates %v times", allocs)
	}
}

// TestAddTo checks buffer reuse and that out matches Add.
func TestAddTo(t *testing.T) {
	a := FromPairs(50, []int32{1, 4, 9}, []float64{1, 2, 3})
	b := FromPairs(50, []int32{2, 4, 30}, []float64{5, 6, 7})
	out := New(50)
	got := AddTo(out, a, b)
	want := Add(a, b)
	if !slices.Equal(got.Indexes, want.Indexes) || !slices.Equal(got.Values, want.Values) {
		t.Fatalf("AddTo = %v/%v, want %v/%v", got.Indexes, got.Values, want.Indexes, want.Values)
	}
	allocs := testing.AllocsPerRun(10, func() { AddTo(out, a, b) })
	if allocs != 0 {
		t.Fatalf("steady-state AddTo allocates %v times", allocs)
	}
}
