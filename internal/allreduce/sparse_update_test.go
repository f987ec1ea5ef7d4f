package allreduce

import (
	"math"
	"slices"
	"testing"
)

// allZero reports whether every entry of buf is +0 or −0.
func allZero(buf []float64) bool {
	return !slices.ContainsFunc(buf, func(v float64) bool { return v != 0 })
}

// TestSparseUpdateBeginZeroes writes through Set and Add, with repeated
// indexes, and checks that the next Begin hands back an all-zero
// buffer, on both of its paths. A nonzero planted outside Set and Add
// (which the contract forbids callers) shows which path ran: the
// scatter re-zeroes only the written indexes and leaves it, the clear
// at 1/8 of n wipes it.
func TestSparseUpdateBeginZeroes(t *testing.T) {
	for _, tc := range []struct {
		name    string
		n       int
		idx     []int32
		cleared bool
	}{
		// 6 + 3 writes, 9·8 < 100: the scatter.
		{"scatter", 100, []int32{3, 5, 5, 7, 90, 3}, false},
		// 6 + 3 writes, 9·8 ≥ 72: the clear.
		{"clear", 72, []int32{3, 5, 5, 7, 70, 3}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var s SparseUpdate
			for call := 0; call < 3; call++ {
				buf := s.Begin(tc.n)
				if len(buf) != tc.n || !allZero(buf) {
					t.Fatalf("call %d: Begin returned %d entries, all-zero %v", call, len(buf), allZero(buf))
				}
				s.Set(tc.idx, []float64{1, 2, 3, 4, 5, -6})
				s.Add(tc.idx[:3], []float64{0.5, 0.25, 0.125})
				buf[50] = 9 // planted: neither Set nor Add wrote it
				if buf[3] != -5.5 || buf[5] != 3.375 || buf[tc.idx[4]] != 5 {
					t.Fatalf("call %d: buf[3], buf[5], buf[%d] = %v, %v, %v; want -5.5, 3.375, 5",
						call, tc.idx[4], buf[3], buf[5], buf[tc.idx[4]])
				}
				next := s.Begin(tc.n)
				if &next[0] != &buf[0] {
					t.Fatalf("call %d: Begin at the same n reallocated the buffer", call)
				}
				if kept := next[50] == 9; kept == tc.cleared {
					t.Fatalf("call %d: planted entry kept %v, want the %s path", call, kept, tc.name)
				}
				next[50] = 0
				if !allZero(next) {
					t.Fatalf("call %d: Begin left written entries nonzero", call)
				}
			}
		})
	}
}

// TestSparseUpdateNewN checks that a new n allocates a fresh all-zero
// buffer of that length, and that the written list of the old buffer
// is not replayed against the new one.
func TestSparseUpdateNewN(t *testing.T) {
	var s SparseUpdate
	small := s.Begin(10)
	s.Set([]int32{9}, []float64{1})
	big := s.Begin(1000)
	if len(big) != 1000 || !allZero(big) {
		t.Fatalf("Begin(1000) after Begin(10): %d entries, all-zero %v", len(big), allZero(big))
	}
	s.Add([]int32{999}, []float64{2})
	again := s.Begin(10)
	if len(again) != 10 || !allZero(again) || &again[0] == &small[0] {
		t.Fatalf("Begin(10) again: %d entries, all-zero %v, reused the old buffer %v",
			len(again), allZero(again), &again[0] == &small[0])
	}
}

// TestSparseUpdateSetKeepsNegativeZero: Set stores its values bit for
// bit, so a −0 (gTopk's broadcast can carry one) stays −0, where adding
// it to the zeroed entry would give +0.
func TestSparseUpdateSetKeepsNegativeZero(t *testing.T) {
	var s SparseUpdate
	buf := s.Begin(8)
	s.Set([]int32{2}, []float64{math.Copysign(0, -1)})
	if !math.Signbit(buf[2]) {
		t.Fatalf("Set(-0) stored %v with the sign bit clear", buf[2])
	}
	s.Add([]int32{3}, []float64{math.Copysign(0, -1)})
	if math.Signbit(buf[3]) {
		t.Fatalf("Add(-0) onto +0 stored -0")
	}
}

// TestSparseUpdateAddCounts pins Add's count: each addition that finds
// its entry zero and leaves it nonzero counts, so an entry whose sum
// cancels to zero and is then made nonzero again counts twice, and a
// zero value or a cancelling pair alone counts what they leave.
func TestSparseUpdateAddCounts(t *testing.T) {
	var s SparseUpdate
	buf := s.Begin(16)
	for _, tc := range []struct {
		idx  []int32
		vals []float64
		want int
	}{
		{[]int32{4, 4}, []float64{1, -1}, 1},       // cancels: 1, then 0
		{[]int32{4}, []float64{2}, 1},              // nonzero again
		{[]int32{6, 6}, []float64{0, 0}, 0},        // zeros add nothing
		{[]int32{6, 7, 6}, []float64{3, -2, 4}, 2}, // 6 once, 7 once
		{[]int32{7}, []float64{2}, 0},              // cancels to zero
	} {
		if got := s.Add(tc.idx, tc.vals); got != tc.want {
			t.Fatalf("Add(%v, %v) = %d, want %d", tc.idx, tc.vals, got, tc.want)
		}
	}
	if buf[4] != 2 || buf[6] != 7 || buf[7] != 0 {
		t.Fatalf("buf[4], buf[6], buf[7] = %v, %v, %v; want 2, 7, 0", buf[4], buf[6], buf[7])
	}
	if !allZero(s.Begin(16)) {
		t.Fatal("Begin after cancelling adds left an entry nonzero")
	}
}
