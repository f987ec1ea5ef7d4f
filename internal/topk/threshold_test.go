package topk

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// sortedMagnitudes returns the magnitudes of the entries of x that are
// not NaN, sorted descending, and whether x held a NaN.
func sortedMagnitudes(x []float64) (abs []float64, hasNaN bool) {
	for _, v := range x {
		if math.IsNaN(v) {
			hasNaN = true
		} else {
			abs = append(abs, math.Abs(v))
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(abs)))
	return abs, hasNaN
}

// oracleThreshold is the sort-based statement of what ThresholdInto
// returns, given sortedMagnitudes(x): the k-th largest magnitude among
// the entries that are not NaN, k clamped to their number, +Inf when
// nothing can be selected.
func oracleThreshold(abs []float64, k int) float64 {
	if len(abs) == 0 || k <= 0 {
		return math.Inf(1)
	}
	return abs[min(k, len(abs))-1]
}

// copySelectThreshold is the algorithm ThresholdInto replaced, kept as
// a reference: copy every |x_i| and quickselect the copy. It is the
// g = 0 case of the filter-select, and undefined on NaN.
func copySelectThreshold(x []float64, k int) float64 {
	if len(x) == 0 || k <= 0 {
		return math.Inf(1)
	}
	abs := make([]float64, len(x))
	for i, v := range x {
		abs[i] = math.Abs(v)
	}
	return quickselectDesc(abs, min(k, len(x))-1)
}

// tile lays the pattern vals out over n positions, x[i] =
// vals[i·mul mod len(vals)]. With the sample's stride n/sampleSize a
// short pattern decides what the sample sees: a pattern whose period
// divides the stride shows the sample one value only.
func tile(vals []float64, n, mul int) []float64 {
	x := make([]float64, n)
	if len(vals) == 0 {
		return x
	}
	for i := range x {
		x[i] = vals[i*mul%len(vals)]
	}
	return x
}

// period16 is a pattern of period 16 (the stride at n = 16·sampleSize)
// whose sampled position holds first and the other fifteen hold rest,
// rest[i] scaled a little so that they are not all ties.
func period16(first, rest float64) []float64 {
	vals := make([]float64, 16)
	for i := range vals {
		vals[i] = rest * (1 + float64(i)/64)
	}
	vals[0] = first
	return vals
}

var (
	nan  = math.NaN()
	inf  = math.Inf(1)
	tiny = math.SmallestNonzeroFloat64
)

// thresholdCases are tiled inputs, shared by the table test and the
// fuzz target's seeds. Every case runs at k ∈ {0, 1, n/100, n/7, n,
// n+5} and the ks listed.
var thresholdCases = []struct {
	name string
	vals []float64
	n    int
	mul  int
	ks   []int
}{
	{name: "empty", n: 0},
	{name: "one", vals: []float64{-5}, n: 1},
	{name: "below the sample size", vals: []float64{3, -1, 4, -1, 5, -9, 2, 6}, n: sampleSize - 1, mul: 3},
	{name: "one below the sampling floor", vals: []float64{3, -1, 4, -1, 5, -9, 2, 6}, n: sampleMinN - 1, mul: 5},
	{name: "at the sampling floor", vals: []float64{3, -1, 4, -1, 5, -9, 2, 6}, n: sampleMinN, mul: 5, ks: []int{sampleMinN / 50}},
	{name: "all equal", vals: []float64{3}, n: 3 * sampleMinN},
	{name: "all zero", vals: []float64{0}, n: 3 * sampleMinN},
	{name: "signed zeros", vals: []float64{0, math.Copysign(0, -1)}, n: 2 * sampleMinN},
	{name: "mostly zero", vals: append(make([]float64, 200), 2, -3), n: 3 * sampleMinN, ks: []int{100, 400, 500}},
	{name: "ties at the threshold", vals: []float64{5, -5, 5, 1, 1, 1, 1, 1, 1, 1, 1}, n: 2 * sampleMinN, ks: []int{2978, 2979, 8936, 8937}},
	{name: "infinities", vals: []float64{inf, -inf, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, n: 2 * sampleMinN, ks: []int{5041, 5042, 5043}},
	{name: "all infinite", vals: []float64{inf, -inf}, n: 2 * sampleMinN},
	{name: "denormals", vals: []float64{tiny, -2 * tiny, 3 * tiny, 0, 1e-310, -1e-310}, n: 2 * sampleMinN},
	{name: "huge and tiny", vals: []float64{math.MaxFloat64, -math.MaxFloat64, tiny, 1, -1, 0}, n: 2 * sampleMinN},
	// The sample sees only the large value: g lands above the k-th
	// largest, fewer than k pass, and the g = 0 retry decides.
	{name: "every sampled position large", vals: period16(100, 1), n: 16 * sampleSize, mul: 1, ks: []int{sampleSize, sampleSize + 1, 5000}},
	// The sample sees only the small value: g is an under-estimate and
	// every element is a candidate.
	{name: "every sampled position small", vals: period16(0.001, 1), n: 16 * sampleSize, mul: 1, ks: []int{100, 2000}},
	{name: "every sampled position zero", vals: period16(0, 1), n: 16 * sampleSize, mul: 1, ks: []int{100, 2000}},
	{name: "every sampled position NaN", vals: period16(nan, 1), n: 16 * sampleSize, mul: 1, ks: []int{100, 2000}},
	{name: "NaN among values", vals: []float64{nan, 1, -2, 3, nan, -4, 5}, n: 2 * sampleMinN, mul: 3, ks: []int{4681, 4682}},
	{name: "NaN and infinities", vals: []float64{nan, inf, -inf, 1, 2}, n: 2 * sampleMinN, mul: 7},
	{name: "all NaN", vals: []float64{nan}, n: 2 * sampleMinN},
	{name: "all NaN, small", vals: []float64{nan}, n: 5},
	{name: "one value among NaN", vals: append(slices.Repeat([]float64{nan}, 16), 7), n: 2 * sampleMinN},
}

// checkThresholds holds ThresholdInto against both references at every
// k in ks, the first call on a nil scratch and each later one on the
// scratch the call before handed back. It returns the last scratch.
func checkThresholds(t *testing.T, x []float64, ks ...int) []float64 {
	t.Helper()
	abs, hasNaN := sortedMagnitudes(x)
	var scratch []float64
	for _, k := range ks {
		var got float64
		got, scratch = ThresholdInto(x, k, scratch)
		if want := oracleThreshold(abs, k); got != want {
			t.Fatalf("n=%d k=%d: ThresholdInto %v, sort oracle %v", len(x), k, got, want)
		}
		if hasNaN {
			continue
		}
		if want := copySelectThreshold(x, k); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d k=%d: ThresholdInto %v, copy-and-quickselect %v", len(x), k, got, want)
		}
	}
	return scratch
}

func TestThresholdIntoTable(t *testing.T) {
	for _, c := range thresholdCases {
		t.Run(c.name, func(t *testing.T) {
			checkThresholds(t, tile(c.vals, c.n, c.mul), append([]int{0, 1, c.n / 100, c.n / 7, c.n, c.n + 5}, c.ks...)...)
		})
	}
}

// TestThresholdIntoRandomShapes draws values with no ties: Gaussian and
// heavy-tailed, shuffled and sorted both ways (a sorted layout makes the
// strided sample an exact quantile sketch, the other extreme from a
// striped one), at sizes on both sides of the sampling floor and
// densities on both sides of the quarter-of-the-sample rule.
func TestThresholdIntoRandomShapes(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		n := 1 + r.Intn(6*sampleMinN)
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
			if trial%2 == 1 && r.Intn(50) == 0 {
				x[i] *= 100 // heavy tail
			}
		}
		switch trial % 5 {
		case 3:
			sort.Float64s(x)
		case 4:
			sort.Sort(sort.Reverse(sort.Float64Slice(x)))
		}
		checkThresholds(t, x, 1, 1+r.Intn(n), 1+n/100, 1+n/5, n)
	}
}

// TestThresholdIntoScratchIsOk: at gradient-like shapes the retained
// scratch is the candidate set, a small multiple of k, not the n-sized
// |x| copy it used to be.
func TestThresholdIntoScratchIsOk(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	n, k := 400000, 4000
	for _, heavy := range []bool{false, true} {
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
			if heavy && r.Intn(100) == 0 {
				x[i] *= 50
			}
		}
		scratch := checkThresholds(t, x, k)
		if cap(scratch) > 4*k {
			t.Fatalf("heavy=%v: scratch holds %d values for k=%d (n=%d), want at most 4k", heavy, cap(scratch), k, n)
		}
		if allocs := testing.AllocsPerRun(3, func() { _, scratch = ThresholdInto(x, k, scratch) }); allocs != 0 {
			t.Fatalf("heavy=%v: steady-state ThresholdInto allocates %v times", heavy, allocs)
		}
	}
}

func TestAppendSelectValuesByThreshold(t *testing.T) {
	x := []float64{0, 3, -0.5, math.Copysign(0, -1), nan, -3, 0.5, inf, -inf, tiny}
	for _, th := range []float64{-1, 0, tiny, 0.5, 3, inf, nan} {
		idx, val := AppendSelectValuesByThreshold([]int32{99}, []float64{99}, x, th)
		want := AppendSelectByThreshold([]int32{99}, x, th)
		if len(idx) != len(want) || len(val) != len(want) {
			t.Fatalf("th=%v: selected %d indexes and %d values, want %d", th, len(idx), len(val), len(want))
		}
		// Entry 0 is the 99 the call appended to.
		for i := range want {
			if idx[i] != want[i] {
				t.Fatalf("th=%v: index %d is %d, want %d", th, i, idx[i], want[i])
			}
			if i > 0 && math.Float64bits(val[i]) != math.Float64bits(x[idx[i]]) {
				t.Fatalf("th=%v: value at index %d is %v, want %v", th, idx[i], val[i], x[idx[i]])
			}
		}
	}
}

// floatBytes and bytesFloats carry a pattern through the fuzzer's
// []byte argument, eight little-endian bytes a value, so that NaN, ±Inf,
// ±0 and denormals are all one mutation away.
func floatBytes(vals []float64) []byte {
	b := make([]byte, 0, 8*len(vals))
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

func bytesFloats(b []byte) []float64 {
	vals := make([]float64, len(b)/8)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return vals
}

// FuzzThresholdInto: for any pattern, layout, size and k, ThresholdInto
// terminates and returns the sort oracle's threshold (and, without NaN,
// the copy-and-quickselect reference's, to the bit), on a fresh scratch
// and on the one it handed back.
func FuzzThresholdInto(f *testing.F) {
	for _, c := range thresholdCases {
		for _, k := range append([]int{1, c.n / 100}, c.ks...) {
			f.Add(floatBytes(c.vals), uint32(c.n), uint16(c.mul), k)
		}
	}
	f.Fuzz(func(t *testing.T, pattern []byte, n uint32, mul uint16, k int) {
		x := tile(bytesFloats(pattern), int(n%(4*sampleMinN)), int(mul))
		checkThresholds(t, x, k, k)
	})
}
