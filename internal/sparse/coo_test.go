package sparse

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestFromDenseRoundTrip(t *testing.T) {
	d := []float64{0, 1.5, 0, -2, 0, 0, 3}
	v := FromDense(d)
	if v.NNZ() != 3 {
		t.Fatalf("nnz=%d", v.NNZ())
	}
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
	got := v.Dense()
	if !reflect.DeepEqual(got, d) {
		t.Fatalf("round trip: %v != %v", got, d)
	}
}

func TestFromDenseThreshold(t *testing.T) {
	d := []float64{0.1, -0.5, 0.49, 0.5, 0, -0.51}
	v := FromDenseThreshold(d, 0.5)
	want := []int32{1, 3, 5}
	if !reflect.DeepEqual(v.Indexes, want) {
		t.Fatalf("indexes %v want %v", v.Indexes, want)
	}
}

func TestFromDenseThresholdSkipsZeros(t *testing.T) {
	d := []float64{0, 0, 1}
	v := FromDenseThreshold(d, 0)
	if v.NNZ() != 1 || v.Indexes[0] != 2 {
		t.Fatalf("zeros must not be selected: %v", v.Indexes)
	}
}

func TestFromPairsSortsAndMerges(t *testing.T) {
	v := FromPairs(10, []int32{5, 2, 5, 9}, []float64{1, 2, 3, 4})
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
	if v.NNZ() != 3 {
		t.Fatalf("nnz=%d want 3", v.NNZ())
	}
	d := v.Dense()
	if d[2] != 2 || d[5] != 4 || d[9] != 4 {
		t.Fatalf("dense %v", d)
	}
}

func TestAddMatchesDense(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(200)
		da := make([]float64, n)
		db := make([]float64, n)
		for i := range da {
			if r.Float64() < 0.2 {
				da[i] = r.NormFloat64()
			}
			if r.Float64() < 0.2 {
				db[i] = r.NormFloat64()
			}
		}
		sum := Add(FromDense(da), FromDense(db))
		if err := sum.Validate(); err != nil {
			t.Fatal(err)
		}
		got := sum.Dense()
		for i := range da {
			if math.Abs(got[i]-(da[i]+db[i])) > 1e-12 {
				t.Fatalf("trial %d: sum[%d]=%v want %v", trial, i, got[i], da[i]+db[i])
			}
		}
	}
}

func TestAddDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Add(New(3), New(4))
}

func TestReduceMatchesDense(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	n, workers := 128, 7
	want := make([]float64, n)
	vs := make([]*Vec, workers)
	for w := range vs {
		d := make([]float64, n)
		for i := range d {
			if r.Float64() < 0.1 {
				d[i] = r.NormFloat64()
				want[i] += d[i]
			}
		}
		vs[w] = FromDense(d)
	}
	got := Reduce(vs).Dense()
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("reduce[%d]=%v want %v", i, got[i], want[i])
		}
	}
}

func TestReduceSingleClones(t *testing.T) {
	v := FromDense([]float64{1, 0, 2})
	out := Reduce([]*Vec{v})
	out.Values[0] = 99
	if v.Values[0] == 99 {
		t.Fatal("Reduce must clone single input")
	}
}

func TestSlice(t *testing.T) {
	v := FromPairs(100, []int32{1, 10, 50, 99}, []float64{1, 2, 3, 4})
	s := v.Slice(10, 99)
	if !reflect.DeepEqual(s.Indexes, []int32{10, 50}) {
		t.Fatalf("slice indexes %v", s.Indexes)
	}
	empty := v.Slice(60, 60)
	if empty.NNZ() != 0 {
		t.Fatalf("empty slice has %d", empty.NNZ())
	}
}

func TestIntersect(t *testing.T) {
	got := AppendIntersect(nil, []int32{1, 3, 5, 7}, []int32{2, 3, 4, 5, 8})
	if !reflect.DeepEqual(got, []int32{3, 5}) {
		t.Fatalf("intersect %v", got)
	}
	if AppendIntersect(nil, nil, []int32{1}) != nil {
		t.Fatal("nil ∩ x must be nil")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	cases := []*Vec{
		{Dim: 5, Indexes: []int32{0, 0}, Values: []float64{1, 1}}, // dup
		{Dim: 5, Indexes: []int32{3, 1}, Values: []float64{1, 1}}, // unsorted
		{Dim: 5, Indexes: []int32{7}, Values: []float64{1}},       // out of range
		{Dim: 5, Indexes: []int32{1, 2}, Values: []float64{1}},    // length
		{Dim: 5, Indexes: []int32{-1}, Values: []float64{1}},      // negative
	}
	for i, v := range cases {
		if v.Validate() == nil {
			t.Errorf("case %d: corruption not detected", i)
		}
	}
}

// Property: Add is commutative and preserves validity (testing/quick over
// random sparse patterns).
func TestAddCommutativeProperty(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		ra := rand.New(rand.NewSource(seedA))
		rb := rand.New(rand.NewSource(seedB))
		n := 64
		mk := func(r *rand.Rand) *Vec {
			d := make([]float64, n)
			for i := range d {
				if r.Float64() < 0.3 {
					d[i] = r.NormFloat64()
				}
			}
			return FromDense(d)
		}
		a, b := mk(ra), mk(rb)
		ab, ba := Add(a, b), Add(b, a)
		if ab.Validate() != nil || ba.Validate() != nil {
			return false
		}
		return reflect.DeepEqual(ab.Indexes, ba.Indexes) &&
			reflect.DeepEqual(ab.Values, ba.Values)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Slice concatenation over a partition reconstructs the vector.
func TestSlicePartitionProperty(t *testing.T) {
	f := func(seed int64, cuts uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := 128
		d := make([]float64, n)
		for i := range d {
			if r.Float64() < 0.25 {
				d[i] = r.NormFloat64()
			}
		}
		v := FromDense(d)
		p := int(cuts%7) + 1
		var rebuilt []int32
		var vals []float64
		for j := 0; j < p; j++ {
			lo := int32(j * n / p)
			hi := int32((j + 1) * n / p)
			s := v.Slice(lo, hi)
			rebuilt = append(rebuilt, s.Indexes...)
			vals = append(vals, s.Values...)
		}
		return reflect.DeepEqual(rebuilt, v.Indexes) && reflect.DeepEqual(vals, v.Values)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
