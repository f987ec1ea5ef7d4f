package train

import (
	"math"
	"testing"
)

// TestStatsRoundTripBits: the stats gather carries every float as its
// bits, so NaN, ±Inf and −0 come back exactly as they were sent.
func TestStatsRoundTripBits(t *testing.T) {
	negZero := math.Copysign(0, -1)
	in := StepStats{
		Loss: math.NaN(), Correct: 3, Total: -1, LocalK: 1 << 40, GlobalK: 7,
		Phase:       [3]float64{math.Inf(1), math.Inf(-1), negZero},
		IterSeconds: math.Float64frombits(0x7ff8_0000_dead_beef), // NaN with a payload
	}
	out, err := decodeStats(appendStats(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	floats := func(st StepStats) []float64 {
		return []float64{st.Loss, st.Phase[0], st.Phase[1], st.Phase[2], st.IterSeconds}
	}
	for i, want := range floats(in) {
		if got := floats(out)[i]; math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("float %d: got %v (%016x), want %v (%016x)",
				i, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	if out.Correct != in.Correct || out.Total != in.Total || out.LocalK != in.LocalK || out.GlobalK != in.GlobalK {
		t.Errorf("counts: got %+v, want %+v", out, in)
	}
	if _, err := decodeStats(make([]byte, statsBytes-1)); err == nil {
		t.Error("a short stats blob decoded")
	}
}

// TestNaNLossSurvivesTheGather: an in-process session driven to a NaN
// loss reports it. Its per-rank stats cross the same control-plane
// gather a multi-process job uses, which must not reject NaN.
func TestNaNLossSurvivesTheGather(t *testing.T) {
	s := NewSession(quickCfg("VGG", "OkTopk", 4))
	for _, tr := range s.Trainers {
		for i, p := 0, tr.W.Params(); i < len(p); i++ {
			p[i] = math.NaN()
		}
	}
	if st := s.RunIteration(); !math.IsNaN(st.Loss) {
		t.Fatalf("loss %v from NaN parameters, want NaN", st.Loss)
	}
}
