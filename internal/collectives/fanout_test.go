package collectives

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/netmodel"
)

// fanOutPayload is origin's call-c contribution: a length that varies
// with the call (so slots are regrown mid-run) and values that identify
// (origin, call, position).
func fanOutPayload(origin, call int) ([]int32, []float64) {
	n := 1 + (origin*7+call)%13
	idx := make([]int32, n)
	val := make([]float64, n)
	for i := range idx {
		idx[i] = int32(origin*1000 + i)
		val[i] = float64(call)*1024 + float64(origin) + float64(i)/8
	}
	return idx, val
}

// TestFanOutSlotRule drives AllgathervInto with origin-owned two-slot
// payloads that every call overwrites, first with poison and then with
// the real contents, while seeded per-rank delays shuffle how far apart
// the ranks run. If an origin could rewrite a slot another rank still
// reads, a rank would gather poison or another call's values, and under
// -race the rewrite and the read would be reported as a data race. P=3
// and 5 take the ring schedule, P=4 and 8 recursive doubling.
func TestFanOutSlotRule(t *testing.T) {
	const calls = 200
	poisonIdx, poisonVal := int32(-1), math.Float64frombits(0x7ff8_dead_beef_0001)
	for _, wire := range []cluster.Wire{cluster.WireF64, cluster.WireF32} {
		for _, p := range []int{3, 5, 4, 8} {
			wire, p := wire, p
			t.Run(fmt.Sprintf("wire=%s/P=%d", wire, p), func(t *testing.T) {
				c := cluster.NewWire(p, netmodel.PizDaint(), wire)
				err := c.Run(func(cm *cluster.Comm) error {
					rng := rand.New(rand.NewSource(int64(31 + cm.Rank())))
					pause := func() {
						if d := rng.Intn(4); d > 0 {
							time.Sleep(time.Duration(d*d) * 10 * time.Microsecond)
						}
					}
					var out FanOut
					var result []Chunk
					// The first mismatch is kept, not returned: a rank that
					// left early would strand the others in the collective.
					var mismatch error
					for call := 0; call < calls; call++ {
						idx, val := fanOutPayload(cm.Rank(), call)
						s := out.Next()
						s.Indexes, s.Values = s.Indexes[:0], s.Values[:0]
						for range idx {
							s.Indexes = append(s.Indexes, poisonIdx)
							s.Values = append(s.Values, poisonVal)
						}
						s.Chunk(cm) // poisons the f32 copy too
						pause()
						copy(s.Indexes, idx)
						copy(s.Values, val)
						result = AllgathervInto(cm, s.Chunk(cm), result)
						pause()
						if mismatch == nil {
							mismatch = checkGathered(result, call, wire)
						}
					}
					return mismatch
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// checkGathered compares every origin's gathered chunk of one call with
// fanOutPayload bit for bit.
func checkGathered(result []Chunk, call int, wire cluster.Wire) error {
	for origin, ch := range result {
		wantIdx, wantVal := fanOutPayload(origin, call)
		if ch.Origin != origin || len(ch.Aux) != len(wantIdx) || ch.NumValues() != len(wantVal) {
			return fmt.Errorf("call %d: chunk %d has origin %d and %d/%d entries, want origin %d and %d",
				call, origin, ch.Origin, len(ch.Aux), ch.NumValues(), origin, len(wantIdx))
		}
		vals := ch.AppendValues(nil)
		for i := range wantIdx {
			want := wantVal[i]
			if wire == cluster.WireF32 {
				want = float64(float32(want))
			}
			if ch.Aux[i] != wantIdx[i] || math.Float64bits(vals[i]) != math.Float64bits(want) {
				return fmt.Errorf("call %d: origin %d entry %d is (%d, %v), want (%d, %v)",
					call, origin, i, ch.Aux[i], vals[i], wantIdx[i], want)
			}
		}
	}
	return nil
}
