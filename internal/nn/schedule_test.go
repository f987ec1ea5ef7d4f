package nn

import (
	"sort"
	"testing"
)

// scheduleModels builds one instance of each workload model and returns
// (name, schedule, total parameter count) triples.
func scheduleModels() []struct {
	name  string
	sched []LayerCost
	n     int
} {
	vgg := NewVGGNarrow(1, 16, 32, 64, 128, 10)
	lstm := NewLSTMClassifier(1, 40, 128, 12, 20)
	bert := NewTinyBERT(1, 1000, 64, 4, 2, 32, 256)
	return []struct {
		name  string
		sched []LayerCost
		n     int
	}{
		{"VGG", vgg.BackwardSchedule(), len(vgg.Store().Params)},
		{"LSTM", lstm.BackwardSchedule(), len(lstm.Store().Params)},
		{"BERT", bert.BackwardSchedule(), len(bert.Store().Params)},
	}
}

// TestBackwardScheduleTilesParams: every schedule's parameter blocks
// tile the model's Store exactly — no gaps, no overlaps — so the overlap
// engine retires every bucket.
func TestBackwardScheduleTilesParams(t *testing.T) {
	for _, m := range scheduleModels() {
		t.Run(m.name, func(t *testing.T) {
			sched := append([]LayerCost(nil), m.sched...)
			sort.Slice(sched, func(a, b int) bool { return sched[a].Off < sched[b].Off })
			off := 0
			for _, lc := range sched {
				if lc.Off != off {
					t.Fatalf("%s: block at %d, expected %d (gap or overlap)", lc.Name, lc.Off, off)
				}
				if lc.Len <= 0 {
					t.Fatalf("%s: non-positive block length %d", lc.Name, lc.Len)
				}
				off += lc.Len
			}
			if off != m.n {
				t.Fatalf("schedule covers %d of %d params", off, m.n)
			}
		})
	}
}

// TestBackwardScheduleReverseOrder: entries walk the flat vector from
// the tail to the head — backward produces the last-constructed layers
// first — with positive costs throughout.
func TestBackwardScheduleReverseOrder(t *testing.T) {
	for _, m := range scheduleModels() {
		t.Run(m.name, func(t *testing.T) {
			if len(m.sched) < 2 {
				t.Fatalf("degenerate schedule of %d entries", len(m.sched))
			}
			for i, lc := range m.sched {
				if lc.Flops <= 0 {
					t.Fatalf("%s: non-positive backward cost", lc.Name)
				}
				if i > 0 && lc.Off >= m.sched[i-1].Off {
					t.Fatalf("%s at offset %d does not descend from %s at %d",
						lc.Name, lc.Off, m.sched[i-1].Name, m.sched[i-1].Off)
				}
			}
			if last := m.sched[len(m.sched)-1]; last.Off != 0 {
				t.Fatalf("backward ends at offset %d, want 0", last.Off)
			}
		})
	}
}
