package nn

import (
	"fmt"
	"testing"

	"repro/internal/tensor"
)

// raceEnabled is set by race_test.go in a -race build.
var raceEnabled bool

// TestLossAllocatesNothing pins what one training step of each
// workload's model allocates once its scratch is warm: nothing. Every
// loop body is bound once (tensor.Body) and the kernels' nonzero lists
// live on the stack. The blocks run inline at one kernel worker and
// through the helpers' queue at two.
func TestLossAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	r := tensor.RNG(2)
	x := tensor.NewMat(4, 3*32*32)
	tensor.RandN(r, x.Data, 1)
	vgg := NewVGGNarrow(1, 16, 32, 64, 128, 10)
	seq := make([]*tensor.Mat, 20)
	for i := range seq {
		seq[i] = tensor.NewMat(4, 40)
		tensor.RandN(r, seq[i].Data, 1)
	}
	lstm := NewLSTMClassifier(1, 40, 128, 12, 20)
	ids := make([][]int, 4)
	for i := range ids {
		ids[i] = make([]int, 32)
		for j := range ids[i] {
			ids[i][j] = r.Intn(1000)
		}
	}
	pos, tgt := [][]int{{1, 5}, {0}, {7, 8, 31}, {2}}, [][]int{{3, 9}, {4}, {999, 0, 17}, {5}}
	bert := NewTinyBERT(1, 1000, 64, 4, 2, 32, 256)
	y := []int{1, 4, 7, 9}
	models := []struct {
		name  string
		store *Store
		loss  func()
	}{
		{"VGG", vgg.Store(), func() { vgg.Loss(x, y) }},
		{"LSTM", lstm.Store(), func() { lstm.Loss(seq, y) }},
		{"BERT", bert.Store(), func() { bert.Loss(ids, pos, tgt) }},
	}
	for _, w := range []int{1, 2} {
		for _, m := range models {
			t.Run(fmt.Sprintf("%s/workers=%d", m.name, w), func(t *testing.T) {
				tensor.SetWorkers(w)
				defer tensor.SetWorkers(0)
				step := func() {
					m.store.ZeroGrads()
					m.loss()
				}
				step()
				if got := testing.AllocsPerRun(5, step); got != 0 {
					t.Fatalf("%s.Loss allocates %v objects per call after warm-up at %d workers, want 0", m.name, got, w)
				}
			})
		}
	}
}
