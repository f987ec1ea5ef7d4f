package nn

import (
	"repro/internal/tensor"
)

// VGGNarrow is the image-classification workload: a narrowed VGG-style
// stack of three 3×3 conv + pool stages and a two-layer classifier head,
// standing in for VGG-16 on Cifar-10 (see DESIGN.md for the
// substitution rationale). Input rows pack 3×32×32 images.
type VGGNarrow struct {
	params
	conv1, conv2, conv3 *Conv2D
	r1, r2, r3, r4      *ReLU
	pool1, pool2, pool3 *MaxPool2
	fc1, fc2            *Linear
	Classes             int
	dlogits             *tensor.Mat // loss gradient scratch
}

// VGGNarrowSize returns the parameter count for the given channel widths.
func VGGNarrowSize(c1, c2, c3, hidden, classes int) int {
	return Conv2DSize(3, c1) + Conv2DSize(c1, c2) + Conv2DSize(c2, c3) +
		LinearSize(c3*4*4, hidden) + LinearSize(hidden, classes)
}

// NewVGGNarrow constructs the model with the given widths.
func NewVGGNarrow(seed int64, c1, c2, c3, hidden, classes int) *VGGNarrow {
	m := &VGGNarrow{
		conv1: &Conv2D{InC: 3, OutC: c1, H: 32, W: 32},
		conv2: &Conv2D{InC: c1, OutC: c2, H: 16, W: 16},
		conv3: &Conv2D{InC: c2, OutC: c3, H: 8, W: 8},
		r1:    &ReLU{}, r2: &ReLU{}, r3: &ReLU{}, r4: &ReLU{},
		pool1:   NewMaxPool2(c1, 32, 32),
		pool2:   NewMaxPool2(c2, 16, 16),
		pool3:   NewMaxPool2(c3, 8, 8),
		fc1:     &Linear{In: c3 * 4 * 4, Out: hidden},
		fc2:     &Linear{In: hidden, Out: classes},
		Classes: classes,
	}
	m.params = newParams(VGGNarrowSize(c1, c2, c3, hidden, classes), tensor.RNG(seed),
		m.conv1, m.conv2, m.conv3, m.fc1, m.fc2)
	return m
}

func (m *VGGNarrow) forward(x *tensor.Mat) *tensor.Mat {
	h := m.pool1.Forward(m.r1.Forward(m.conv1.Forward(x)))
	h = m.pool2.Forward(m.r2.Forward(m.conv2.Forward(h)))
	h = m.pool3.Forward(m.r3.Forward(m.conv3.Forward(h)))
	h = m.r4.Forward(m.fc1.Forward(h))
	return m.fc2.Forward(h)
}

// Loss runs forward and backward on a batch, accumulating gradients into
// the store, and returns the mean loss and correct-prediction count.
func (m *VGGNarrow) Loss(x *tensor.Mat, y []int) (float64, int) {
	logits := m.forward(x)
	loss, correct, dlogits := SoftmaxCrossEntropy(logits, y, m.dlogits)
	m.dlogits = dlogits
	d := m.fc1.Backward(m.r4.Backward(m.fc2.Backward(dlogits)))
	d = m.conv3.Backward(m.r3.Backward(m.pool3.Backward(d)))
	d = m.conv2.Backward(m.r2.Backward(m.pool2.Backward(d)))
	// The input images need no gradient: conv1 skips its dx half.
	m.conv1.backwardParams(m.r1.Backward(m.pool1.Backward(d)))
	return loss, correct
}

// Predict returns argmax classes for a batch (no gradient side effects
// beyond layer caches).
func (m *VGGNarrow) Predict(x *tensor.Mat) []int {
	logits := m.forward(x)
	out := make([]int, x.Rows)
	for i := range out {
		row := logits.Row(i)
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		out[i] = best
	}
	return out
}

// LSTMClassifier is the speech-recognition workload: a single-layer LSTM
// over feature-frame sequences with a linear decoder on the final hidden
// state, standing in for the AN4 LSTM (the WER-like metric is the
// sequence error rate).
type LSTMClassifier struct {
	params
	lstm    *LSTM
	dec     *Linear
	Classes int
	SeqLen  int
	dlogits *tensor.Mat // loss gradient scratch
}

// LSTMClassifierSize returns the parameter count.
func LSTMClassifierSize(in, hidden, classes int) int {
	return LSTMSize(in, hidden) + LinearSize(hidden, classes)
}

// NewLSTMClassifier constructs the model.
func NewLSTMClassifier(seed int64, in, hidden, classes, seqLen int) *LSTMClassifier {
	m := &LSTMClassifier{
		lstm:    &LSTM{In: in, Hidden: hidden},
		dec:     &Linear{In: hidden, Out: classes},
		Classes: classes,
		SeqLen:  seqLen,
	}
	m.params = newParams(LSTMClassifierSize(in, hidden, classes), tensor.RNG(seed), m.lstm, m.dec)
	return m
}

// Loss runs forward/BPTT on a batch of sequences.
func (m *LSTMClassifier) Loss(seq []*tensor.Mat, y []int) (float64, int) {
	h := m.lstm.Forward(seq)
	logits := m.dec.Forward(h)
	loss, correct, dlogits := SoftmaxCrossEntropy(logits, y, m.dlogits)
	m.dlogits = dlogits
	m.lstm.Backward(m.dec.Backward(dlogits))
	return loss, correct
}

// Predict returns argmax classes for a batch of sequences.
func (m *LSTMClassifier) Predict(seq []*tensor.Mat) []int {
	h := m.lstm.Forward(seq)
	logits := m.dec.Forward(h)
	out := make([]int, h.Rows)
	for i := range out {
		row := logits.Row(i)
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		out[i] = best
	}
	return out
}

// TinyBERT is the language-modelling workload: token+position embeddings,
// a stack of pre-norm transformer encoder blocks, a final layer norm and
// a masked-LM head, standing in for BERT pre-training on Wikipedia.
type TinyBERT struct {
	params
	emb    *Embedding
	blocks []*EncoderBlock
	lnF    *LayerNorm
	head   *Linear
	Vocab  int
	Dim    int
	SeqLen int

	// per-Loss scratch (masked-row gather/scatter buffers, loss gradient)
	rows     []int
	targets  []int
	gathered *tensor.Mat
	dh       *tensor.Mat
	dlogits  *tensor.Mat
}

// TinyBERTSize returns the parameter count for the configuration.
func TinyBERTSize(vocab, dim, heads, layers, seqLen, ffDim int) int {
	n := EmbeddingSize(vocab, dim, seqLen) + layers*EncoderBlockSize(dim, ffDim) +
		LayerNormSize(dim) + LinearSize(dim, vocab)
	_ = heads
	return n
}

// NewTinyBERT constructs the model.
func NewTinyBERT(seed int64, vocab, dim, heads, layers, seqLen, ffDim int) *TinyBERT {
	m := &TinyBERT{
		emb:    &Embedding{Vocab: vocab, Dim: dim, MaxLen: seqLen},
		lnF:    &LayerNorm{Dim: dim},
		head:   &Linear{In: dim, Out: vocab},
		Vocab:  vocab,
		Dim:    dim,
		SeqLen: seqLen,
	}
	order := []paramLayer{m.emb}
	for l := 0; l < layers; l++ {
		blk := newEncoderBlock(dim, heads, seqLen, ffDim)
		m.blocks = append(m.blocks, blk)
		order = append(order, blk)
	}
	order = append(order, m.lnF, m.head)
	m.params = newParams(TinyBERTSize(vocab, dim, heads, layers, seqLen, ffDim), tensor.RNG(seed), order...)
	return m
}

// Loss runs the masked-LM objective: ids are the (masked) input token
// sequences; maskedPos/maskedTgt give, per sequence, the masked
// positions and their original tokens. Returns mean loss over masked
// positions and the number predicted correctly.
func (m *TinyBERT) Loss(ids [][]int, maskedPos [][]int, maskedTgt [][]int) (float64, int) {
	b, s := len(ids), m.SeqLen
	h := m.emb.Forward(ids)
	for _, blk := range m.blocks {
		h = blk.Forward(h)
	}
	h = m.lnF.Forward(h)

	// Gather masked rows into a compact matrix for the head.
	rows := m.rows[:0]
	targets := m.targets[:0]
	for bi := 0; bi < b; bi++ {
		for mi, pos := range maskedPos[bi] {
			rows = append(rows, bi*s+pos)
			targets = append(targets, maskedTgt[bi][mi])
		}
	}
	m.rows, m.targets = rows, targets
	m.gathered = tensor.EnsureMatUninit(m.gathered, len(rows), m.Dim)
	gathered := m.gathered
	for i, ri := range rows {
		copy(gathered.Row(i), h.Row(ri))
	}
	logits := m.head.Forward(gathered)
	loss, correct, dlogits := SoftmaxCrossEntropy(logits, targets, m.dlogits)
	m.dlogits = dlogits
	dGathered := m.head.Backward(dlogits)

	// Scatter the masked-row gradients back into the sequence gradient.
	m.dh = tensor.EnsureMat(m.dh, h.Rows, m.Dim)
	dh := m.dh
	for i, ri := range rows {
		copy(dh.Row(ri), dGathered.Row(i))
	}
	dh = m.lnF.Backward(dh)
	for l := len(m.blocks) - 1; l >= 0; l-- {
		dh = m.blocks[l].Backward(dh)
	}
	m.emb.Backward(dh)
	return loss, correct
}
