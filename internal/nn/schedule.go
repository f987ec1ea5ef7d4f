package nn

import "fmt"

// Backward cost schedules: every model exposes the per-layer structure
// of its backward pass so the training loop can simulate bucket-by-
// bucket gradient/communication overlap (the DenseOvlp pipeline) from
// first principles instead of discounting communication post hoc.
//
// A schedule lists the model's parameterized layers in REVERSE
// execution order — the order the backward pass produces their
// gradients — together with each layer's parameter block in the flat
// Store vector and a relative backward cost. Costs count the dominant
// GEMM terms of the layer's backward (dW and dx products; element-wise
// epilogues are negligible next to them) per sample; only the ratios
// matter, since the trainer rescales the whole schedule to the
// workload's modeled backward seconds. Parameter-free layers (ReLU,
// pooling, softmax) are folded into the parameterized layer whose
// backward immediately precedes them in the flat-vector order, so the
// blocks of a schedule tile the model's Store exactly.

// LayerCost is one backward-schedule entry.
type LayerCost struct {
	// Name identifies the layer for traces and reports.
	Name string
	// Off and Len locate the entry's parameter block in the flat
	// parameter/gradient vectors.
	Off, Len int
	// Flops is the entry's relative backward cost (arbitrary units,
	// per sample).
	Flops float64
}

// linearBackFlops counts the two GEMMs of a Linear backward
// (dW = xᵀ·dy and dx = dy·Wᵀ) per sample.
func linearBackFlops(in, out int) float64 { return 4 * float64(in) * float64(out) }

// convBackFlops counts the two im2col GEMMs of a Conv2D backward per
// sample: each is 2·(H·W)·(InC·9)·OutC multiply-adds.
func convBackFlops(c *Conv2D) float64 {
	return 4 * float64(c.H*c.W) * float64(c.InC*9) * float64(c.OutC)
}

// BackwardSchedule returns the VGG stack's backward schedule: classifier
// head first, convolutions last — so the earliest-produced gradients sit
// at the END of the flat vector, exactly the structure DDP-style bucket
// pipelining exploits.
func (m *VGGNarrow) BackwardSchedule() []LayerCost {
	c1 := Conv2DSize(m.conv1.InC, m.conv1.OutC)
	c2 := Conv2DSize(m.conv2.InC, m.conv2.OutC)
	c3 := Conv2DSize(m.conv3.InC, m.conv3.OutC)
	f1 := LinearSize(m.fc1.In, m.fc1.Out)
	f2 := LinearSize(m.fc2.In, m.fc2.Out)
	return []LayerCost{
		{Name: "fc2", Off: c1 + c2 + c3 + f1, Len: f2, Flops: linearBackFlops(m.fc2.In, m.fc2.Out)},
		{Name: "fc1", Off: c1 + c2 + c3, Len: f1, Flops: linearBackFlops(m.fc1.In, m.fc1.Out)},
		{Name: "conv3", Off: c1 + c2, Len: c3, Flops: convBackFlops(m.conv3)},
		{Name: "conv2", Off: c1, Len: c2, Flops: convBackFlops(m.conv2)},
		{Name: "conv1", Off: 0, Len: c1, Flops: convBackFlops(m.conv1)},
	}
}

// lstmStack is the depth of the paper-scale speech model: the AN4
// network is a stacked LSTM, and a stack's backward retires its layers
// top-down, each layer's weight gradients complete once its own BPTT
// sweep finishes. The substrate binds a single cell, so the schedule
// models the paper model's structure by splitting the recurrent block
// into this many virtual layers of equal cost, completing in reverse
// (top-first) flat-vector order. A single monolithic entry would make
// every recurrent gradient ready only at the very end of backward —
// accurate for one cell, but not for the stacked model whose costs
// ComputeSeconds reproduces, and it would deny the DenseOvlp pipeline
// any overlap on this workload.
const lstmStack = 2

// BackwardSchedule returns the classifier's backward schedule: the
// decoder head first, then the recurrent stack top-down (see lstmStack).
// BPTT dominates: T timesteps, each with the input and recurrent GEMM
// pairs.
func (m *LSTMClassifier) BackwardSchedule() []LayerCost {
	ln := LSTMSize(m.lstm.In, m.lstm.Hidden)
	lstmFlops := float64(m.SeqLen) * (linearBackFlops(m.lstm.In, 4*m.lstm.Hidden) +
		linearBackFlops(m.lstm.Hidden, 4*m.lstm.Hidden))
	sched := []LayerCost{
		{Name: "decoder", Off: ln, Len: LinearSize(m.dec.In, m.dec.Out),
			Flops: linearBackFlops(m.dec.In, m.dec.Out)},
	}
	for l := lstmStack - 1; l >= 0; l-- {
		lo, hi := l*ln/lstmStack, (l+1)*ln/lstmStack
		sched = append(sched, LayerCost{
			Name: fmt.Sprintf("lstm%d", l), Off: lo, Len: hi - lo,
			Flops: lstmFlops / lstmStack,
		})
	}
	return sched
}

// BackwardSchedule returns the transformer's backward schedule: MLM
// head, final norm, encoder blocks top-down, embeddings last. The
// embedding block is large (vocab·dim parameters) but its backward is a
// cheap scatter-add — the tail of the backward pass produces the HEAD
// of the flat vector almost for free, which is why bucket pipelines
// always leave some exposed communication on embedding-heavy models.
func (m *TinyBERT) BackwardSchedule() []LayerCost {
	s, d := m.SeqLen, m.Dim
	ffDim := m.blocks[0].ff1.Out
	embLen := EmbeddingSize(m.Vocab, d, s)
	blockLen := EncoderBlockSize(d, ffDim)
	// Per token: four dim×dim projections, the S×S attention score and
	// context products, two layer norms and the two FFN GEMMs.
	blockFlops := float64(s) * (4*linearBackFlops(d, d) + 8*float64(s)*float64(d) +
		16*float64(d) + linearBackFlops(d, ffDim) + linearBackFlops(ffDim, d))
	// The MLM head runs on the ~15% masked rows only.
	const maskFrac = 0.15
	headOff := embLen + len(m.blocks)*blockLen + LayerNormSize(d)
	sched := []LayerCost{
		{Name: "head", Off: headOff, Len: LinearSize(d, m.Vocab),
			Flops: maskFrac * float64(s) * linearBackFlops(d, m.Vocab)},
		{Name: "lnF", Off: headOff - LayerNormSize(d), Len: LayerNormSize(d),
			Flops: 8 * float64(s) * float64(d)},
	}
	for l := len(m.blocks) - 1; l >= 0; l-- {
		sched = append(sched, LayerCost{
			Name: fmt.Sprintf("block%d", l), Off: embLen + l*blockLen, Len: blockLen,
			Flops: blockFlops,
		})
	}
	sched = append(sched, LayerCost{
		Name: "embedding", Off: 0, Len: embLen,
		Flops: float64(s) * float64(d), // scatter-add of dL/dh rows
	})
	return sched
}
