package nn

import (
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// LSTM is a single-layer LSTM unrolled over fixed-length sequences with
// full backpropagation through time. Gate order in the packed weight
// matrices is [input, forget, cell, output]. Per-timestep caches and
// the BPTT work buffers are per-instance scratch reused across steps;
// the per-batch-row cell loops run on the tensor worker pool (each
// batch row is owned by one worker) while the bias-gradient
// accumulation stays serial, keeping results bit-identical at any
// worker count.
type LSTM struct {
	In, Hidden int
	wx, gwx    []float64 // In × 4H
	wh, gwh    []float64 // H × 4H
	b, gb      []float64 // 4H

	wxMat, whMat   *tensor.Mat
	gwxMat, gwhMat *tensor.Mat

	// caches per timestep for BPTT
	steps  int
	batch  int
	xs     []*tensor.Mat // inputs
	gates  []*tensor.Mat // pre-activation → activated gates (B × 4H)
	cells  []*tensor.Mat // cell states (B × H), index t+1; cells[0] is zero
	hidden []*tensor.Mat // hidden states, same indexing

	// BPTT scratch
	dpre, dh, dhPrev, dc *tensor.Mat
	dxs                  []*tensor.Mat
}

// LSTMSize returns the parameter count for the given dimensions.
func LSTMSize(in, hidden int) int { return in*4*hidden + hidden*4*hidden + 4*hidden }

func (l *LSTM) bind(s *Store) {
	in, h4 := l.In, 4*l.Hidden
	l.wx, l.gwx = s.Take(in * h4)
	l.wh, l.gwh = s.Take(l.Hidden * h4)
	l.b, l.gb = s.Take(h4)
	l.wxMat = view(l.wxMat, in, h4, l.wx)
	l.whMat = view(l.whMat, l.Hidden, h4, l.wh)
	l.gwxMat = view(l.gwxMat, in, h4, l.gwx)
	l.gwhMat = view(l.gwhMat, l.Hidden, h4, l.gwh)
}

// init draws Xavier-uniform weights and sets the customary forget-gate
// bias of 1.
func (l *LSTM) init(r *rand.Rand) {
	tensor.XavierInit(r, l.wx, l.In, 4*l.Hidden)
	tensor.XavierInit(r, l.wh, l.Hidden, 4*l.Hidden)
	for j := l.Hidden; j < 2*l.Hidden; j++ {
		l.b[j] = 1 // forget gate bias
	}
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// ensureMats grows a per-timestep cache slice to n entries of shape
// rows×cols, reusing existing matrices. Entries come back uninitialized
// (every consumer fully overwrites them); callers needing zeros — the
// t=0 state matrices — clear them explicitly.
func ensureMats(ms []*tensor.Mat, n, rows, cols int) []*tensor.Mat {
	if cap(ms) < n {
		grown := make([]*tensor.Mat, n)
		copy(grown, ms[:cap(ms)])
		ms = grown
	}
	ms = ms[:n]
	for i := range ms {
		ms[i] = tensor.EnsureMatUninit(ms[i], rows, cols)
	}
	return ms
}

// Forward consumes a sequence of T input matrices (each B×In) and
// returns the final hidden state (B×H).
func (l *LSTM) Forward(seq []*tensor.Mat) *tensor.Mat {
	h := l.Hidden
	l.steps = len(seq)
	l.batch = seq[0].Rows
	l.xs = seq
	l.gates = ensureMats(l.gates, l.steps, l.batch, 4*h)
	l.cells = ensureMats(l.cells, l.steps+1, l.batch, h)
	l.hidden = ensureMats(l.hidden, l.steps+1, l.batch, h)
	clear(l.cells[0].Data)
	clear(l.hidden[0].Data)

	for t := 0; t < l.steps; t++ {
		pre := l.gates[t]
		tensor.MatMul(seq[t], l.wxMat, pre)
		tensor.Gemm(l.hidden[t], l.whMat, pre)
		cPrevM, cNew, hNew := l.cells[t], l.cells[t+1], l.hidden[t+1]
		tensor.ParallelFor(l.batch, 1, func(blo, bhi int) {
			for bi := blo; bi < bhi; bi++ {
				row := pre.Row(bi)
				cPrev := cPrevM.Row(bi)
				cRow := cNew.Row(bi)
				hRow := hNew.Row(bi)
				for j := 0; j < h; j++ {
					i := sigmoid(row[j] + l.b[j])
					f := sigmoid(row[h+j] + l.b[h+j])
					g := math.Tanh(row[2*h+j] + l.b[2*h+j])
					o := sigmoid(row[3*h+j] + l.b[3*h+j])
					// Store activated gates in place for the backward pass.
					row[j], row[h+j], row[2*h+j], row[3*h+j] = i, f, g, o
					cRow[j] = f*cPrev[j] + i*g
					hRow[j] = o * math.Tanh(cRow[j])
				}
			}
		})
	}
	return l.hidden[l.steps]
}

// Backward takes the gradient of the loss w.r.t. the final hidden state
// and runs BPTT, accumulating all weight gradients. It returns the
// per-timestep input gradients (useful when the LSTM is stacked); they
// alias per-instance scratch valid until the next Backward call.
func (l *LSTM) Backward(dhFinal *tensor.Mat) []*tensor.Mat {
	h := l.Hidden
	l.dh = tensor.EnsureMatUninit(l.dh, l.batch, h)
	copy(l.dh.Data, dhFinal.Data)
	l.dhPrev = tensor.EnsureMatUninit(l.dhPrev, l.batch, h)
	l.dc = tensor.EnsureMat(l.dc, l.batch, h)
	l.dpre = tensor.EnsureMatUninit(l.dpre, l.batch, 4*h)
	l.dxs = ensureMats(l.dxs, l.steps, l.batch, l.In)
	dh, dc, dpre := l.dh, l.dc, l.dpre

	for t := l.steps - 1; t >= 0; t-- {
		gatesM, cPrevM, cCurM := l.gates[t], l.cells[t], l.cells[t+1]
		tensor.ParallelFor(l.batch, 1, func(blo, bhi int) {
			for bi := blo; bi < bhi; bi++ {
				gates := gatesM.Row(bi)
				cPrev := cPrevM.Row(bi)
				cCur := cCurM.Row(bi)
				dhRow := dh.Row(bi)
				dcRow := dc.Row(bi)
				dpreRow := dpre.Row(bi)
				for j := 0; j < h; j++ {
					i, f, g, o := gates[j], gates[h+j], gates[2*h+j], gates[3*h+j]
					tc := math.Tanh(cCur[j])
					dcTot := dcRow[j] + dhRow[j]*o*(1-tc*tc)
					dpreRow[j] = dcTot * g * i * (1 - i)          // input gate
					dpreRow[h+j] = dcTot * cPrev[j] * f * (1 - f) // forget gate
					dpreRow[2*h+j] = dcTot * i * (1 - g*g)        // cell candidate
					dpreRow[3*h+j] = dhRow[j] * tc * o * (1 - o)  // output gate
					dcRow[j] = dcTot * f                          // flows to t-1
				}
			}
		})
		// Bias gradient: serial batch-major accumulation, the same
		// order at every worker count.
		for bi := 0; bi < l.batch; bi++ {
			dpreRow := dpre.Row(bi)
			for j := 0; j < 4*h; j++ {
				l.gb[j] += dpreRow[j]
			}
		}
		tensor.GemmTA(l.xs[t], dpre, l.gwxMat)
		tensor.GemmTA(l.hidden[t], dpre, l.gwhMat)
		tensor.MatMulTB(dpre, l.wxMat, l.dxs[t])
		tensor.MatMulTB(dpre, l.whMat, l.dhPrev)
		dh, l.dhPrev = l.dhPrev, dh
	}
	l.dh = dh // record the final ping-pong orientation for reuse
	return l.dxs
}
