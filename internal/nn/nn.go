// Package nn is the deep-learning substrate: a small pure-Go neural
// network library with manual backpropagation, providing the three
// workload families of the paper's evaluation (a VGG-style convolutional
// classifier, an LSTM sequence classifier, and a BERT-style masked
// language model). Every model exposes its parameters and gradients as
// single flat []float64 vectors, which is exactly the interface the
// gradient allreduce algorithms operate on.
//
// All layers implement exact gradients; the test suite verifies each one
// against central finite differences.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Store owns the flat parameter and gradient vectors of a model. Layers
// bind sub-slices of it, so no gather/scatter copies are needed per
// iteration, and a model can be re-bound to another Store of the same
// size (Bind) to compute on parameters it does not own.
type Store struct {
	Params []float64
	Grads  []float64
	off    int
}

// NewStore allocates a store for exactly n parameters.
func NewStore(n int) *Store {
	return &Store{Params: make([]float64, n), Grads: make([]float64, n)}
}

// Take binds the next n parameters and returns the (param, grad) slice
// views. It panics if the store is exhausted — that is a sizing bug in
// the model constructor.
func (s *Store) Take(n int) (p, g []float64) {
	if s.off+n > len(s.Params) {
		panic(fmt.Sprintf("nn: store exhausted: need %d at offset %d of %d", n, s.off, len(s.Params)))
	}
	p = s.Params[s.off : s.off+n]
	g = s.Grads[s.off : s.off+n]
	s.off += n
	return p, g
}

// Full reports whether every allocated parameter has been bound; model
// constructors assert this.
func (s *Store) Full() bool { return s.off == len(s.Params) }

// ZeroGrads clears the gradient vector before a new batch.
func (s *Store) ZeroGrads() {
	clear(s.Grads)
}

// paramLayer is a layer that holds a block of a Store.
type paramLayer interface {
	// bind points the layer's parameter and gradient views, and the
	// matrices wrapping them, at the store's next block.
	bind(s *Store)
	// init draws the layer's initial parameters.
	init(r *rand.Rand)
}

// params is what a model holds of its parameters: the Store it is
// bound to and its parameter layers in store order, the one place that
// order is written down.
type params struct {
	store  *Store
	layers []paramLayer
}

// newParams binds layers to a new store of n parameters and draws their
// initial parameters from r, in store order.
func newParams(n int, r *rand.Rand, layers ...paramLayer) params {
	p := params{layers: layers}
	p.Bind(NewStore(n))
	for _, l := range layers {
		l.init(r)
	}
	return p
}

// Store exposes the flat parameter/gradient vectors the model is bound
// to.
func (p *params) Store() *Store { return p.store }

// Bind re-points every layer's parameter and gradient views, and the
// matrices wrapping them, at s, which must have the model's size: the
// model then computes on, and accumulates gradients into, s. Once the
// model has been bound for the first time it allocates nothing.
func (p *params) Bind(s *Store) {
	s.off = 0
	for _, l := range p.layers {
		l.bind(s)
	}
	if !s.Full() {
		panic(fmt.Sprintf("nn: layers bind %d of the store's %d parameters", s.off, len(s.Params)))
	}
	p.store = s
}

// view returns m re-pointed at data as a rows×cols matrix, allocating
// it only on first use.
func view(m *tensor.Mat, rows, cols int, data []float64) *tensor.Mat {
	if m == nil {
		return tensor.NewMatFrom(rows, cols, data)
	}
	m.Data = data
	return m
}

// Linear is a fully connected layer: y = x·W + b with x (B×in), W
// (in×out), b (out). Activation and gradient outputs live in
// per-instance scratch reused across steps: a returned matrix stays
// valid until the instance's next Forward (resp. Backward) call.
type Linear struct {
	In, Out     int
	w, gw       []float64
	b, gb       []float64
	wMat, gwMat *tensor.Mat
	xCache      *tensor.Mat
	y, dx       *tensor.Mat
}

func (l *Linear) bind(s *Store) {
	l.w, l.gw = s.Take(l.In * l.Out)
	l.b, l.gb = s.Take(l.Out)
	l.wMat = view(l.wMat, l.In, l.Out, l.w)
	l.gwMat = view(l.gwMat, l.In, l.Out, l.gw)
}

// init draws W Xavier-uniform; b starts at zero.
func (l *Linear) init(r *rand.Rand) { tensor.XavierInit(r, l.w, l.In, l.Out) }

// LinearSize returns the parameter count of a Linear layer.
func LinearSize(in, out int) int { return in*out + out }

// Forward computes y = x·W + b with the fused bias+GEMM kernel.
func (l *Linear) Forward(x *tensor.Mat) *tensor.Mat {
	if x.Cols != l.In {
		panic(fmt.Sprintf("nn: linear input %d != %d", x.Cols, l.In))
	}
	l.xCache = x
	l.y = tensor.EnsureMatUninit(l.y, x.Rows, l.Out)
	tensor.MatMulBias(x, l.wMat, l.b, l.y)
	return l.y
}

// Backward accumulates dW, db and returns dx.
func (l *Linear) Backward(dy *tensor.Mat) *tensor.Mat {
	tensor.GemmTA(l.xCache, dy, l.gwMat)
	for i := 0; i < dy.Rows; i++ {
		row := dy.Row(i)
		for j := range row {
			l.gb[j] += row[j]
		}
	}
	l.dx = tensor.EnsureMatUninit(l.dx, dy.Rows, l.In)
	tensor.MatMulTB(dy, l.wMat, l.dx)
	return l.dx
}

// ReLU applies max(0, x) element-wise.
type ReLU struct {
	mask  []bool
	y, dx *tensor.Mat
}

// Forward computes the activation, caching the pass-through mask.
func (a *ReLU) Forward(x *tensor.Mat) *tensor.Mat {
	a.y = tensor.EnsureMatUninit(a.y, x.Rows, x.Cols)
	if cap(a.mask) < len(x.Data) {
		a.mask = make([]bool, len(x.Data))
	}
	a.mask = a.mask[:len(x.Data)]
	mask, y := a.mask, a.y.Data
	tensor.ParallelFor(len(x.Data), 1<<14, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if v := x.Data[i]; v > 0 {
				y[i] = v
				mask[i] = true
			} else {
				y[i] = 0
				mask[i] = false
			}
		}
	})
	return a.y
}

// Backward gates the upstream gradient by the cached mask.
func (a *ReLU) Backward(dy *tensor.Mat) *tensor.Mat {
	a.dx = tensor.EnsureMatUninit(a.dx, dy.Rows, dy.Cols)
	mask, dx := a.mask, a.dx.Data
	tensor.ParallelFor(len(dy.Data), 1<<14, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if mask[i] {
				dx[i] = dy.Data[i]
			} else {
				dx[i] = 0
			}
		}
	})
	return a.dx
}

// SoftmaxCrossEntropy computes mean cross-entropy over a batch of logits
// (B×C) against integer targets, returning the loss, the number of
// correct argmax predictions, and the gradient w.r.t. the logits. The
// gradient is written into dst, a caller-retained matrix resized to B×C
// (nil allocates one), and returned.
func SoftmaxCrossEntropy(logits *tensor.Mat, targets []int, dst *tensor.Mat) (loss float64, correct int, dlogits *tensor.Mat) {
	if len(targets) != logits.Rows {
		panic("nn: targets length mismatch")
	}
	b := logits.Rows
	dlogits = tensor.EnsureMatUninit(dst, b, logits.Cols)
	for i := 0; i < b; i++ {
		row := logits.Row(i)
		maxV := row[0]
		argmax := 0
		for j, v := range row {
			if v > maxV {
				maxV, argmax = v, j
			}
		}
		if argmax == targets[i] {
			correct++
		}
		var sum float64
		drow := dlogits.Row(i)
		for j, v := range row {
			e := math.Exp(v - maxV)
			drow[j] = e
			sum += e
		}
		loss += -math.Log(drow[targets[i]]/sum + 1e-300)
		// Gradient of the batch-mean loss: (softmax − onehot)/B.
		for j := range drow {
			drow[j] = drow[j] / sum / float64(b)
		}
		drow[targets[i]] -= 1.0 / float64(b)
	}
	return loss / float64(b), correct, dlogits
}
