package nn

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/tensor"
)

// numericalGrad computes the central finite-difference gradient of
// loss() w.r.t. every entry of params.
func numericalGrad(params []float64, loss func() float64) []float64 {
	const eps = 1e-6
	grad := make([]float64, len(params))
	for i := range params {
		orig := params[i]
		params[i] = orig + eps
		lp := loss()
		params[i] = orig - eps
		lm := loss()
		params[i] = orig
		grad[i] = (lp - lm) / (2 * eps)
	}
	return grad
}

// checkGrads compares analytic and numerical gradients with a relative
// tolerance.
func checkGrads(t *testing.T, name string, analytic, numerical []float64, tol float64) {
	t.Helper()
	if len(analytic) != len(numerical) {
		t.Fatalf("%s: gradient length mismatch", name)
	}
	for i := range analytic {
		a, n := analytic[i], numerical[i]
		if math.Abs(a) < 1e-7 && math.Abs(n) < 1e-7 {
			continue // below the central-difference noise floor
		}
		denom := math.Abs(a) + math.Abs(n) + 1e-8
		if math.Abs(a-n)/denom > tol {
			t.Fatalf("%s: grad[%d] analytic %v numerical %v", name, i, a, n)
		}
	}
}

// scalarLoss reduces a matrix output to a scalar with fixed weights so
// the full Jacobian is exercised.
func scalarLoss(y *tensor.Mat) float64 {
	var s float64
	for i, v := range y.Data {
		s += v * math.Sin(float64(i)+1)
	}
	return s
}

// scalarLossGrad is its gradient w.r.t. y.
func scalarLossGrad(rows, cols int) *tensor.Mat {
	g := tensor.NewMat(rows, cols)
	for i := range g.Data {
		g.Data[i] = math.Sin(float64(i) + 1)
	}
	return g
}

// bound gives layer l a store of its own, n parameters long, and draws
// its initial parameters from r, as a model constructor does.
func bound[L paramLayer](r *rand.Rand, n int, l L) (L, *Store) {
	return l, newParams(n, r, l).store
}

func TestLinearGradcheck(t *testing.T) {
	r := tensor.RNG(1)
	l, s := bound(r, LinearSize(4, 3), &Linear{In: 4, Out: 3})
	x := tensor.NewMat(2, 4)
	tensor.RandN(r, x.Data, 1)

	loss := func() float64 { return scalarLoss(l.Forward(x)) }
	num := numericalGrad(s.Params, loss)
	s.ZeroGrads()
	dx := l.Backward(scalarLossGrad(2, 3))
	checkGrads(t, "linear params", s.Grads, num, 1e-5)

	numX := numericalGrad(x.Data, loss)
	checkGrads(t, "linear input", dx.Data, numX, 1e-5)
}

func TestReLUGradcheck(t *testing.T) {
	r := tensor.RNG(2)
	a := &ReLU{}
	x := tensor.NewMat(3, 5)
	tensor.RandN(r, x.Data, 1)
	// Keep values away from the kink.
	for i := range x.Data {
		if math.Abs(x.Data[i]) < 0.05 {
			x.Data[i] = 0.1
		}
	}
	loss := func() float64 { return scalarLoss(a.Forward(x)) }
	num := numericalGrad(x.Data, loss)
	a.Forward(x)
	dx := a.Backward(scalarLossGrad(3, 5))
	checkGrads(t, "relu", dx.Data, num, 1e-5)
}

func TestConv2DGradcheck(t *testing.T) {
	r := tensor.RNG(3)
	h, w := 4, 4
	c, s := bound(r, Conv2DSize(2, 3), &Conv2D{InC: 2, OutC: 3, H: h, W: w})
	x := tensor.NewMat(2, 2*h*w)
	tensor.RandN(r, x.Data, 1)

	loss := func() float64 { return scalarLoss(c.Forward(x)) }
	num := numericalGrad(s.Params, loss)
	s.ZeroGrads()
	c.Forward(x)
	dx := c.Backward(scalarLossGrad(2, 3*h*w))
	checkGrads(t, "conv params", s.Grads, num, 1e-4)

	numX := numericalGrad(x.Data, loss)
	checkGrads(t, "conv input", dx.Data, numX, 1e-4)
}

func TestMaxPoolGradcheck(t *testing.T) {
	r := tensor.RNG(4)
	p := NewMaxPool2(2, 4, 4)
	x := tensor.NewMat(2, 2*4*4)
	tensor.RandN(r, x.Data, 1)
	loss := func() float64 { return scalarLoss(p.Forward(x)) }
	num := numericalGrad(x.Data, loss)
	p.Forward(x)
	dx := p.Backward(scalarLossGrad(2, 2*2*2))
	checkGrads(t, "maxpool", dx.Data, num, 1e-5)
}

func TestLSTMGradcheck(t *testing.T) {
	r := tensor.RNG(5)
	in, hidden, steps, batch := 3, 4, 3, 2
	l, s := bound(r, LSTMSize(in, hidden), &LSTM{In: in, Hidden: hidden})
	seq := make([]*tensor.Mat, steps)
	for t2 := range seq {
		seq[t2] = tensor.NewMat(batch, in)
		tensor.RandN(r, seq[t2].Data, 1)
	}
	loss := func() float64 { return scalarLoss(l.Forward(seq)) }
	num := numericalGrad(s.Params, loss)
	s.ZeroGrads()
	l.Forward(seq)
	dxs := l.Backward(scalarLossGrad(batch, hidden))
	checkGrads(t, "lstm params", s.Grads, num, 1e-4)

	// Input gradient of the first timestep (exercises the full BPTT
	// chain).
	numX := numericalGrad(seq[0].Data, loss)
	checkGrads(t, "lstm input", dxs[0].Data, numX, 1e-4)
}

func TestLayerNormGradcheck(t *testing.T) {
	r := tensor.RNG(6)
	l, s := bound(r, LayerNormSize(6), &LayerNorm{Dim: 6})
	// Perturb γ/β away from identity so their gradients are nontrivial.
	tensor.RandN(r, l.gamma, 0.5)
	for i := range l.gamma {
		l.gamma[i] += 1
	}
	tensor.RandN(r, l.beta, 0.5)
	x := tensor.NewMat(3, 6)
	tensor.RandN(r, x.Data, 1)

	loss := func() float64 { return scalarLoss(l.Forward(x)) }
	num := numericalGrad(s.Params, loss)
	s.ZeroGrads()
	l.Forward(x)
	dx := l.Backward(scalarLossGrad(3, 6))
	checkGrads(t, "layernorm params", s.Grads, num, 1e-4)

	numX := numericalGrad(x.Data, loss)
	checkGrads(t, "layernorm input", dx.Data, numX, 1e-4)
}

func TestAttentionGradcheck(t *testing.T) {
	r := tensor.RNG(7)
	dim, heads, seqLen, batch := 4, 2, 3, 2
	m, s := bound(r, MultiHeadAttentionSize(dim), newMultiHeadAttention(dim, heads, seqLen))
	x := tensor.NewMat(batch*seqLen, dim)
	tensor.RandN(r, x.Data, 1)

	loss := func() float64 { return scalarLoss(m.Forward(x)) }
	num := numericalGrad(s.Params, loss)
	s.ZeroGrads()
	m.Forward(x)
	dx := m.Backward(scalarLossGrad(batch*seqLen, dim))
	checkGrads(t, "attention params", s.Grads, num, 1e-4)

	numX := numericalGrad(x.Data, loss)
	checkGrads(t, "attention input", dx.Data, numX, 1e-4)
}

func TestEncoderBlockGradcheck(t *testing.T) {
	r := tensor.RNG(8)
	dim, heads, seqLen, ff, batch := 4, 2, 3, 6, 2
	b, s := bound(r, EncoderBlockSize(dim, ff), newEncoderBlock(dim, heads, seqLen, ff))
	x := tensor.NewMat(batch*seqLen, dim)
	tensor.RandN(r, x.Data, 1)

	loss := func() float64 { return scalarLoss(b.Forward(x)) }
	num := numericalGrad(s.Params, loss)
	s.ZeroGrads()
	b.Forward(x)
	dx := b.Backward(scalarLossGrad(batch*seqLen, dim))
	checkGrads(t, "encoder params", s.Grads, num, 1e-4)

	numX := numericalGrad(x.Data, loss)
	checkGrads(t, "encoder input", dx.Data, numX, 1e-4)
}

func TestEmbeddingGradcheck(t *testing.T) {
	r := tensor.RNG(9)
	vocab, dim, seqLen := 7, 4, 3
	e, s := bound(r, EmbeddingSize(vocab, dim, seqLen), &Embedding{Vocab: vocab, Dim: dim, MaxLen: seqLen})
	ids := [][]int{{1, 3, 5}, {0, 3, 6}}

	loss := func() float64 { return scalarLoss(e.Forward(ids)) }
	num := numericalGrad(s.Params, loss)
	s.ZeroGrads()
	e.Forward(ids)
	e.Backward(scalarLossGrad(len(ids)*seqLen, dim))
	checkGrads(t, "embedding", s.Grads, num, 1e-5)
}

func TestSoftmaxCrossEntropyGradcheck(t *testing.T) {
	r := tensor.RNG(10)
	logits := tensor.NewMat(3, 5)
	tensor.RandN(r, logits.Data, 1)
	targets := []int{1, 4, 0}
	loss := func() float64 {
		l, _, _ := SoftmaxCrossEntropy(logits, targets, nil)
		return l
	}
	num := numericalGrad(logits.Data, loss)
	// A dirty buffer of another shape: the gradient overwrites all of it.
	d := tensor.NewMat(2, 20)
	tensor.RandN(r, d.Data, 1)
	_, _, d = SoftmaxCrossEntropy(logits, targets, d)
	checkGrads(t, "softmax-ce", d.Data, num, 1e-5)
}

// End-to-end gradient checks on the full models, small configurations.
func TestVGGNarrowGradcheck(t *testing.T) {
	m := NewVGGNarrow(1, 2, 2, 2, 4, 3)
	r := tensor.RNG(11)
	x := tensor.NewMat(2, 3*32*32)
	tensor.RandN(r, x.Data, 0.5)
	y := []int{0, 2}
	loss := func() float64 {
		m.Store().ZeroGrads()
		l, _ := m.Loss(x, y)
		return l
	}
	// Full check is too slow (~8k params); spot-check a stride of
	// parameters across all layers.
	m.Store().ZeroGrads()
	m.Loss(x, y)
	analytic := slices.Clone(m.Store().Grads)
	spotCheck(t, "vgg", m.Store().Params, analytic, loss, 97)
}

func TestLSTMClassifierGradcheck(t *testing.T) {
	m := NewLSTMClassifier(2, 3, 4, 3, 3)
	r := tensor.RNG(12)
	seq := make([]*tensor.Mat, 3)
	for i := range seq {
		seq[i] = tensor.NewMat(2, 3)
		tensor.RandN(r, seq[i].Data, 1)
	}
	y := []int{1, 2}
	loss := func() float64 {
		m.Store().ZeroGrads()
		l, _ := m.Loss(seq, y)
		return l
	}
	m.Store().ZeroGrads()
	m.Loss(seq, y)
	analytic := slices.Clone(m.Store().Grads)
	num := numericalGrad(m.Store().Params, loss)
	checkGrads(t, "lstm-classifier", analytic, num, 1e-4)
}

func TestTinyBERTGradcheck(t *testing.T) {
	m := NewTinyBERT(3, 11, 4, 2, 1, 3, 6)
	ids := [][]int{{1, 4, 7}, {2, 5, 9}}
	maskedPos := [][]int{{0, 2}, {1}}
	maskedTgt := [][]int{{3, 8}, {6}}
	loss := func() float64 {
		m.Store().ZeroGrads()
		l, _ := m.Loss(ids, maskedPos, maskedTgt)
		return l
	}
	m.Store().ZeroGrads()
	m.Loss(ids, maskedPos, maskedTgt)
	analytic := slices.Clone(m.Store().Grads)
	spotCheck(t, "tinybert", m.Store().Params, analytic, loss, 37)
}

// spotCheck verifies every stride-th parameter's gradient numerically.
func spotCheck(t *testing.T, name string, params, analytic []float64, loss func() float64, stride int) {
	t.Helper()
	const eps = 1e-6
	for i := 0; i < len(params); i += stride {
		orig := params[i]
		params[i] = orig + eps
		lp := loss()
		params[i] = orig - eps
		lm := loss()
		params[i] = orig
		num := (lp - lm) / (2 * eps)
		a := analytic[i]
		denom := math.Abs(a) + math.Abs(num) + 1e-7
		if math.Abs(a-num)/denom > 2e-3 {
			t.Fatalf("%s: grad[%d] analytic %v numerical %v", name, i, a, num)
		}
	}
}

func TestStoreExhaustionPanics(t *testing.T) {
	s := NewStore(3)
	s.Take(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Take(2)
}

func TestModelSizes(t *testing.T) {
	m := NewVGGNarrow(1, 16, 32, 64, 128, 10)
	if len(m.Store().Params) != VGGNarrowSize(16, 32, 64, 128, 10) {
		t.Fatal("vgg size")
	}
	l := NewLSTMClassifier(1, 40, 128, 12, 20)
	if len(l.Store().Params) != LSTMClassifierSize(40, 128, 12) {
		t.Fatal("lstm size")
	}
	b := NewTinyBERT(1, 1000, 64, 4, 2, 32, 256)
	if len(b.Store().Params) != TinyBERTSize(1000, 64, 4, 2, 32, 256) {
		t.Fatal("bert size")
	}
}
