package nn

import (
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Embedding maps integer token ids to learned vectors, with an additive
// learned positional table — the BERT input stage.
type Embedding struct {
	Vocab, Dim, MaxLen int
	tok, gtok          []float64 // Vocab × Dim
	pos, gpos          []float64 // MaxLen × Dim
	idsCache           [][]int
	out                *tensor.Mat
}

// The per-row loops of this file, one named view of their layer each
// (see ReLU).
type (
	embeddingForward  Embedding
	layerNormForward  LayerNorm
	layerNormBackward LayerNorm
	attentionForward  MultiHeadAttention
	attentionBackward MultiHeadAttention
)

// EmbeddingSize returns the parameter count.
func EmbeddingSize(vocab, dim, maxLen int) int { return vocab*dim + maxLen*dim }

func (e *Embedding) bind(s *Store) {
	e.tok, e.gtok = s.Take(e.Vocab * e.Dim)
	e.pos, e.gpos = s.Take(e.MaxLen * e.Dim)
}

// init draws both tables from N(0, 0.02).
func (e *Embedding) init(r *rand.Rand) {
	tensor.RandN(r, e.tok, 0.02)
	tensor.RandN(r, e.pos, 0.02)
}

// Forward embeds a batch of equal-length token sequences into one matrix
// of B*S rows (token-major within each sequence).
func (e *Embedding) Forward(ids [][]int) *tensor.Mat {
	b, s := len(ids), len(ids[0])
	e.idsCache = ids
	e.out = tensor.EnsureMatUninit(e.out, b*s, e.Dim)
	tensor.ParallelFor(b, 1, (*embeddingForward)(e))
	return e.out
}

func (e *embeddingForward) Range(blo, bhi int) {
	ids, out, s := e.idsCache, e.out, len(e.idsCache[0])
	for bi := blo; bi < bhi; bi++ {
		for t, id := range ids[bi] {
			row := out.Row(bi*s + t)
			copy(row, e.tok[id*e.Dim:(id+1)*e.Dim])
			tensor.Axpy(1, e.pos[t*e.Dim:(t+1)*e.Dim], row)
		}
	}
}

// Backward scatters gradients into the token and position tables. The
// scatter stays serial: different sequences can share token ids, so
// rows of the gradient tables have no single owner.
func (e *Embedding) Backward(dout *tensor.Mat) {
	s := len(e.idsCache[0])
	for bi, seq := range e.idsCache {
		for t, id := range seq {
			drow := dout.Row(bi*s + t)
			tensor.Axpy(1, drow, e.gtok[id*e.Dim:(id+1)*e.Dim])
			tensor.Axpy(1, drow, e.gpos[t*e.Dim:(t+1)*e.Dim])
		}
	}
}

// LayerNorm normalizes each row to zero mean / unit variance and applies
// a learned affine transform.
type LayerNorm struct {
	Dim       int
	gamma, gg []float64
	beta, gb  []float64
	xHat      *tensor.Mat
	invStd    []float64
	x, dy     *tensor.Mat // the operands of the call in progress
	y, dx     *tensor.Mat
}

// LayerNormSize returns the parameter count.
func LayerNormSize(dim int) int { return 2 * dim }

func (l *LayerNorm) bind(s *Store) {
	l.gamma, l.gg = s.Take(l.Dim)
	l.beta, l.gb = s.Take(l.Dim)
}

// init sets γ=1; β starts at zero.
func (l *LayerNorm) init(*rand.Rand) { tensor.Fill(l.gamma, 1) }

const lnEps = 1e-5

// Forward normalizes rows (each row is owned by one worker).
func (l *LayerNorm) Forward(x *tensor.Mat) *tensor.Mat {
	l.y = tensor.EnsureMatUninit(l.y, x.Rows, x.Cols)
	l.xHat = tensor.EnsureMatUninit(l.xHat, x.Rows, x.Cols)
	if cap(l.invStd) < x.Rows {
		l.invStd = make([]float64, x.Rows)
	}
	l.invStd = l.invStd[:x.Rows]
	l.x = x
	tensor.ParallelFor(x.Rows, tensor.GrainFor(2*x.Cols), (*layerNormForward)(l))
	return l.y
}

func (l *layerNormForward) Range(rlo, rhi int) {
	x, y, xHat, invStd := l.x, l.y, l.xHat, l.invStd
	for i := rlo; i < rhi; i++ {
		row := x.Row(i)
		mean := tensor.Mean(row)
		var v float64
		for _, xv := range row {
			d := xv - mean
			v += d * d
		}
		inv := 1 / math.Sqrt(v/float64(len(row))+lnEps)
		invStd[i] = inv
		xh := xHat.Row(i)
		yr := y.Row(i)
		for j, xv := range row {
			xh[j] = (xv - mean) * inv
			yr[j] = xh[j]*l.gamma[j] + l.beta[j]
		}
	}
}

// Backward computes the layer-norm gradient: the per-row dx pass runs
// on the worker pool, then γ/β gradients accumulate serially in row
// order so their summation order is independent of the worker count.
func (l *LayerNorm) Backward(dy *tensor.Mat) *tensor.Mat {
	l.dx = tensor.EnsureMatUninit(l.dx, dy.Rows, dy.Cols)
	l.dy = dy
	tensor.ParallelFor(dy.Rows, tensor.GrainFor(2*dy.Cols), (*layerNormBackward)(l))
	for i := 0; i < dy.Rows; i++ {
		dyr := dy.Row(i)
		xh := l.xHat.Row(i)
		for j, d := range dyr {
			l.gg[j] += d * xh[j]
			l.gb[j] += d
		}
	}
	return l.dx
}

func (l *layerNormBackward) Range(rlo, rhi int) {
	dy, dx, xHat, invStd := l.dy, l.dx, l.xHat, l.invStd
	n := float64(l.Dim)
	for i := rlo; i < rhi; i++ {
		dyr := dy.Row(i)
		xh := xHat.Row(i)
		var sumDy, sumDyXh float64
		for j, d := range dyr {
			g := d * l.gamma[j]
			sumDy += g
			sumDyXh += g * xh[j]
		}
		dxr := dx.Row(i)
		inv := invStd[i]
		for j, d := range dyr {
			g := d * l.gamma[j]
			dxr[j] = inv * (g - sumDy/n - xh[j]*sumDyXh/n)
		}
	}
}

// MultiHeadAttention is standard bidirectional self-attention over
// fixed-length sequences (no masking — BERT-style encoding). The
// (batch, head) pairs are independent — each owns its attention matrix
// and a disjoint column slice of the output rows — so they run in
// parallel on the tensor worker pool with bit-identical results at any
// worker count.
type MultiHeadAttention struct {
	Dim, Heads, SeqLen int
	wq, wk, wv, wo     *Linear

	// caches
	batch      int
	q, k, v    *tensor.Mat
	attn       []*tensor.Mat // per (batch*head): S×S softmax weights
	concatOut  *tensor.Mat
	dAtt       []*tensor.Mat // per (batch*head) backward scratch
	dConcat    *tensor.Mat   // the output projection's input gradient
	dq, dk, dv *tensor.Mat
}

// MultiHeadAttentionSize returns the parameter count.
func MultiHeadAttentionSize(dim int) int { return 4 * LinearSize(dim, dim) }

// newMultiHeadAttention returns an unbound layer with its four
// projections.
func newMultiHeadAttention(dim, heads, seqLen int) *MultiHeadAttention {
	if dim%heads != 0 {
		panic("nn: dim must divide by heads")
	}
	return &MultiHeadAttention{
		Dim: dim, Heads: heads, SeqLen: seqLen,
		wq: &Linear{In: dim, Out: dim},
		wk: &Linear{In: dim, Out: dim},
		wv: &Linear{In: dim, Out: dim},
		wo: &Linear{In: dim, Out: dim},
	}
}

func (m *MultiHeadAttention) bind(s *Store) {
	for _, l := range [...]*Linear{m.wq, m.wk, m.wv, m.wo} {
		l.bind(s)
	}
}

func (m *MultiHeadAttention) init(r *rand.Rand) {
	for _, l := range [...]*Linear{m.wq, m.wk, m.wv, m.wo} {
		l.init(r)
	}
}

// Forward attends over x (B*S rows × Dim) and returns the same shape.
func (m *MultiHeadAttention) Forward(x *tensor.Mat) *tensor.Mat {
	s, d, h := m.SeqLen, m.Dim, m.Heads
	m.batch = x.Rows / s
	m.q = m.wq.Forward(x)
	m.k = m.wk.Forward(x)
	m.v = m.wv.Forward(x)
	m.attn = ensureMats(m.attn, m.batch*h, s, s)
	m.concatOut = tensor.EnsureMatUninit(m.concatOut, x.Rows, d)
	tensor.ParallelFor(m.batch*h, 1, (*attentionForward)(m))
	return m.wo.Forward(m.concatOut)
}

func (m *attentionForward) Range(plo, phi int) {
	s, h := m.SeqLen, m.Heads
	dh := m.Dim / h
	scale := 1 / math.Sqrt(float64(dh))
	q, k, v, attn, concatOut := m.q, m.k, m.v, m.attn, m.concatOut
	for pi := plo; pi < phi; pi++ {
		bi, hd := pi/h, pi%h
		a := attn[pi]
		for i := 0; i < s; i++ {
			qi := q.Row(bi*s + i)[hd*dh : (hd+1)*dh]
			arow := a.Row(i)
			maxV := math.Inf(-1)
			for j := 0; j < s; j++ {
				kj := k.Row(bi*s + j)[hd*dh : (hd+1)*dh]
				arow[j] = tensor.Dot(qi, kj) * scale
				if arow[j] > maxV {
					maxV = arow[j]
				}
			}
			var sum float64
			for j := range arow {
				arow[j] = math.Exp(arow[j] - maxV)
				sum += arow[j]
			}
			for j := range arow {
				arow[j] /= sum
			}
			// Weighted sum of V.
			out := concatOut.Row(bi*s + i)[hd*dh : (hd+1)*dh]
			clear(out)
			for j := 0; j < s; j++ {
				vj := v.Row(bi*s + j)[hd*dh : (hd+1)*dh]
				tensor.Axpy(arow[j], vj, out)
			}
		}
	}
}

// Backward propagates through the attention and all four projections.
func (m *MultiHeadAttention) Backward(dy *tensor.Mat) *tensor.Mat {
	s, d, h := m.SeqLen, m.Dim, m.Heads
	m.dConcat = m.wo.Backward(dy)
	m.dq = tensor.EnsureMatUninit(m.dq, m.q.Rows, d)
	m.dk = tensor.EnsureMat(m.dk, m.k.Rows, d)
	m.dv = tensor.EnsureMat(m.dv, m.v.Rows, d)
	m.dAtt = ensureMats(m.dAtt, m.batch*h, s, s)
	tensor.ParallelFor(m.batch*h, 1, (*attentionBackward)(m))
	dx := m.wq.Backward(m.dq)
	dxk := m.wk.Backward(m.dk)
	dxv := m.wv.Backward(m.dv)
	tensor.Axpy(1, dxk.Data, dx.Data)
	tensor.Axpy(1, dxv.Data, dx.Data)
	return dx
}

func (m *attentionBackward) Range(plo, phi int) {
	s, h := m.SeqLen, m.Heads
	dh := m.Dim / h
	scale := 1 / math.Sqrt(float64(dh))
	q, k, v, attn, dConcat := m.q, m.k, m.v, m.attn, m.dConcat
	dq, dk, dv, dAtt := m.dq, m.dk, m.dv, m.dAtt
	for pi := plo; pi < phi; pi++ {
		bi, hd := pi/h, pi%h
		a := attn[pi]
		// dA and dV from dOut = A·V.
		dA := dAtt[pi]
		for i := 0; i < s; i++ {
			dout := dConcat.Row(bi*s + i)[hd*dh : (hd+1)*dh]
			darow := dA.Row(i)
			arow := a.Row(i)
			for j := 0; j < s; j++ {
				vj := v.Row(bi*s + j)[hd*dh : (hd+1)*dh]
				darow[j] = tensor.Dot(dout, vj)
				dvj := dv.Row(bi*s + j)[hd*dh : (hd+1)*dh]
				tensor.Axpy(arow[j], dout, dvj)
			}
		}
		// Softmax backward per row, then scores → dQ, dK.
		for i := 0; i < s; i++ {
			arow := a.Row(i)
			darow := dA.Row(i)
			var dot float64
			for j := range arow {
				dot += arow[j] * darow[j]
			}
			qi := q.Row(bi*s + i)[hd*dh : (hd+1)*dh]
			dqi := dq.Row(bi*s + i)[hd*dh : (hd+1)*dh]
			clear(dqi)
			for j := 0; j < s; j++ {
				dscore := arow[j] * (darow[j] - dot) * scale
				kj := k.Row(bi*s + j)[hd*dh : (hd+1)*dh]
				dkj := dk.Row(bi*s + j)[hd*dh : (hd+1)*dh]
				tensor.Axpy(dscore, kj, dqi)
				tensor.Axpy(dscore, qi, dkj)
			}
		}
	}
}

// EncoderBlock is one pre-norm transformer encoder layer:
// x + MHSA(LN(x)), then x + FFN(LN(x)) with a ReLU MLP.
type EncoderBlock struct {
	ln1, ln2 *LayerNorm
	attn     *MultiHeadAttention
	ff1, ff2 *Linear
	act      *ReLU
	mid, out *tensor.Mat
}

// EncoderBlockSize returns the parameter count for dim/heads/ffDim.
func EncoderBlockSize(dim, ffDim int) int {
	return 2*LayerNormSize(dim) + MultiHeadAttentionSize(dim) +
		LinearSize(dim, ffDim) + LinearSize(ffDim, dim)
}

// newEncoderBlock returns one unbound encoder layer.
func newEncoderBlock(dim, heads, seqLen, ffDim int) *EncoderBlock {
	return &EncoderBlock{
		ln1:  &LayerNorm{Dim: dim},
		ln2:  &LayerNorm{Dim: dim},
		attn: newMultiHeadAttention(dim, heads, seqLen),
		ff1:  &Linear{In: dim, Out: ffDim},
		ff2:  &Linear{In: ffDim, Out: dim},
		act:  &ReLU{},
	}
}

// layers lists an encoder block's parameter blocks in store order: both
// layer norms, the attention projections, then the feed-forward layers.
func (b *EncoderBlock) layers() [5]paramLayer {
	return [5]paramLayer{b.ln1, b.ln2, b.attn, b.ff1, b.ff2}
}

func (b *EncoderBlock) bind(s *Store) {
	for _, l := range b.layers() {
		l.bind(s)
	}
}

func (b *EncoderBlock) init(r *rand.Rand) {
	for _, l := range b.layers() {
		l.init(r)
	}
}

// Forward applies the block.
func (b *EncoderBlock) Forward(x *tensor.Mat) *tensor.Mat {
	a := b.attn.Forward(b.ln1.Forward(x))
	b.mid = tensor.EnsureMatUninit(b.mid, x.Rows, x.Cols)
	tensor.Add(x.Data, a.Data, b.mid.Data)
	f := b.ff2.Forward(b.act.Forward(b.ff1.Forward(b.ln2.Forward(b.mid))))
	b.out = tensor.EnsureMatUninit(b.out, x.Rows, x.Cols)
	tensor.Add(b.mid.Data, f.Data, b.out.Data)
	return b.out
}

// Backward applies the block's gradient.
func (b *EncoderBlock) Backward(dy *tensor.Mat) *tensor.Mat {
	dMid := b.ln2.Backward(b.ff1.Backward(b.act.Backward(b.ff2.Backward(dy))))
	tensor.Axpy(1, dy.Data, dMid.Data)
	dx := b.ln1.Backward(b.attn.Backward(dMid))
	tensor.Axpy(1, dMid.Data, dx.Data)
	return dx
}
