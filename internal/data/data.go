// Package data provides the three synthetic datasets substituting for
// the paper's Cifar-10, AN4 and Wikipedia corpora (see DESIGN.md). Each
// generator is deterministic given its seed, produces class structure
// that the corresponding model can genuinely learn (so convergence
// curves are meaningful), and exposes disjoint train shards per worker
// plus a shared test set, mirroring data-parallel sampling.
package data

import (
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Images is a Cifar-like synthetic image classification dataset: each
// class has several smooth prototype "poses"; a sample picks a pose,
// applies a random circular translation (so the conv net must learn
// shift-robust features rather than a pixel template) and adds pixel
// noise plus a brightness shift.
type Images struct {
	Classes, H, W, C int
	modes            int
	prototypes       []*tensor.Mat // Classes*modes rows of C*H*W
	noise            float64
	maxShift         int
}

// NewImages builds the dataset generator.
func NewImages(seed int64, classes int) *Images {
	d := &Images{Classes: classes, H: 32, W: 32, C: 3, modes: 3, noise: 0.9, maxShift: 5}
	r := tensor.RNG(seed)
	for cl := 0; cl < classes*d.modes; cl++ {
		proto := tensor.NewMat(1, d.C*d.H*d.W)
		// Smooth prototype: a random 2-D cosine mode per channel, so
		// nearby pixels correlate like natural images.
		for ch := 0; ch < d.C; ch++ {
			fx, fy := r.Float64()*3+0.5, r.Float64()*3+0.5
			px, py := r.Float64()*math.Pi, r.Float64()*math.Pi
			amp := r.Float64()*0.5 + 0.5
			for y := 0; y < d.H; y++ {
				for x := 0; x < d.W; x++ {
					v := amp * math.Cos(fx*float64(x)/float64(d.W)*math.Pi+px) *
						math.Cos(fy*float64(y)/float64(d.H)*math.Pi+py)
					proto.Data[(ch*d.H+y)*d.W+x] = v
				}
			}
		}
		d.prototypes = append(d.prototypes, proto)
	}
	return d
}

// ImageBatch is a batch of labelled images: row i of X packs image i
// (C×H×W), Y[i] is its class. The caller owns it and passes it back to
// every Batch call, which reuses its buffers.
type ImageBatch struct {
	X *tensor.Mat
	Y []int
}

// Batch samples batchSize labelled images using r into b, overwriting
// its previous contents.
func (d *Images) Batch(r *rand.Rand, batchSize int, b *ImageBatch) {
	b.X = tensor.EnsureMatUninit(b.X, batchSize, d.C*d.H*d.W)
	b.Y = resize(b.Y, batchSize)
	x, y := b.X, b.Y
	for i := 0; i < batchSize; i++ {
		cl := r.Intn(d.Classes)
		y[i] = cl
		proto := d.prototypes[cl*d.modes+r.Intn(d.modes)].Data
		dx := r.Intn(2*d.maxShift+1) - d.maxShift
		dy := r.Intn(2*d.maxShift+1) - d.maxShift
		shift := r.NormFloat64() * 0.1
		row := x.Row(i)
		for ch := 0; ch < d.C; ch++ {
			for yy := 0; yy < d.H; yy++ {
				sy := ((yy+dy)%d.H + d.H) % d.H
				for xx := 0; xx < d.W; xx++ {
					sx := ((xx+dx)%d.W + d.W) % d.W
					row[(ch*d.H+yy)*d.W+xx] = proto[(ch*d.H+sy)*d.W+sx] +
						r.NormFloat64()*d.noise + shift
				}
			}
		}
	}
}

// resize returns s with length n, reusing its array when it is large
// enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Sequences is an AN4-like synthetic speech dataset: each class is a
// characteristic trajectory of feature frames; samples add frame noise
// and a random time warp offset.
type Sequences struct {
	Classes, SeqLen, FrameDim int
	trajectories              [][]*tensor.Mat
	noise                     float64
}

// NewSequences builds the generator.
func NewSequences(seed int64, classes, seqLen, frameDim int) *Sequences {
	d := &Sequences{Classes: classes, SeqLen: seqLen, FrameDim: frameDim, noise: 2.2}
	r := tensor.RNG(seed)
	for cl := 0; cl < classes; cl++ {
		freqs := make([]float64, frameDim)
		phases := make([]float64, frameDim)
		for j := range freqs {
			freqs[j] = r.Float64()*2 + 0.2
			phases[j] = r.Float64() * 2 * math.Pi
		}
		var traj []*tensor.Mat
		for t := 0; t < seqLen; t++ {
			frame := tensor.NewMat(1, frameDim)
			for j := 0; j < frameDim; j++ {
				frame.Data[j] = math.Sin(freqs[j]*float64(t)/float64(seqLen)*2*math.Pi + phases[j])
			}
			traj = append(traj, frame)
		}
		d.trajectories = append(d.trajectories, traj)
	}
	return d
}

// SeqBatch is a batch of labelled sequences: SeqLen matrices, each
// batchSize×FrameDim (timestep-major, as the LSTM consumes them), and
// the class of each sequence. The caller owns it and passes it back to
// every Batch call, which reuses its buffers.
type SeqBatch struct {
	Seq []*tensor.Mat
	Y   []int
}

// Batch samples batchSize labelled sequences using r into b,
// overwriting its previous contents.
func (d *Sequences) Batch(r *rand.Rand, batchSize int, b *SeqBatch) {
	b.Seq = resize(b.Seq, d.SeqLen)
	for t := range b.Seq {
		b.Seq[t] = tensor.EnsureMatUninit(b.Seq[t], batchSize, d.FrameDim)
	}
	b.Y = resize(b.Y, batchSize)
	seq, y := b.Seq, b.Y
	for i := 0; i < batchSize; i++ {
		cl := r.Intn(d.Classes)
		y[i] = cl
		warp := r.Intn(3) - 1 // small time shift
		for t := 0; t < d.SeqLen; t++ {
			src := t + warp
			if src < 0 {
				src = 0
			}
			if src >= d.SeqLen {
				src = d.SeqLen - 1
			}
			frame := d.trajectories[cl][src]
			row := seq[t].Row(i)
			for j := range row {
				row[j] = frame.Data[j] + r.NormFloat64()*d.noise
			}
		}
	}
}

// Corpus is a Wikipedia-like synthetic token stream: a Zipfian unigram
// distribution shaped by a sparse bigram transition structure, so masked
// tokens are genuinely predictable from context. Token 0 is reserved as
// the [MASK] symbol.
type Corpus struct {
	Vocab, SeqLen int
	// next[w] lists the plausible successors of token w.
	next     [][]int
	zipf     []float64 // cumulative unigram distribution
	maskFrac float64
}

// MaskToken is the reserved [MASK] id.
const MaskToken = 0

// NewCorpus builds the generator.
func NewCorpus(seed int64, vocab, seqLen int) *Corpus {
	c := &Corpus{Vocab: vocab, SeqLen: seqLen, maskFrac: 0.15}
	r := tensor.RNG(seed)
	// Zipf cumulative over tokens 1..Vocab-1.
	weights := make([]float64, vocab)
	var sum float64
	for w := 1; w < vocab; w++ {
		weights[w] = 1 / math.Pow(float64(w), 1.1)
		sum += weights[w]
	}
	c.zipf = make([]float64, vocab)
	acc := 0.0
	for w := 1; w < vocab; w++ {
		acc += weights[w] / sum
		c.zipf[w] = acc
	}
	// Each token has a small successor set, biased to frequent tokens.
	c.next = make([][]int, vocab)
	for w := 0; w < vocab; w++ {
		k := 3 + r.Intn(3)
		for j := 0; j < k; j++ {
			c.next[w] = append(c.next[w], c.sampleUnigram(r))
		}
	}
	return c
}

func (c *Corpus) sampleUnigram(r *rand.Rand) int {
	u := r.Float64()
	lo, hi := 1, c.Vocab-1
	for lo < hi {
		mid := (lo + hi) / 2
		if c.zipf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// TokenBatch is a batch of masked-LM sequences: per sequence, the
// (masked) token ids, the masked positions and their original tokens.
// The caller owns it and passes it back to every Batch call, which
// reuses its buffers.
type TokenBatch struct {
	IDs, Pos, Tgt [][]int
}

// Batch samples masked-LM training sequences using r into tb,
// overwriting its previous contents: 15% of positions are replaced
// with [MASK] and their original ids become the targets.
func (c *Corpus) Batch(r *rand.Rand, batchSize int, tb *TokenBatch) {
	tb.IDs = resize(tb.IDs, batchSize)
	tb.Pos = resize(tb.Pos, batchSize)
	tb.Tgt = resize(tb.Tgt, batchSize)
	for b := 0; b < batchSize; b++ {
		seq := resize(tb.IDs[b], c.SeqLen)
		seq[0] = c.sampleUnigram(r)
		for t := 1; t < c.SeqLen; t++ {
			// Follow the bigram structure 80% of the time.
			if r.Float64() < 0.8 {
				succ := c.next[seq[t-1]]
				seq[t] = succ[r.Intn(len(succ))]
			} else {
				seq[t] = c.sampleUnigram(r)
			}
		}
		pos, tgt := tb.Pos[b][:0], tb.Tgt[b][:0]
		for t := 0; t < c.SeqLen; t++ {
			if r.Float64() < c.maskFrac {
				pos = append(pos, t)
				tgt = append(tgt, seq[t])
				seq[t] = MaskToken
			}
		}
		if len(pos) == 0 { // guarantee at least one prediction target
			t := r.Intn(c.SeqLen)
			pos = append(pos, t)
			tgt = append(tgt, seq[t])
			seq[t] = MaskToken
		}
		tb.IDs[b], tb.Pos[b], tb.Tgt[b] = seq, pos, tgt
	}
}
