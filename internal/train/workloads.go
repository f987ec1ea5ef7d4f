// Package train binds everything together: per-worker workloads (model
// replica + dataset shard), the Ok-Topk SGD trainer implementing
// Algorithm 2 (residual accumulation + sparse allreduce + update), and a
// Session that drives a whole data-parallel cluster, collecting the
// per-phase timing breakdowns and convergence metrics the paper's
// figures report.
package train

import (
	"fmt"
	"math/rand"

	"repro/internal/data"
	"repro/internal/nn"
)

// Workload is one worker's model replica plus its data source. All
// replicas of a run are constructed with the same model seed (identical
// initialization, as data-parallel training requires) but sample batches
// with per-rank RNGs.
type Workload interface {
	Name() string
	// N is the number of model parameters (gradient components).
	N() int
	Params() []float64
	Grads() []float64
	ZeroGrads()
	// ComputeBatch runs forward+backward on one local batch, filling
	// Grads, and returns the loss and prediction counts.
	ComputeBatch(r *rand.Rand, batchSize int) (loss float64, correct, total int)
	// Evaluate returns the test metric on freshly sampled held-out data
	// (higher-is-better or lower-is-better per MetricName).
	Evaluate(r *rand.Rand, samples int) float64
	// MetricName describes Evaluate's result ("top1-accuracy",
	// "sequence-WER", "mlm-loss").
	MetricName() string
	// ComputeSeconds is the modeled forward+backward+I/O time of one
	// iteration of the paper-scale model on the paper's GPU, charged to
	// the simulated clock (our CPU substrate computes the real gradient
	// but at laptop speed; the model keeps the figures cluster-shaped).
	ComputeSeconds(batchSize int) float64
	// BackwardSchedule is the model's per-layer backward cost schedule
	// in reverse execution order (see nn.LayerCost): the overlap engine
	// rescales it to the backward share of ComputeSeconds and issues
	// gradient buckets against it.
	BackwardSchedule() []nn.LayerCost
	// PaperN is the parameter count of the paper-scale model this
	// workload stands in for; the ratio PaperN/N calibrates the β
	// scaling so communication volumes match the paper's regime.
	PaperN() int
}

// VGGWorkload is VGG-16/Cifar-10 (Table 2 row 1).
type VGGWorkload struct {
	model *nn.VGGNarrow
	ds    *data.Images
	// The training batch and Evaluate's, reused across calls.
	batch, evalBatch data.ImageBatch
}

// NewVGGWorkload builds one worker's replica. modelSeed must be shared
// across ranks; dataSeed seeds the shared prototype bank.
func NewVGGWorkload(modelSeed, dataSeed int64) *VGGWorkload {
	return &VGGWorkload{
		model: nn.NewVGGNarrow(modelSeed, 16, 32, 64, 128, 10),
		ds:    data.NewImages(dataSeed, 10),
	}
}

// Name identifies the workload.
func (w *VGGWorkload) Name() string { return "VGG" }

// N returns the gradient size.
func (w *VGGWorkload) N() int { return w.model.NumParams() }

// Params exposes the flat parameter vector.
func (w *VGGWorkload) Params() []float64 { return w.model.Store().Params }

// Grads exposes the flat gradient vector.
func (w *VGGWorkload) Grads() []float64 { return w.model.Store().Grads }

// ZeroGrads clears gradients.
func (w *VGGWorkload) ZeroGrads() { w.model.Store().ZeroGrads() }

// ComputeBatch samples a batch and runs forward/backward.
func (w *VGGWorkload) ComputeBatch(r *rand.Rand, batchSize int) (float64, int, int) {
	w.ds.Batch(r, batchSize, &w.batch)
	loss, correct := w.model.Loss(w.batch.X, w.batch.Y)
	return loss, correct, batchSize
}

// Evaluate returns top-1 accuracy in [0,1] on held-out samples.
func (w *VGGWorkload) Evaluate(r *rand.Rand, samples int) float64 {
	correct := 0
	const chunk = 32
	done := 0
	for done < samples {
		b := chunk
		if samples-done < b {
			b = samples - done
		}
		w.ds.Batch(r, b, &w.evalBatch)
		pred := w.model.Predict(w.evalBatch.X)
		for i := range pred {
			if pred[i] == w.evalBatch.Y[i] {
				correct++
			}
		}
		done += b
	}
	return float64(correct) / float64(samples)
}

// MetricName describes Evaluate.
func (w *VGGWorkload) MetricName() string { return "top1-accuracy" }

// ComputeSeconds models the paper's VGG-16 iteration compute+I/O
// (≈0.15 s at 16 samples/GPU on a P100, from Figure 8's breakdown).
func (w *VGGWorkload) ComputeSeconds(batchSize int) float64 {
	return 0.15 * float64(batchSize) / 16
}

// PaperN is VGG-16's parameter count.
func (w *VGGWorkload) PaperN() int { return 14728266 }

// BackwardSchedule exposes the model's backward cost schedule.
func (w *VGGWorkload) BackwardSchedule() []nn.LayerCost { return w.model.BackwardSchedule() }

// LSTMWorkload is LSTM/AN4 (Table 2 row 2); the metric is a WER-like
// sequence error rate.
type LSTMWorkload struct {
	model *nn.LSTMClassifier
	ds    *data.Sequences
	// The training batch and Evaluate's, reused across calls.
	batch, evalBatch data.SeqBatch
}

// NewLSTMWorkload builds one worker's replica.
func NewLSTMWorkload(modelSeed, dataSeed int64) *LSTMWorkload {
	const seqLen, frameDim, classes, hidden = 20, 40, 12, 128
	return &LSTMWorkload{
		model: nn.NewLSTMClassifier(modelSeed, frameDim, hidden, classes, seqLen),
		ds:    data.NewSequences(dataSeed, classes, seqLen, frameDim),
	}
}

// Name identifies the workload.
func (w *LSTMWorkload) Name() string { return "LSTM" }

// N returns the gradient size.
func (w *LSTMWorkload) N() int { return w.model.NumParams() }

// Params exposes the flat parameter vector.
func (w *LSTMWorkload) Params() []float64 { return w.model.Store().Params }

// Grads exposes the flat gradient vector.
func (w *LSTMWorkload) Grads() []float64 { return w.model.Store().Grads }

// ZeroGrads clears gradients.
func (w *LSTMWorkload) ZeroGrads() { w.model.Store().ZeroGrads() }

// ComputeBatch samples sequences and runs BPTT.
func (w *LSTMWorkload) ComputeBatch(r *rand.Rand, batchSize int) (float64, int, int) {
	w.ds.Batch(r, batchSize, &w.batch)
	loss, correct := w.model.Loss(w.batch.Seq, w.batch.Y)
	return loss, correct, batchSize
}

// Evaluate returns the sequence error rate (lower is better), the
// WER-like metric for the speech substitution.
func (w *LSTMWorkload) Evaluate(r *rand.Rand, samples int) float64 {
	wrong := 0
	const chunk = 16
	done := 0
	for done < samples {
		b := chunk
		if samples-done < b {
			b = samples - done
		}
		w.ds.Batch(r, b, &w.evalBatch)
		pred := w.model.Predict(w.evalBatch.Seq)
		for i := range pred {
			if pred[i] != w.evalBatch.Y[i] {
				wrong++
			}
		}
		done += b
	}
	return float64(wrong) / float64(samples)
}

// MetricName describes Evaluate.
func (w *LSTMWorkload) MetricName() string { return "sequence-WER" }

// ComputeSeconds models the paper's AN4 LSTM iteration (≈0.75 s at 2
// samples/GPU, from Figure 10's breakdown).
func (w *LSTMWorkload) ComputeSeconds(batchSize int) float64 {
	return 0.75 * float64(batchSize) / 2
}

// PaperN is the paper LSTM's parameter count.
func (w *LSTMWorkload) PaperN() int { return 27569568 }

// BackwardSchedule exposes the model's backward cost schedule.
func (w *LSTMWorkload) BackwardSchedule() []nn.LayerCost { return w.model.BackwardSchedule() }

// BERTWorkload is BERT/Wikipedia pre-training (Table 2 row 3); the
// metric is the masked-LM loss on held-out batches.
type BERTWorkload struct {
	model *nn.TinyBERT
	ds    *data.Corpus
	// The training batch and Evaluate's, reused across calls.
	batch, evalBatch data.TokenBatch
}

// NewBERTWorkload builds one worker's replica.
func NewBERTWorkload(modelSeed, dataSeed int64) *BERTWorkload {
	const vocab, dim, heads, layers, seqLen, ff = 1000, 64, 4, 2, 32, 256
	return &BERTWorkload{
		model: nn.NewTinyBERT(modelSeed, vocab, dim, heads, layers, seqLen, ff),
		ds:    data.NewCorpus(dataSeed, vocab, seqLen),
	}
}

// Name identifies the workload.
func (w *BERTWorkload) Name() string { return "BERT" }

// N returns the gradient size.
func (w *BERTWorkload) N() int { return w.model.NumParams() }

// Params exposes the flat parameter vector.
func (w *BERTWorkload) Params() []float64 { return w.model.Store().Params }

// Grads exposes the flat gradient vector.
func (w *BERTWorkload) Grads() []float64 { return w.model.Store().Grads }

// ZeroGrads clears gradients.
func (w *BERTWorkload) ZeroGrads() { w.model.Store().ZeroGrads() }

// ComputeBatch samples masked sequences and runs the MLM objective.
func (w *BERTWorkload) ComputeBatch(r *rand.Rand, batchSize int) (float64, int, int) {
	b := &w.batch
	w.ds.Batch(r, batchSize, b)
	loss, correct := w.model.Loss(b.IDs, b.Pos, b.Tgt)
	total := 0
	for _, p := range b.Pos {
		total += len(p)
	}
	return loss, correct, total
}

// Evaluate returns the mean masked-LM loss on held-out batches (lower is
// better). Gradients are clobbered; callers evaluate between steps.
func (w *BERTWorkload) Evaluate(r *rand.Rand, samples int) float64 {
	var sum float64
	batches := 0
	const chunk = 8
	for done := 0; done < samples; done += chunk {
		b := &w.evalBatch
		w.ds.Batch(r, chunk, b)
		loss, _ := w.model.Loss(b.IDs, b.Pos, b.Tgt)
		sum += loss
		batches++
	}
	w.ZeroGrads()
	return sum / float64(batches)
}

// MetricName describes Evaluate.
func (w *BERTWorkload) MetricName() string { return "mlm-loss" }

// ComputeSeconds models the paper's BERT iteration (≈1.2 s at 8
// samples/GPU, from Figure 12's breakdown).
func (w *BERTWorkload) ComputeSeconds(batchSize int) float64 {
	return 1.2 * float64(batchSize) / 8
}

// PaperN is BERT-base-with-128-seq's parameter count from Table 2.
func (w *BERTWorkload) PaperN() int { return 133547324 }

// BackwardSchedule exposes the model's backward cost schedule.
func (w *BERTWorkload) BackwardSchedule() []nn.LayerCost { return w.model.BackwardSchedule() }

// NewWorkload constructs a workload by name ("VGG", "LSTM", "BERT").
func NewWorkload(name string, modelSeed, dataSeed int64) Workload {
	switch name {
	case "VGG":
		return NewVGGWorkload(modelSeed, dataSeed)
	case "LSTM":
		return NewLSTMWorkload(modelSeed, dataSeed)
	case "BERT":
		return NewBERTWorkload(modelSeed, dataSeed)
	}
	panic(fmt.Sprintf("train: unknown workload %q", name))
}
