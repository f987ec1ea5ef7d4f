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
// with per-rank RNGs. A replica owns its parameters and gradients; the
// layer scratch it computes with belongs to a compute engine it borrows
// for each ComputeBatch and Evaluate call (see replica).
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

// model is what a workload needs of an nn model.
type model interface {
	Store() *nn.Store
	Bind(*nn.Store)
	BackwardSchedule() []nn.LayerCost
}

// engine is one compute core's share of a workload: a model's layer
// scratch (activations, caches, gradient work buffers) and the batch
// buffers, bound for each borrowed batch to the borrower's parameters.
type engine[M model, B any] struct {
	model M
	batch B
}

// replica is the state one rank owns of its workload — its parameters
// and gradients — plus the pool of compute engines it borrows from to
// compute on them. A workload built alone is its own one-engine pool;
// a session shares one pool of min(local ranks, GOMAXPROCS) engines
// between its local ranks. The pool is a buffered channel, so it is
// also the gate that lets no more ranks compute at once than it holds
// engines.
type replica[M model, B any] struct {
	store    *nn.Store
	engines  chan *engine[M, B]
	newModel func() M       // builds one more engine's model
	sched    []nn.LayerCost // the model's backward schedule, read-only
}

// newReplica builds a workload's first replica: it owns the parameters
// of a fresh model and is its own pool of that one engine.
func newReplica[M model, B any](newModel func() M) replica[M, B] {
	m := newModel()
	engines := make(chan *engine[M, B], 1)
	engines <- &engine[M, B]{model: m}
	return replica[M, B]{store: m.Store(), engines: engines, newModel: newModel, sched: m.BackwardSchedule()}
}

// N returns the gradient size.
func (w *replica[M, B]) N() int { return len(w.store.Params) }

// Params exposes the flat parameter vector.
func (w *replica[M, B]) Params() []float64 { return w.store.Params }

// Grads exposes the flat gradient vector.
func (w *replica[M, B]) Grads() []float64 { return w.store.Grads }

// ZeroGrads clears gradients.
func (w *replica[M, B]) ZeroGrads() { w.store.ZeroGrads() }

// BackwardSchedule exposes the model's backward cost schedule.
func (w *replica[M, B]) BackwardSchedule() []nn.LayerCost { return w.sched }

// borrow takes an engine from the pool, waiting while every engine is
// busy, and binds it to this rank's parameters. Nothing that waits on
// another rank may run between borrow and release.
func (w *replica[M, B]) borrow() *engine[M, B] {
	e := <-w.engines
	e.model.Bind(w.store)
	return e
}

func (w *replica[M, B]) release(e *engine[M, B]) { w.engines <- e }

// share widens w's pool to the given number of engines and returns
// others more replicas over it, each owning a copy of w's parameters (replicas of a
// data-parallel run start from identical parameters).
func (w *replica[M, B]) share(others, engines int) []replica[M, B] {
	pool := make(chan *engine[M, B], engines)
	pool <- <-w.engines
	for len(pool) < engines {
		pool <- &engine[M, B]{model: w.newModel()}
	}
	w.engines = pool
	out := make([]replica[M, B], others)
	for i := range out {
		out[i] = *w
		out[i].store = nn.NewStore(w.N())
		copy(out[i].store.Params, w.store.Params)
	}
	return out
}

// sharing is implemented by every workload NewWorkload builds: replicas
// returns the receiver followed by ranks−1 more replicas, all borrowing
// from one pool that holds the given number of compute engines.
type sharing interface {
	replicas(ranks, engines int) []Workload
}

// VGGWorkload is VGG-16/Cifar-10 (Table 2 row 1).
type VGGWorkload struct {
	replica[*nn.VGGNarrow, data.ImageBatch]
	ds *data.Images // read-only, shared by the replicas
}

// NewVGGWorkload builds one worker's replica. modelSeed must be shared
// across ranks; dataSeed seeds the shared prototype bank.
func NewVGGWorkload(modelSeed, dataSeed int64) *VGGWorkload {
	return &VGGWorkload{
		replica: newReplica[*nn.VGGNarrow, data.ImageBatch](func() *nn.VGGNarrow {
			return nn.NewVGGNarrow(modelSeed, 16, 32, 64, 128, 10)
		}),
		ds: data.NewImages(dataSeed, 10),
	}
}

func (w *VGGWorkload) replicas(ranks, engines int) []Workload {
	out := []Workload{w}
	for _, r := range w.share(ranks-1, engines) {
		out = append(out, &VGGWorkload{replica: r, ds: w.ds})
	}
	return out
}

// Name identifies the workload.
func (w *VGGWorkload) Name() string { return "VGG" }

// ComputeBatch samples a batch and runs forward/backward.
func (w *VGGWorkload) ComputeBatch(r *rand.Rand, batchSize int) (float64, int, int) {
	e := w.borrow()
	defer w.release(e)
	w.ds.Batch(r, batchSize, &e.batch)
	loss, correct := e.model.Loss(e.batch.X, e.batch.Y)
	return loss, correct, batchSize
}

// Evaluate returns top-1 accuracy in [0,1] on held-out samples.
func (w *VGGWorkload) Evaluate(r *rand.Rand, samples int) float64 {
	e := w.borrow()
	defer w.release(e)
	correct := 0
	const chunk = 32
	done := 0
	for done < samples {
		b := chunk
		if samples-done < b {
			b = samples - done
		}
		w.ds.Batch(r, b, &e.batch)
		pred := e.model.Predict(e.batch.X)
		for i := range pred {
			if pred[i] == e.batch.Y[i] {
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

// LSTMWorkload is LSTM/AN4 (Table 2 row 2); the metric is a WER-like
// sequence error rate.
type LSTMWorkload struct {
	replica[*nn.LSTMClassifier, data.SeqBatch]
	ds *data.Sequences // read-only, shared by the replicas
}

// NewLSTMWorkload builds one worker's replica.
func NewLSTMWorkload(modelSeed, dataSeed int64) *LSTMWorkload {
	const seqLen, frameDim, classes, hidden = 20, 40, 12, 128
	return &LSTMWorkload{
		replica: newReplica[*nn.LSTMClassifier, data.SeqBatch](func() *nn.LSTMClassifier {
			return nn.NewLSTMClassifier(modelSeed, frameDim, hidden, classes, seqLen)
		}),
		ds: data.NewSequences(dataSeed, classes, seqLen, frameDim),
	}
}

func (w *LSTMWorkload) replicas(ranks, engines int) []Workload {
	out := []Workload{w}
	for _, r := range w.share(ranks-1, engines) {
		out = append(out, &LSTMWorkload{replica: r, ds: w.ds})
	}
	return out
}

// Name identifies the workload.
func (w *LSTMWorkload) Name() string { return "LSTM" }

// ComputeBatch samples sequences and runs BPTT.
func (w *LSTMWorkload) ComputeBatch(r *rand.Rand, batchSize int) (float64, int, int) {
	e := w.borrow()
	defer w.release(e)
	w.ds.Batch(r, batchSize, &e.batch)
	loss, correct := e.model.Loss(e.batch.Seq, e.batch.Y)
	return loss, correct, batchSize
}

// Evaluate returns the sequence error rate (lower is better), the
// WER-like metric for the speech substitution.
func (w *LSTMWorkload) Evaluate(r *rand.Rand, samples int) float64 {
	e := w.borrow()
	defer w.release(e)
	wrong := 0
	const chunk = 16
	done := 0
	for done < samples {
		b := chunk
		if samples-done < b {
			b = samples - done
		}
		w.ds.Batch(r, b, &e.batch)
		pred := e.model.Predict(e.batch.Seq)
		for i := range pred {
			if pred[i] != e.batch.Y[i] {
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

// BERTWorkload is BERT/Wikipedia pre-training (Table 2 row 3); the
// metric is the masked-LM loss on held-out batches.
type BERTWorkload struct {
	replica[*nn.TinyBERT, data.TokenBatch]
	ds *data.Corpus // read-only, shared by the replicas
}

// NewBERTWorkload builds one worker's replica.
func NewBERTWorkload(modelSeed, dataSeed int64) *BERTWorkload {
	const vocab, dim, heads, layers, seqLen, ff = 1000, 64, 4, 2, 32, 256
	return &BERTWorkload{
		replica: newReplica[*nn.TinyBERT, data.TokenBatch](func() *nn.TinyBERT {
			return nn.NewTinyBERT(modelSeed, vocab, dim, heads, layers, seqLen, ff)
		}),
		ds: data.NewCorpus(dataSeed, vocab, seqLen),
	}
}

func (w *BERTWorkload) replicas(ranks, engines int) []Workload {
	out := []Workload{w}
	for _, r := range w.share(ranks-1, engines) {
		out = append(out, &BERTWorkload{replica: r, ds: w.ds})
	}
	return out
}

// Name identifies the workload.
func (w *BERTWorkload) Name() string { return "BERT" }

// ComputeBatch samples masked sequences and runs the MLM objective.
func (w *BERTWorkload) ComputeBatch(r *rand.Rand, batchSize int) (float64, int, int) {
	e := w.borrow()
	defer w.release(e)
	b := &e.batch
	w.ds.Batch(r, batchSize, b)
	loss, correct := e.model.Loss(b.IDs, b.Pos, b.Tgt)
	total := 0
	for _, p := range b.Pos {
		total += len(p)
	}
	return loss, correct, total
}

// Evaluate returns the mean masked-LM loss on held-out batches (lower is
// better). Gradients are clobbered; callers evaluate between steps.
func (w *BERTWorkload) Evaluate(r *rand.Rand, samples int) float64 {
	e := w.borrow()
	defer w.release(e)
	var sum float64
	batches := 0
	const chunk = 8
	for done := 0; done < samples; done += chunk {
		b := &e.batch
		w.ds.Batch(r, chunk, b)
		loss, _ := e.model.Loss(b.IDs, b.Pos, b.Tgt)
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

// WorkloadKind is one workload of the evaluation: the name a run
// selects it by, its factory, and how it trains unless the run says
// otherwise.
type WorkloadKind struct {
	Name string
	New  func(modelSeed, dataSeed int64) Workload
	LR   float64 // default learning rate
	Adam bool    // raw gradients + Adam (the paper's BERT setup), else SGD
}

// Workloads lists the workloads in Table 2 order. A new workload is one
// more row.
var Workloads = []WorkloadKind{
	{Name: "VGG", New: func(m, d int64) Workload { return NewVGGWorkload(m, d) }, LR: 0.03},
	{Name: "LSTM", New: func(m, d int64) Workload { return NewLSTMWorkload(m, d) }, LR: 0.3},
	{Name: "BERT", New: func(m, d int64) Workload { return NewBERTWorkload(m, d) }, LR: 1e-3, Adam: true},
}

// WorkloadNamed returns the Workloads row called name, or the zero
// WorkloadKind (nil New, LR 0) when there is none.
func WorkloadNamed(name string) WorkloadKind {
	for _, w := range Workloads {
		if w.Name == name {
			return w
		}
	}
	return WorkloadKind{}
}

// NewWorkload constructs the named workload.
func NewWorkload(name string, modelSeed, dataSeed int64) Workload {
	w := WorkloadNamed(name)
	if w.New == nil {
		panic(fmt.Sprintf("train: unknown workload %q", name))
	}
	return w.New(modelSeed, dataSeed)
}
