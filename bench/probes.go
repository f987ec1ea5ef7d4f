package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/allreduce"
	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/collectives"
	"repro/internal/experiments"
	"repro/internal/netmodel"
	"repro/internal/sparse"
	"repro/internal/tensor"
	"repro/internal/topk"
	"repro/internal/train"
	"repro/internal/worker"
)

// The probes time direct calls into each layer's public functions at
// the workloads' shapes. They are per-layer rows: reported, never
// gated, and each says in README.md which end-to-end metric it should
// move on which workload. A traced run carries the probes of the layers
// its workload was chosen to stress (probeGroups), so one traced run of
// each workload measures every row once; -probes runs them all.

// Probe shapes: the quick Table-1 regime the reduce workloads use.
const (
	probeN = 1000000
	probeK = 10000
)

// timeMedian calls f once untimed, then reps times, and returns the
// median seconds per call.
func timeMedian(reps int, f func()) float64 {
	f()
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		f()
		ds[i] = time.Since(t0).Seconds()
	}
	return median(ds)
}

// rankLoop runs body iters times on every rank of a fresh inproc
// cluster inside one Cluster.Run and returns seconds per iteration.
func rankLoop(p int, wire cluster.Wire, iters int, body func(cm *cluster.Comm, i int)) (float64, error) {
	c := cluster.NewWire(p, netmodel.PizDaint(), wire)
	start := time.Now()
	err := safely(func() error {
		return c.Run(func(cm *cluster.Comm) error {
			for i := 0; i < iters; i++ {
				body(cm, i)
			}
			return nil
		})
	})
	return time.Since(start).Seconds() / float64(iters), err
}

// meshLoop is rankLoop over a loopback TCP mesh; it also returns the
// time the mesh took to build and to close.
func meshLoop(p int, wire cluster.Wire, iters int, body func(cm *cluster.Comm, i int)) (perIter, rendezvous, closing float64, err error) {
	t0 := time.Now()
	clusters, err := tcpMesh(p, netmodel.PizDaint(), wire)
	if err != nil {
		return 0, 0, 0, err
	}
	rendezvous = time.Since(t0).Seconds()
	errs := make(chan error, p) // one send per rank
	start := time.Now()
	for _, c := range clusters {
		go func() {
			errs <- safely(func() error {
				return c.Run(func(cm *cluster.Comm) error {
					for i := 0; i < iters; i++ {
						body(cm, i)
					}
					return nil
				})
			})
		}()
	}
	for range clusters {
		if e := <-errs; e != nil && err == nil {
			err = e
		}
	}
	perIter = time.Since(start).Seconds() / float64(iters)
	t0 = time.Now()
	if cerr := closeAll(clusters); err == nil {
		err = cerr
	}
	return perIter, rendezvous, time.Since(t0).Seconds(), err
}

// ringStream pushes iters frames of vals values from every rank to its
// successor with at most 64 in flight: back-to-back traffic the corked
// writer can coalesce, bounded so mailboxes do not absorb the run.
func ringStream(p int, wire cluster.Wire, vals, iters int) func(cm *cluster.Comm, i int) {
	const window, tag = 64, 7
	inFlight := make([]int, p)
	return func(cm *cluster.Comm, i int) {
		r, p := cm.Rank(), cm.Size()
		next, prev := (r+1)%p, (r-1+p)%p
		recv := func() {
			if wire == cluster.WireF32 {
				cm.PutFloat32s(cm.RecvFloat32(prev, tag))
			} else {
				cm.PutFloats(cm.RecvFloat64(prev, tag))
			}
		}
		if wire == cluster.WireF32 {
			cm.SendFloat32s(next, tag, cm.GetFloat32s(vals), wire.Words(vals))
		} else {
			cm.SendFloats(next, tag, cm.GetFloats(vals), vals)
		}
		if inFlight[r]++; inFlight[r] > window {
			recv()
			inFlight[r]--
		}
		if i == iters-1 {
			for ; inFlight[r] > 0; inFlight[r]-- {
				recv()
			}
		}
	}
}

// streamFrames is the per-rank frame count of the TCP stream probes.
const streamFrames = 40000

// sweepShape is the all-algorithm sweep's configuration: the Table-1
// shape at P=8 on the f64 wire.
func sweepShape(algo string) shape {
	return shape{
		name: "sweep-" + algo, algo: algo, p: 8, n: probeN,
		wire: cluster.WireF64, warmup: 2,
		cfg: allreduce.Config{K: probeK, Tau: 64, TauPrime: 64},
	}
}

// prober carries what the probes share: where rows go, the seed, and one
// heavy-tailed gradient at the probe shape.
type prober struct {
	ms     *metricSet
	seed   int64
	stderr io.Writer
	x      []float64
}

// skip leaves a row unmeasured because its probe cannot run on this host
// (loopback or exec refused) and says why.
func (pr *prober) skip(name string, err error) {
	fmt.Fprintf(pr.stderr, "bench: probe %s unavailable: %v\n", name, err)
}

// probeGroups names, per workload, the probes its traced run carries.
var probeGroups = map[string][]func(*prober){
	"train-vgg":        {(*prober).nn, (*prober).tensor, (*prober).experiments, (*prober).checkpoint, (*prober).worker},
	"reduce-oktopk":    {(*prober).topk, (*prober).sparse, (*prober).sweep},
	"reduce-dense-f32": {(*prober).collectives, (*prober).clusterInproc, (*prober).netmodel},
	"reduce-tcp":       {(*prober).clusterTCP},
}

// runProbes runs the probes of one workload's group, or of every group
// for the empty name, and sets their rows in ms.
func runProbes(ms *metricSet, workload string, seed int64, stderr io.Writer) {
	pr := &prober{ms: ms, seed: seed, stderr: stderr, x: gradients(seed, 1, probeN, probeK)[0]}
	for _, sh := range workloads {
		if workload == "" || workload == sh.name {
			for _, probe := range probeGroups[sh.name] {
				probe(pr)
			}
		}
	}
}

// nn: one forward+backward at batch 4, per model.
func (pr *prober) nn() {
	ms, seed := pr.ms, pr.seed
	for _, m := range []struct{ row, workload string }{
		{"nn.compute_batch_ms.vgg", "VGG"}, {"nn.compute_batch_ms.lstm", "LSTM"}, {"nn.compute_batch_ms.bert", "BERT"},
	} {
		w := train.NewWorkload(m.workload, seed, seed+1)
		rng := rand.New(rand.NewSource(seed))
		ms.set(m.row, 1e3*timeMedian(15, func() {
			w.ZeroGrads()
			w.ComputeBatch(rng, 4)
		}))
	}
}

// tensor kernels.
func (pr *prober) tensor() {
	ms, seed, x := pr.ms, pr.seed, pr.x
	rng := rand.New(rand.NewSource(seed))
	fill := func(rows, cols int) *tensor.Mat {
		m := tensor.NewMat(rows, cols)
		tensor.RandN(rng, m.Data, 1)
		return m
	}
	a, b, c := fill(512, 64), fill(64, 256), tensor.NewMat(512, 256)
	ms.set("tensor.matmul_gflops", 2*512*64*256/1e9/timeMedian(30, func() { tensor.MatMul(a, b, c) }))
	a, b, c = fill(256, 128), fill(256, 128), tensor.NewMat(256, 256)
	ms.set("tensor.gemmtb_gflops", 2*256*128*256/1e9/timeMedian(30, func() { tensor.GemmTB(a, b, c) }))
	dst, y := make([]float64, probeN), make([]float64, probeN)
	ms.set("tensor.scaleadd_gb_s", 3*8*probeN/1e9/timeMedian(30, func() { tensor.ScaleAdd(dst, 0.1, x, y) }))
}

// topk selection.
func (pr *prober) topk() {
	ms, x := pr.ms, pr.x
	var th float64
	var scratch []float64
	ms.set("topk.threshold_ms", 1e3*timeMedian(15, func() { th, scratch = topk.ThresholdInto(x, probeK, scratch) }))
	var idx []int32
	ms.set("topk.select_scan_ms", 1e3*timeMedian(30, func() { idx = topk.AppendSelectByThreshold(idx[:0], x, th) }))
	var count int
	ms.set("topk.count_above_ms", 1e3*timeMedian(30, func() { count += topk.CountAbove(x, th) }))
	var gth float64
	ms.set("topk.gaussian_ms", 1e3*timeMedian(30, func() { gth += topk.GaussianThreshold(x, probeK) }))
	runtime.KeepAlive(count)
	runtime.KeepAlive(gth)
}

// sparse merges.
func (pr *prober) sparse() {
	ms, seed, x := pr.ms, pr.seed, pr.x
	th, _ := topk.ThresholdInto(x, probeK, nil)
	rng := rand.New(rand.NewSource(seed))
	sortedRun := func(n int) []int32 {
		seen := make(map[int32]bool, n)
		run := make([]int32, 0, n)
		for len(run) < n {
			if v := int32(rng.Intn(probeN)); !seen[v] {
				seen[v] = true
				run = append(run, v)
			}
		}
		sort.Slice(run, func(i, j int) bool { return run[i] < run[j] })
		return run
	}
	var master []int32
	for r := 0; r < 8; r++ {
		master = append(master, sortedRun(probeK)...)
	}
	idx, scratch, ends := make([]int32, len(master)), make([]int32, len(master)), make([]int, 8)
	var spent []float64
	for rep := 0; rep < 40; rep++ {
		copy(idx, master) // MergeRuns sorts in place and clobbers ends
		for r := range ends {
			ends[r] = (r + 1) * probeK
		}
		t0 := time.Now()
		sparse.MergeRuns(idx, ends, scratch)
		spent = append(spent, time.Since(t0).Seconds())
	}
	ms.set("sparse.merge_runs_us", 1e6*median(spent[1:]))

	vec := func() *sparse.Vec {
		v := sparse.New(probeN)
		v.Indexes = sortedRun(probeK)
		v.Values = make([]float64, probeK)
		tensor.RandN(rng, v.Values, 1)
		return v
	}
	va, vb, vout := vec(), vec(), sparse.New(probeN)
	ms.set("sparse.add_us", 1e6*timeMedian(200, func() { sparse.AddTo(vout, va, vb) }))
	var nnz int
	ms.set("sparse.from_dense_threshold_ms", 1e3*timeMedian(30, func() { nnz += sparse.FromDenseThreshold(x, th).NNZ() }))
	runtime.KeepAlive(nnz)
}

// collectives on the inproc cluster.
func (pr *prober) collectives() {
	ms, x, skip := pr.ms, pr.x, pr.skip
	perRank := func(p, n int) [][]float64 {
		bufs := make([][]float64, p)
		for r := range bufs {
			bufs[r] = make([]float64, n)
			copy(bufs[r], x)
		}
		return bufs
	}
	// Each call sums P copies in place, so values grow P-fold per
	// iteration; at most 8^20 of them stays far inside float64.
	dense := func(name string, p, iters int, f func(cm *cluster.Comm, buf []float64)) {
		bufs := perRank(p, probeN)
		s, err := rankLoop(p, cluster.WireF64, iters, func(cm *cluster.Comm, _ int) {
			f(cm, bufs[cm.Rank()])
		})
		if err != nil {
			skip(name, err)
			return
		}
		ms.set(name, 1e3*s)
	}
	dense("collectives.allreduce_ms", 4, 40, func(cm *cluster.Comm, buf []float64) { collectives.Allreduce(cm, buf) })
	dense("collectives.allreduce_ring_ms", 4, 40, func(cm *cluster.Comm, buf []float64) { collectives.AllreduceRing(cm, buf) })
	dense("collectives.hierarchical_ms", 8, 20, func(cm *cluster.Comm, buf []float64) { collectives.HierarchicalAllreduce(cm, buf, 4) })

	chunks := make([][]collectives.Chunk, 8)
	s, err := rankLoop(8, cluster.WireF64, 400, func(cm *cluster.Comm, _ int) {
		// The payload is only read, so every iteration may share it.
		chunks[cm.Rank()] = collectives.AllgathervInto(cm, collectives.Chunk{Data: x[:probeK]}, chunks[cm.Rank()])
	})
	if err != nil {
		skip("collectives.allgatherv_us", err)
	} else {
		ms.set("collectives.allgatherv_us", 1e6*s)
	}
}

// cluster, inproc runtime.
func (pr *prober) clusterInproc() {
	ms, skip := pr.ms, pr.skip
	c := cluster.NewWire(8, netmodel.PizDaint(), cluster.WireF64)
	ms.set("cluster.run_empty_us", 1e6*timeMedian(2000, func() {
		_ = c.Run(func(*cluster.Comm) error { return nil }) // an empty body cannot fail
	}))
	if s, err := rankLoop(8, cluster.WireF64, 5000, func(cm *cluster.Comm, _ int) { cm.Barrier() }); err != nil {
		skip("cluster.barrier_us", err)
	} else {
		ms.set("cluster.barrier_us", 1e6*s)
	}
	// One iteration is a round trip of a 1k-float pooled buffer.
	bufs := make([][]float64, 2)
	s, err := rankLoop(2, cluster.WireF64, 10000, func(cm *cluster.Comm, i int) {
		r := cm.Rank()
		if i == 0 {
			bufs[r] = cm.GetFloats(1000)
		}
		if r == 0 {
			cm.SendFloats(1, 3, bufs[r], 1000)
			bufs[r] = cm.RecvFloat64(1, 3)
		} else {
			got := cm.RecvFloat64(0, 3)
			cm.SendFloats(0, 3, got, 1000)
		}
	})
	if err != nil {
		skip("cluster.pingpong_us", err)
	} else {
		ms.set("cluster.pingpong_us", 1e6*s)
	}
}

// cluster.tcp: loopback mesh.
func (pr *prober) clusterTCP() {
	ms, seed, skip := pr.ms, pr.seed, pr.skip
	perIter, rendezvous, closing, err := meshLoop(4, cluster.WireF32, 2000, func(cm *cluster.Comm, _ int) { cm.Barrier() })
	if err != nil {
		for _, name := range []string{"cluster.tcp.barrier_us", "cluster.tcp.rendezvous_ms", "cluster.tcp.close_ms"} {
			skip(name, err)
		}
	} else {
		ms.set("cluster.tcp.barrier_us", 1e6*perIter)
		ms.set("cluster.tcp.rendezvous_ms", 1e3*rendezvous)
		ms.set("cluster.tcp.close_ms", 1e3*closing)
	}
	if perIter, _, _, err := meshLoop(2, cluster.WireF64, streamFrames, ringStream(2, cluster.WireF64, 16, streamFrames)); err != nil {
		skip("cluster.tcp.small_frames_per_s", err)
	} else {
		ms.set("cluster.tcp.small_frames_per_s", 2/perIter)
	}
	if perIter, _, _, err := meshLoop(2, cluster.WireF32, streamFrames, ringStream(2, cluster.WireF32, 4096, streamFrames)); err != nil {
		skip("cluster.tcp.large_mb_s", err)
	} else {
		// Wire bytes of one frame: 46 of framing plus the payload.
		ms.set("cluster.tcp.large_mb_s", 2*(46+4096*4)/1e6/perIter)
	}

	okTCP := sweepShape("OkTopk")
	okTCP.p, okTCP.tcp, okTCP.warmup = 4, true, 64
	if o := execute(runConfig{sh: okTCP, seed: seed, ops: 100}); o.failed > 0 {
		skip("cluster.tcp.oktopk_reduce_ms", o.errs[0])
	} else {
		ms.set("cluster.tcp.oktopk_reduce_ms", median(o.opMs))
	}
}

// netmodel: one send stamp plus the matching receive stamp, the
// direction alternating so both clocks advance and no backlog builds.
func (pr *prober) netmodel() {
	ms, seed, skip := pr.ms, pr.seed, pr.skip
	stampPair := func(params netmodel.Params, ra, rb int) float64 {
		a, b := netmodel.NewRankClock(params, ra), netmodel.NewRankClock(params, rb)
		const pairs = 1000000
		s := timeMedian(5, func() {
			for i := 0; i < pairs; i += 2 {
				b.StampRecvFrom(ra, a.StampSendTo(rb, 100), 100)
				a.StampRecvFrom(rb, b.StampSendTo(ra, 100), 100)
			}
		})
		return 1e9 * s / pairs
	}
	ms.set("netmodel.stamp_pair_ns", stampPair(netmodel.PizDaint(), 0, 5))
	topo, err := netmodel.BuildTopology("fattree", 4, 0, seed)
	if err != nil {
		skip("netmodel.stamp_pair_topo_ns", err)
	} else {
		params := netmodel.PizDaint()
		params.Topo = topo
		ms.set("netmodel.stamp_pair_topo_ns", stampPair(params, 0, 5)) // ranks 0 and 5 sit on different nodes
	}
}

// experiments: the spec scheduler on the table1 runner.
func (pr *prober) experiments() {
	ms, skip := pr.ms, pr.skip
	if runner, ok := experiments.FindRunner("table1"); !ok {
		skip("experiments.runspecs_table1_s", fmt.Errorf("no table1 runner"))
	} else {
		timeSpecs := func(ps []int, parallel int) float64 {
			specs := runner.Specs(experiments.Scale{Table1Ps: ps, Table1N: 100000, Table1K: 1000})
			t0 := time.Now()
			experiments.RunSpecs(specs, parallel)
			return time.Since(t0).Seconds()
		}
		ms.set("experiments.runspecs_table1_s", timeSpecs([]int{8}, 1))
		// One spec per CPU, so the parallel schedule has work for each.
		ps := make([]int, runtime.NumCPU())
		for i := range ps {
			ps[i] = 8
		}
		serial := timeSpecs(ps, 1)
		ms.set("experiments.runspecs_parallel_speedup", serial/timeSpecs(ps, len(ps)))
	}
}

// checkpoint: a P=8 VGG session through Save and Load on a buffer.
func (pr *prober) checkpoint() {
	ms, seed, skip := pr.ms, pr.seed, pr.skip
	s := train.NewSession(train.Config{
		Workload: "VGG", Algorithm: "OkTopk", P: 8, Batch: 4, Seed: seed,
		Reduce: allreduce.Config{Density: 0.02, Tau: 32, TauPrime: 32},
	})
	s.RunIteration()
	ck := s.Checkpoint()
	var buf bytes.Buffer
	var err error
	save := timeMedian(5, func() {
		buf.Reset()
		if e := ck.Save(&buf); e != nil {
			err = e
		}
	})
	load := timeMedian(5, func() {
		if _, e := checkpoint.Load(bytes.NewReader(buf.Bytes())); e != nil {
			err = e
		}
	})
	if err != nil {
		skip("checkpoint.save_ms, checkpoint.load_ms", err)
		return
	}
	ms.set("checkpoint.save_ms", 1e3*save)
	ms.set("checkpoint.load_ms", 1e3*load)
}

// worker: a 4-process, 5-iteration VGG job, spawn to exit. The children
// are this binary re-executed (main calls ExitIfWorker).
func (pr *prober) worker() {
	ms, seed, skip := pr.ms, pr.seed, pr.skip
	t0 := time.Now()
	_, err := worker.Launch(worker.Job{
		Kind: "train", Size: 4, Wire: cluster.WireF64,
		Train: &worker.TrainJob{Iters: 5, Config: train.Config{
			Workload: "VGG", Algorithm: "OkTopk", P: 4, Batch: 4, Seed: seed,
			Reduce: allreduce.Config{Density: 0.02, Tau: 32, TauPrime: 32},
		}},
	}, worker.LaunchOptions{Timeout: 90 * time.Second})
	if err != nil {
		skip("worker.launch_s", err)
	} else {
		ms.set("worker.launch_s", time.Since(t0).Seconds())
	}
}

// sweep: every algorithm at one shape, 30 ops each.
func (pr *prober) sweep() {
	ms, seed, skip := pr.ms, pr.seed, pr.skip
	for _, algo := range sweepAlgorithms() {
		o := execute(runConfig{sh: sweepShape(algo), seed: seed, ops: 30})
		prefix := "allreduce." + algo
		if o.failed > 0 {
			skip(prefix+".reduce_ms", o.errs[0])
			skip(prefix+".sim_ms", o.errs[0])
			skip(prefix+".words_per_rank", o.errs[0])
			continue
		}
		ms.set(prefix+".reduce_ms", median(o.opMs))
		ms.set(prefix+".sim_ms", o.simMsPerOp)
		ms.set(prefix+".words_per_rank", o.wordsPerOp)
	}
}
