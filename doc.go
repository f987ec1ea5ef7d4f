// Package repro is a from-scratch Go reproduction of "Near-Optimal
// Sparse Allreduce for Distributed Deep Learning" (Li & Hoefler, PPoPP
// 2022): the Ok-Topk O(k) sparse allreduce and SGD scheme, the four
// sparse-allreduce baselines it is evaluated against, and the full
// substrate needed to regenerate every table and figure of the paper's
// evaluation — an in-process message-passing cluster runtime with an
// α-β/LogGP network cost model, dense collectives, a pure-Go neural
// network library with manual backprop, synthetic stand-ins for the
// paper's datasets, and a distributed training loop.
//
// Layout:
//
//	internal/core        the paper's contribution (O(k) sparse allreduce)
//	internal/sparsecoll  baselines: TopkA, TopkDSA, gTopk, Gaussiank
//	internal/allreduce   shared algorithm interface + dense baselines
//	internal/collectives dense collective algorithms on pooled payloads
//	internal/cluster     P-worker message-passing runtime (MPI stand-in)
//	                     with pluggable transports: the in-process backend
//	                     (typed pooled messages, per-rank buffer pools with
//	                     ownership-transfer, batched mailboxes, atomic
//	                     sense-reversing barrier) and a multi-process TCP
//	                     backend (length-prefixed frames, rank-0
//	                     rendezvous, full mesh); f64/f32 wire formats
//	internal/netmodel    α-β cost model and phase-attributed clocks
//	internal/topk        selection strategies and threshold reuse
//	internal/sparse      COO sparse vectors + single-owner Vec pools
//	internal/nn          layers and the three workload models
//	internal/data        synthetic Cifar/AN4/Wikipedia stand-ins
//	internal/optimizer   SGD/Adam update rules and LR schedules
//	internal/train       distributed training sessions
//	internal/checkpoint  save/restore of distributed training state
//	internal/tensor      deterministic parallel compute kernels (worker
//	                     pool, row-owned GEMMs, Mat scratch) + seeded RNG
//	internal/trace       per-message event recording and timelines
//	internal/experiments runner registry + parallel experiment scheduler
//	internal/worker      multi-process worker entrypoint and launcher
//	                     with a checkpoint-based restart policy
//	internal/chaos       deterministic fault-injection plans + chaos
//	                     conformance suite
//	internal/conformance cross-backend (inproc vs tcp) conformance suite
//	internal/profiling   shared -cpuprofile/-memprofile flags for the cmds
//	cmd/oktopk-bench     regenerate any experiment by id (-parallel, -out)
//	cmd/oktopk-train     run one training configuration
//	cmd/oktopk-worker    hosts one rank of a -transport tcp job
//	examples/            runnable walk-throughs of the public API
//
// The whole collective stack runs on either of two wire formats,
// selected by the -wire {f64,f32} flag on both commands (and
// train.Config.Wire / cluster.NewWire in code): the default f64 wire is
// the seed behavior — every transmitted element is an 8-byte word —
// while the f32 wire matches the paper's systems, which ship float32
// gradients: values are rounded to float32 exactly once at the send
// edge, travel in pooled []float32 buffers, and every 4-byte element
// (value or index) is accounted as half a word, halving all β terms and
// pool value-buffer memory. Compute stays float64 in both modes, and
// both modes preserve the zero-allocation steady state, bit-identical
// replicas, and byte-identical output at any -parallel/-workers
// setting. See DESIGN.md's "wire format" section and the paired
// f64/f32 tables in EXPERIMENTS.md.
//
// The cluster runtime is transport-pluggable: the default inproc
// backend runs all P ranks as goroutines in one process, while
// -transport tcp (both commands; train.Config.Transport in code) runs
// the identical collectives as a real multi-process job — one worker
// process per rank, re-executed via the OKTOPK_WORKER_JOB protocol
// (worker.ExitIfWorker at the top of main), rank 0 as rendezvous, a
// full TCP mesh of length-prefixed frames. Modeled time stays
// authoritative and bit-identical across backends (pinned by the
// internal/conformance suite); TCP runs additionally report host
// wall-clock. See DESIGN.md's "Transport layer" section.
//
// The TCP job is fault-tolerant: frames carry CRC32-C checksums (silent
// corruption becomes a rank-attributed error), heartbeat frames detect
// dead or wedged peers within interval×misses (-hb-interval/-hb-miss;
// -net-timeout bounds rendezvous and receives), and the detecting rank
// broadcasts an abort so every survivor fails promptly. With
// -checkpoint set, oktopk-train -transport tcp relaunches a failed job
// from the last checkpoint (-max-restarts/-restart-backoff) and the
// recovered run is bit-identical — loss, metric, modeled clock — to an
// unfailed one. internal/chaos drives all of this deterministically:
// seed-derived fault plans (kill/wedge/corrupt/drop/stall/delay at an
// exact rank and frame) feed a transport hook, and the chaos
// conformance suite enforces the error-or-identical dichotomy. See
// DESIGN.md's "Failure model" section.
//
// The Dense(Ovlp) baseline's backward/communication overlap is
// simulated from first principles rather than discounted: models
// expose per-layer backward schedules (nn.LayerCost), netmodel clocks
// grow a two-track overlap window, and the trainer issues each
// gradient bucket's allreduce the moment its last contributing layer
// finishes backward (DESIGN.md "Overlap engine"). Message traces and
// checkpoint/resume are wired into both commands (-trace, and
// -checkpoint/-ckpt-every/-resume on oktopk-train).
//
// The benchmarks in bench_test.go regenerate each table/figure regime
// under `go test -bench`; see DESIGN.md for the per-experiment index and
// EXPERIMENTS.md for paper-vs-measured results.
package repro
