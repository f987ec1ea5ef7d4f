// Command oktopk-train runs one distributed training session on the
// simulated cluster and reports loss, metric and the per-phase runtime
// breakdown:
//
//	oktopk-train -workload VGG -algo OkTopk -p 16 -iters 200 -density 0.02
//
// Long convergence studies can stop and resume: -checkpoint FILE saves
// the full training state (parameters, residuals, Adam moments,
// per-rank modeled clocks, iteration counter) every -ckpt-every
// iterations and at exit, and -resume FILE restores a previous
// checkpoint and continues to -iters. The continuation reproduces the
// uninterrupted trajectory bit-for-bit — loss, metric, and the
// modeled-time column, which stays continuous across the resume — when
// the checkpoint falls on a τ/τ′ boundary (pick -ckpt-every as a
// multiple of both periods; sparse algorithms re-evaluate thresholds
// and region boundaries there, so no unserialized selection state is
// lost). -trace FILE records the final iteration's message trace
// (per-rank summary plus timeline) for offline analysis.
//
// -transport tcp runs the session as a real multi-process job: the
// command relaunches itself as one worker process per rank, the ranks
// form a TCP mesh (rank 0 is the rendezvous point), and the identical
// collectives run over real sockets. Both transports run the same
// training loop (train.Session.Train), so the worker hosting rank 0
// prints, and the command relays, exactly the progress lines an inproc
// run prints: modeled time stays authoritative and bit-identical, and a
// last line adds the job's host wall-clock. Tracing needs the inproc
// transport; checkpoint/resume work on both.
//
// The tcp job is fault tolerant. Failure detection: every frame is
// CRC-checked, and heartbeat probes (-hb-interval, -hb-miss) declare a
// dead or wedged peer within interval×misses even when its socket
// stays open; the first failure is broadcast so all ranks stop
// promptly, each with a rank-attributed error. -net-timeout bounds
// rendezvous and every receive stall. Recovery: with -checkpoint set,
// a failed job is relaunched up to -max-restarts times (doubling
// -restart-backoff between attempts), resuming from the last
// checkpoint; the recovered run's loss, metric, and modeled time are
// bit-identical to an unfailed run's.
//
// -topology {flat,fattree,nvlink} with -node-size and -straggler train
// under a network topology: hierarchical intra/inter-node links, rail
// contention, and deterministic straggler/jitter injection seeded from
// -seed. The flat default reproduces the pre-topology model
// bit-for-bit; -algo Hierarchical selects the two-level node-aware
// dense allreduce the hierarchical topologies reward. The topology
// travels inside the job config, so tcp runs price it identically.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/allreduce"
	"repro/internal/cluster"
	"repro/internal/netmodel"
	"repro/internal/profiling"
	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/internal/train"
	"repro/internal/worker"
)

func main() {
	worker.ExitIfWorker()
	var loads, schemes []string
	for _, w := range train.Workloads {
		loads = append(loads, w.Name)
	}
	for _, s := range train.Schemes {
		schemes = append(schemes, s.Name)
	}
	loadList, schemeList := strings.Join(loads, " | "), strings.Join(schemes, " | ")
	var (
		workload  = flag.String("workload", "VGG", loadList)
		algo      = flag.String("algo", "OkTopk", schemeList)
		p         = flag.Int("p", 8, "number of workers")
		batch     = flag.Int("batch", 4, "per-worker batch size")
		iters     = flag.Int("iters", 100, "training iterations")
		density   = flag.Float64("density", 0.02, "k/n")
		lr        = flag.Float64("lr", 0, "learning rate (0 = workload default)")
		tau       = flag.Int("tau", 64, "space repartition period τ")
		tauPrime  = flag.Int("tauprime", 32, "threshold re-evaluation period τ′")
		adam      = flag.Bool("adam", false, "use Adam on raw gradients (paper's BERT setup)")
		seed      = flag.Int64("seed", 42, "deterministic seed")
		evalEvery = flag.Int("eval", 20, "evaluate every N iterations (0 = only after the last)")
		commodity = flag.Bool("commodity", false, "use commodity-cloud network constants")
		topology  = flag.String("topology", "flat", "network topology preset: flat | fattree | nvlink")
		nodeSize  = flag.Int("node-size", 0, "ranks per node for hierarchical topologies (0 = preset default; also sets the Hierarchical algorithm's grouping)")
		straggler = flag.Float64("straggler", 0, "straggler severity s: ~12.5% of ranks compute (1+s)x slower with 0.1*s jitter, seeded from -seed (0 = off)")
		workers   = flag.Int("workers", 0, "upper bound on the blocks a tensor kernel splits into, fewer while other kernels run (0 = GOMAXPROCS; results are bit-identical at any setting)")
		wire      = flag.String("wire", "f64", "collective wire format: f64 (seed behavior) or f32 (float32 values, half-word accounting)")
		traceFile = flag.String("trace", "", "record the final iteration's message trace to this file")
		ckptFile  = flag.String("checkpoint", "", "save training state to this file (periodically and at exit)")
		ckptEvery = flag.Int("ckpt-every", 0, "checkpoint every N iterations (0 = only at exit; needs -checkpoint)")
		resume    = flag.String("resume", "", "restore a -checkpoint file and continue the run to -iters")
		transport = flag.String("transport", "inproc", "cluster backend: inproc (all ranks in this process) or tcp (one worker process per rank; reports wall-clock alongside modeled time)")

		netTimeout     = flag.Duration("net-timeout", 0, "tcp rendezvous/receive timeout (0 = default 60s)")
		hbInterval     = flag.Duration("hb-interval", 0, "tcp heartbeat interval (0 = default 1s; negative disables heartbeats)")
		hbMiss         = flag.Int("hb-miss", 0, "missed heartbeats before a peer is declared dead (0 = default 3)")
		maxRestarts    = flag.Int("max-restarts", 2, "tcp job relaunch attempts after a failure (needs -checkpoint to resume progress; 0 = fail fast)")
		restartBackoff = flag.Duration("restart-backoff", 0, "sleep before the first tcp relaunch, doubling per attempt (0 = default 250ms)")
	)
	flag.Parse()
	profiling.Start()
	defer profiling.Stop()
	if *evalEvery < 0 || *ckptEvery < 0 {
		fmt.Fprintln(os.Stderr, "oktopk-train: -eval and -ckpt-every must not be negative")
		flag.Usage()
		profiling.Exit(2)
	}
	// Bad names, sizes and flag pairings are refused here, before either
	// transport starts, instead of failing inside every rank.
	kind := train.WorkloadNamed(*workload)
	var bad string
	switch {
	case *p < 1:
		bad = fmt.Sprintf("-p %d: need at least one worker", *p)
	case kind.New == nil:
		bad = fmt.Sprintf("unknown -workload %q (%s)", *workload, loadList)
	case train.SchemeNamed(*algo).New == nil:
		bad = fmt.Sprintf("unknown -algo %q (%s)", *algo, schemeList)
	case *ckptEvery > 0 && *ckptFile == "":
		bad = "-ckpt-every needs -checkpoint"
	}
	if bad != "" {
		fmt.Fprintln(os.Stderr, "oktopk-train: "+bad)
		profiling.Exit(2)
	}
	tensor.SetWorkers(*workers)
	wm, err := cluster.ParseWire(*wire)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		profiling.Exit(2)
	}
	cfg := train.Config{
		Workload:  *workload,
		Algorithm: *algo,
		P:         *p,
		Batch:     *batch,
		Seed:      *seed,
		LR:        *lr,
		Adam:      *adam || kind.Adam,
		Wire:      wm,
		Reduce: allreduce.Config{
			Density: *density, Tau: *tau, TauPrime: *tauPrime,
		},
	}
	if cfg.LR == 0 {
		cfg.LR = kind.LR
	}
	if *commodity {
		cfg.Net = netmodel.Commodity()
	}
	topo, err := netmodel.BuildTopology(*topology, *nodeSize, *straggler, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		profiling.Exit(2)
	}
	cfg.Topology = topo
	cfg.Reduce.NodeSize = *nodeSize
	tk, err := cluster.ParseTransport(*transport)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		profiling.Exit(2)
	}
	job := train.Job{
		Config: cfg, Iters: *iters, EvalEvery: *evalEvery,
		Checkpoint: *ckptFile, CkptEvery: *ckptEvery, Resume: *resume,
	}
	if tk == cluster.TransportTCP {
		if *traceFile != "" {
			fmt.Fprintln(os.Stderr, "oktopk-train: -trace needs the inproc transport")
			profiling.Exit(2)
		}
		profiling.Exit(runTCP(job, tcpRun{
			timeout: *netTimeout, hbInterval: *hbInterval, hbMiss: *hbMiss,
			maxRestarts: *maxRestarts, backoff: *restartBackoff,
		}))
	}
	s := train.NewSession(cfg)
	fmt.Printf("training %s with %s on %d workers (n=%d, k=%d, batch=%d/worker)\n",
		*workload, *algo, *p, s.N(), cfg.Reduce.KFor(s.N()), *batch)
	var rec *trace.Recorder
	_, err = s.Train(job, func(it int) {
		if *traceFile != "" && it == *iters {
			// Record only the final iteration: the steady-state schedule
			// every iteration repeats, without the warm-up's threshold
			// and boundary evaluations.
			rec = trace.NewRecorder()
			s.Cluster.SetRecorder(rec)
		}
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		profiling.Exit(1)
	}
	if rec != nil {
		s.Cluster.SetRecorder(nil)
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			profiling.Exit(1)
		}
		fmt.Fprintf(f, "message trace: %s/%s P=%d iteration %d (%d events)\n\n",
			*workload, *algo, *p, *iters, rec.Len())
		rec.WriteSummary(f, *p)
		fmt.Fprintln(f)
		rec.WriteTimeline(f, 4000)
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			profiling.Exit(1)
		}
	}
	if d := s.ReplicaDivergence(); d != 0 {
		fmt.Fprintf(os.Stderr, "WARNING: replicas diverged by %v\n", d)
		profiling.Exit(1)
	}
}

// tcpRun bundles the tcp-job knobs of the command line.
type tcpRun struct {
	timeout     time.Duration
	hbInterval  time.Duration
	hbMiss      int
	maxRestarts int
	backoff     time.Duration
}

// runTCP executes the run as a real multi-process job: one worker
// process per rank over the TCP transport, relaunched from the last
// checkpoint on failure (up to -max-restarts times). Rank 0's progress
// lines are relayed, and the summary pairs the authoritative modeled
// time with the job's measured host wall-clock.
func runTCP(tj train.Job, r tcpRun) int {
	cfg := tj.Config
	fmt.Printf("training %s with %s on %d workers (tcp transport, one process per rank)\n",
		cfg.Workload, cfg.Algorithm, cfg.P)
	job := worker.Job{
		Kind: "train", Size: cfg.P, Wire: cfg.Wire,
		TimeoutSec:      r.timeout.Seconds(),
		HeartbeatMS:     int(r.hbInterval / time.Millisecond),
		HeartbeatMisses: r.hbMiss,
		Train:           &tj,
	}
	if r.hbInterval < 0 {
		job.HeartbeatMS = -1 // sub-millisecond negatives still disable
	}
	out, err := worker.LaunchWithRecovery(job, worker.LaunchOptions{Forward: os.Stdout},
		worker.RestartPolicy{MaxAttempts: r.maxRestarts + 1, Backoff: r.backoff})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if out.Train == nil {
		fmt.Fprintln(os.Stderr, "oktopk-train: rank 0 produced no report")
		return 1
	}
	// The attempt count only appears when a relaunch actually happened, so
	// an unfailed run's output stays format-identical to earlier releases.
	if out.Attempts > 1 {
		fmt.Printf("wall-clock %.2fs for %.2fs modeled (%d processes, %d attempts)\n",
			out.Wall.Seconds(), out.Train.SimSeconds, cfg.P, out.Attempts)
	} else {
		fmt.Printf("wall-clock %.2fs for %.2fs modeled (%d processes)\n",
			out.Wall.Seconds(), out.Train.SimSeconds, cfg.P)
	}
	return 0
}
