// Command oktopk-bench regenerates the paper's tables and figures on the
// simulated cluster. Each experiment id corresponds to one table or
// figure of the evaluation section (run `oktopk-bench list`):
//
//	oktopk-bench table1
//	oktopk-bench fig8
//	oktopk-bench -full all
//
// Each experiment expands into a grid of independent configurations
// (cluster size × density × workload × algorithm) that run concurrently
// on a bounded worker pool; -parallel sets the pool size. Every
// configuration is deterministically seeded and owns its simulated
// cluster, so the output is byte-identical at any -parallel setting.
// -out writes the aggregated metrics as results.csv and results.md.
// -wire {f64,f32} selects the collective wire format: running the same
// experiment in both modes yields the paired fidelity rows recorded in
// EXPERIMENTS.md (the paper's systems ship float32 gradients).
// -trace DIR records each training configuration's final-iteration
// message trace into DIR for offline analysis. -transport tcp makes the
// tcpsmoke experiment train its configuration over real worker
// processes (one per rank, TCP mesh), reporting host wall-clock
// alongside the modeled time; all other experiments always use the
// deterministic in-process backend.
// -topology {flat,fattree,nvlink} with -node-size and -straggler apply
// a network topology (hierarchical links, rail contention, seeded
// straggler injection) to every measurement cluster except fig7's,
// whose load-balancing comparison stays on the flat network; the
// default flat topology is byte-identical to the pre-topology model,
// and the topo experiment sweeps the presets against each other.
//
// The default scale finishes in minutes on a laptop; -full uses the
// paper's cluster sizes and longer runs.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/netmodel"
	"repro/internal/profiling"
	"repro/internal/tensor"
	"repro/internal/train"
	"repro/internal/worker"
)

var (
	full     = flag.Bool("full", false, "run at the paper's cluster sizes (slower)")
	parallel = flag.Int("parallel", runtime.NumCPU(),
		"max experiment configurations run concurrently (1 = serial; results are identical at any setting)")
	outDir = flag.String("out", "",
		"directory to write aggregated results.csv and results.md into")
	workers = flag.Int("workers", 0,
		"upper bound on the blocks a tensor kernel splits into, fewer while other kernels run (0 = GOMAXPROCS; results are bit-identical at any setting)")
	wire = flag.String("wire", "f64",
		"collective wire format: f64 (seed behavior) or f32 (float32 values, half-word accounting)")
	traceDir = flag.String("trace", "",
		"directory to record per-configuration message traces into (final training iteration of each weak-scaling/convergence config)")
	transport = flag.String("transport", "inproc",
		"cluster backend for transport-aware experiments: inproc (default; all figures, deterministic) or tcp (the tcpsmoke runner trains over one worker process per rank and reports wall-clock)")
	netTimeout = flag.Duration("net-timeout", 0,
		"tcp rendezvous/receive timeout for -transport tcp jobs (0 = default 300s for bench jobs)")
	topology = flag.String("topology", "flat",
		"network topology preset: flat (uniform, seed behavior), fattree (4x cheaper intra-node links, shared rails) or nvlink (NVLink island: 10x lower intra alpha, 12x intra bandwidth)")
	nodeSize = flag.Int("node-size", 0,
		"ranks per node for hierarchical topologies (0 = preset default)")
	straggler = flag.Float64("straggler", 0,
		"straggler severity s: ~12.5% of ranks compute (1+s)x slower with 0.1*s jitter, seeded deterministically (0 = off)")
)

func scale() experiments.Scale {
	if *full {
		return experiments.FullScale()
	}
	return experiments.QuickScale()
}

// settings fills sc's run settings from the -wire, -topology,
// -node-size, -straggler, -trace, -transport and -net-timeout flags.
func settings(sc experiments.Scale) (experiments.Scale, error) {
	var err error
	if sc.Wire, err = cluster.ParseWire(*wire); err != nil {
		return sc, err
	}
	sc.Topology, err = netmodel.BuildTopology(*topology, *nodeSize, *straggler,
		experiments.SeedFor("topology", *topology))
	if err != nil {
		return sc, err
	}
	sc.TraceDir = *traceDir
	tk, err := cluster.ParseTransport(*transport)
	if err != nil || tk != cluster.TransportTCP {
		return sc, err
	}
	timeout := cmp.Or(max(*netTimeout, 0), 300*time.Second)
	sc.TCPTrain = func(cfg train.Config, iters int) (experiments.TCPTrainResult, error) {
		out, err := worker.Launch(worker.Job{
			Kind: "train", Size: cfg.P, Wire: cfg.Wire, Timeout: timeout,
			Train: &worker.TrainJob{Config: cfg, Iters: iters},
		}, worker.LaunchOptions{})
		if err != nil {
			return experiments.TCPTrainResult{}, err
		}
		if out.Train == nil {
			return experiments.TCPTrainResult{}, fmt.Errorf("worker: rank 0 produced no train report")
		}
		return experiments.TCPTrainResult{
			SimSeconds: out.Train.SimSeconds,
			Loss:       out.Train.Loss,
			Metric:     out.Train.Metric,
			MetricName: out.Train.MetricName,
			Wall:       out.Wall,
		}, nil
	}
	return sc, nil
}

func main() {
	worker.ExitIfWorker()
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: oktopk-bench [-full] [-parallel N] [-out dir] <experiment id>|all|list\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	profiling.Start()
	defer profiling.Stop()
	if flag.NArg() != 1 {
		flag.Usage()
		profiling.Exit(2)
	}
	tensor.SetWorkers(*workers)
	sc, err := settings(scale())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		profiling.Exit(2)
	}
	id := flag.Arg(0)
	switch id {
	case "list":
		for _, r := range experiments.Registry() {
			fmt.Printf("%-8s %s\n", r.ID, r.Desc)
		}
		return
	case "all":
		profiling.Exit(run(sc, experiments.Registry()))
	}
	r, ok := experiments.FindRunner(id)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (try `oktopk-bench list`)\n", id)
		profiling.Exit(2)
	}
	profiling.Exit(run(sc, []experiments.Runner{r}))
}

// run expands the runners into one flat spec list — so configurations
// from different figures share the worker pool — executes it, renders
// each runner's report in registry order, and emits the aggregated
// CSV/markdown when -out is set. Returns the process exit code.
func run(sc experiments.Scale, runners []experiments.Runner) int {
	var specs []experiments.Spec
	counts := make([]int, len(runners))
	for i, r := range runners {
		s := r.Specs(sc)
		counts[i] = len(s)
		specs = append(specs, s...)
	}

	start := time.Now()
	results := experiments.RunSpecs(specs, *parallel)
	elapsed := time.Since(start)

	off := 0
	for i, r := range runners {
		rs := results[off : off+counts[i]]
		off += counts[i]
		if len(runners) > 1 {
			fmt.Printf("=== %s: %s ===\n", r.ID, r.Desc)
		}
		r.Render(os.Stdout, rs)
		if len(runners) > 1 {
			fmt.Println()
		}
	}
	// Timing goes to stderr so stdout stays deterministic.
	fmt.Fprintf(os.Stderr, "ran %d configurations in %.1fs (parallel=%d)\n",
		len(specs), elapsed.Seconds(), *parallel)

	if *outDir != "" {
		if err := writeAggregates(*outDir, results); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	code := 0
	for _, res := range results {
		if res.Err != nil {
			fmt.Fprintln(os.Stderr, res.Err)
			code = 1
		}
	}
	return code
}

func writeAggregates(dir string, results []experiments.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	csv, err := os.Create(filepath.Join(dir, "results.csv"))
	if err != nil {
		return err
	}
	defer csv.Close()
	if err := experiments.WriteCSV(csv, results); err != nil {
		return err
	}
	md, err := os.Create(filepath.Join(dir, "results.md"))
	if err != nil {
		return err
	}
	defer md.Close()
	return experiments.WriteMarkdown(md, results)
}
