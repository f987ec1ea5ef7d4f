// Command bench is the repository benchmark: four fixed-count workloads,
// six gated end-to-end metrics, and per-layer rows from a traced run
// and direct probes. BENCHMARK.json at the repository root names the
// command, the workloads and every metric; README.md in this directory
// says how to run it and what each number means.
//
// Everything here measures from outside, through public functions and
// the public interfaces train.Workload, allreduce.Algorithm and
// cluster.Endpoint. Spans inside the program are a later change.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/tensor"
	"repro/internal/worker"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the nominal length of
// the timed window on the 2-core reference host. It only selects the op
// count (shape.opsFor); no run is ever cut by a clock, because work per
// op depends on the iteration number.
const defaultSeconds = 20

// outDir receives the trace files and -selfcheck's run records.
const outDir = "bench/out"

// selfcheckRuns is the number of runs per set of -selfcheck: the ten the
// benchmark driver makes.
const selfcheckRuns = 10

// maxProcs caps GOMAXPROCS and the tensor kernel pool. P ranks already
// oversubscribe the 2-core reference host; more threads than this only
// adds scheduling noise.
const maxProcs = 4

// header stamps every output (metrics record, trace file, compare
// report) with the configuration that produced it.
type header struct {
	Commit        string `json:"commit"`
	Go            string `json:"go"`
	GOMAXPROCS    int    `json:"GOMAXPROCS"`
	GOMAXPROCSEnv string `json:"GOMAXPROCS_env_overridden,omitempty"`
	Nproc         int    `json:"nproc"`
	TensorWorkers int    `json:"tensor_workers"`
	Host          string `json:"host"`
	Date          string `json:"date"`
	Seed          int64  `json:"seed"`
	Ops           int    `json:"ops"`
	Workload      string `json:"workload,omitempty"`
	InputDigest   string `json:"input_digest,omitempty"`
	// SeedDraws says what the workload took from the seed.
	SeedDraws string `json:"seed_draws,omitempty"`
}

// pinProcs fixes the scheduler width and kernel parallelism and returns
// the header fields that describe the host. A GOMAXPROCS from the
// environment is overridden, and recorded so the output can flag it.
func pinProcs() header {
	procs := min(runtime.NumCPU(), maxProcs)
	runtime.GOMAXPROCS(procs)
	tensor.SetWorkers(procs)
	host, err := os.Hostname()
	if err != nil {
		host = "unknown"
	}
	h := header{
		Commit:        commit(),
		Go:            runtime.Version(),
		GOMAXPROCS:    procs,
		Nproc:         runtime.NumCPU(),
		TensorWorkers: tensor.Workers(),
		Host:          host,
		Date:          time.Now().UTC().Format(time.RFC3339),
	}
	if env := os.Getenv("GOMAXPROCS"); env != "" && env != fmt.Sprint(procs) {
		h.GOMAXPROCSEnv = env
	}
	return h
}

// commit is the VCS revision the binary was built from, when the build
// stamped one (a checkout that is not a git repository does not).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark contract's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one run as stored by -out and read by -compare.
type record struct {
	Header   header `json:"header"`
	Workload string `json:"workload"`
	Trace    bool   `json:"trace"`
	// Result holds the metrics the run measured. The result line a traced
	// run prints also lists, at 0, the per-layer rows it did not measure.
	Result result `json:"result"`
}

func main() {
	// worker.Launch re-executes this binary for the worker.launch_s
	// probe; such a child runs its job here and exits.
	worker.ExitIfWorker()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload  = fs.String("workload", "", "workload to run: "+workloadNames()+", or all (one child process each)")
		seed      = fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds   = fs.Int("seconds", defaultSeconds, "nominal length of the timed window; fixes the op count, never a time box")
		ops       = fs.Int("ops", 0, "override the timed op count (rounded down to a multiple of 10)")
		trace     = fs.Int("trace", 0, "1: traced run at a quarter of the op count plus the workload's layer probes, prints the per-layer metrics")
		probes    = fs.Bool("probes", false, "run only the per-layer probes, all of them")
		selfcheck = fs.Bool("selfcheck", false, "run every workload ten times in each of two alternating sets and check repeatability against the bounds")
		compare   = fs.Bool("compare", false, "compare two -out files: bench -compare old.jsonl new.jsonl")
		out       = fs.String("out", "", "append this run's record (header + result) to a JSON-lines file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	hdr := pinProcs()
	hdr.Seed = *seed
	if hdr.GOMAXPROCSEnv != "" {
		fmt.Fprintf(stderr, "bench: GOMAXPROCS=%s from the environment is overridden to %d\n", hdr.GOMAXPROCSEnv, hdr.GOMAXPROCS)
	}

	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two files: old.jsonl new.jsonl")
			return 2
		}
		return compareFiles(stdout, stderr, hdr, fs.Arg(0), fs.Arg(1))
	case *selfcheck:
		return selfCheck(stdout, stderr, hdr, *seconds, *seed)
	case *probes:
		printHeader(stdout, hdr)
		ms := newMetricSet(perLayerDefs)
		runProbes(ms, "", *seed, stderr)
		printMetrics(stdout, perLayerDefs, ms.m)
		return 0
	case *workload == "all":
		return runAll(stdout, stderr, *seed, *seconds, *ops, *trace, *out)
	}

	sh, ok := findWorkload(*workload)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q (want %s or all)\n", *workload, workloadNames())
		fs.Usage()
		return 2
	}
	n := *ops
	if n == 0 {
		n = sh.opsFor(*seconds)
	}
	var rec record
	defs := endToEndDefs
	if *trace != 0 {
		rec = tracedRun(sh, hdr, *seed, n/4, stdout, stderr)
		defs = perLayerDefs
	} else {
		rec = plainRun(sh, hdr, *seed, n, stdout)
	}
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	// The contract's result line names every declared metric.
	contract := rec.Result
	contract.Metrics = withUnmeasured(defs, rec.Result.Metrics)
	line, err := json.Marshal(contract)
	if err != nil {
		fmt.Fprintf(stderr, "bench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rec.Result.Correct || rec.Result.Failed > 0 {
		return 1
	}
	return 0
}

// plainRun is the untraced run every end-to-end number comes from.
func plainRun(sh shape, hdr header, seed int64, ops int, stdout io.Writer) record {
	cfg := runConfig{sh: sh, seed: seed, ops: ops}
	o := execute(cfg)
	o.repeatSetUp(cfg, setUps-1)
	hdr.stamp(o)
	printHeader(stdout, hdr)
	ms := o.endToEnd()
	printMetrics(stdout, endToEndDefs, ms)
	for _, e := range o.errs {
		fmt.Fprintf(stdout, "  FAILED: %v\n", e)
	}
	return record{Header: hdr, Workload: sh.name, Result: result{
		Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: ms,
	}}
}

// stamp fills in what the header says about one run of a workload.
func (h *header) stamp(o runOutput) {
	h.Ops, h.Workload, h.InputDigest = o.ops, o.sh.name, fmt.Sprintf("%016x", o.inputDigest)
	h.SeedDraws = "gradients, modeled network speed within 0.1%"
	if o.sh.train {
		h.SeedDraws = "modeled network speed within 0.1% only; model, data and batch order are fixed"
	}
}

func printHeader(w io.Writer, h header) {
	b, _ := json.Marshal(h) // header holds only strings and ints
	fmt.Fprintf(w, "%s\n", b)
	if h.GOMAXPROCSEnv != "" {
		fmt.Fprintf(w, "NOTE: GOMAXPROCS=%s was set from outside and overridden to %d\n", h.GOMAXPROCSEnv, h.GOMAXPROCS)
	}
}

// printMetrics lists metrics by name with their unit, in definition
// order, with every digit that matters: the modeled numbers repeat
// bit-exactly for a seed and op count.
func printMetrics(w io.Writer, defs []metricDef, ms map[string]metric) {
	for _, d := range defs {
		if m, ok := ms[d.Name]; ok {
			fmt.Fprintf(w, "  %-36s %16.12g %s\n", d.Name, m.Value, m.Unit)
		}
	}
}

func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("opening -out file: %w", err)
	}
	b, err := json.Marshal(rec)
	if err == nil {
		_, err = f.Write(append(b, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}
