// Package worker hosts one rank of a multi-process (tcp-transport) job
// and launches such jobs.
//
// A worker process is an ordinary repro binary re-executed with the
// OKTOPK_WORKER_JOB environment variable set to a JSON-encoded Job.
// Every entrypoint that can act as a launcher (cmd/oktopk-bench,
// cmd/oktopk-train, cmd/oktopk-worker, and the test binaries that spawn
// real processes) calls ExitIfWorker first thing in main/TestMain, so
// the re-exec runs the job body instead of the normal command.
//
// The wire protocol between launcher and workers is one line each on
// rank 0's stdout:
//
//	OKTOPK_RENDEZVOUS <addr>   rank 0's bound listen address, printed
//	                           before rendezvous blocks; the launcher
//	                           hands it to ranks 1..P-1
//	OKTOPK_REPORT <json>       a conformance.Report (conformance jobs)
//	OKTOPK_TRAIN <json>        a TrainReport (train jobs)
//
// All other stdout lines are human progress output the launcher relays.
// Failures are rank-attributed on stderr and via the exit status; the
// launcher folds each failed rank's stderr tail into its error.
package worker

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/conformance"
	"repro/internal/netmodel"
	"repro/internal/train"
)

const (
	// EnvJob carries the JSON-encoded Job of a worker process. Its
	// presence is what makes a process a worker.
	EnvJob = "OKTOPK_WORKER_JOB"
	// EnvExe overrides the executable the launcher spawns (default: the
	// launcher's own binary, re-executed). Tests point it at the test
	// binary; users can point it at a dedicated oktopk-worker build.
	EnvExe = "OKTOPK_WORKER_EXE"

	// rendezvousPrefix etc. are the stdout control-line markers.
	rendezvousPrefix = "OKTOPK_RENDEZVOUS "
	reportPrefix     = "OKTOPK_REPORT "
	trainPrefix      = "OKTOPK_TRAIN "
)

// Job is the serialized description of one worker process's share of a
// multi-process run.
type Job struct {
	// Kind selects the job body: "conformance" or "train".
	Kind string
	// Rank and Size identify this worker within the job.
	Rank, Size int
	// Rendezvous is rank 0's listen address (empty for rank 0, which
	// binds and announces it).
	Rendezvous string
	// Timeout bounds rendezvous and every receive stall (default
	// cluster.DefaultTCPTimeout).
	Timeout time.Duration `json:",omitempty"`
	// HeartbeatInterval is the liveness-probe interval (0 =
	// cluster.DefaultHeartbeatInterval; negative disables heartbeats).
	HeartbeatInterval time.Duration `json:",omitempty"`
	// HeartbeatMisses is the silent-interval count that declares a peer
	// dead (0 = cluster.DefaultHeartbeatMisses).
	HeartbeatMisses int `json:",omitempty"`
	// Wire is the collective wire format.
	Wire cluster.Wire

	// Chaos is the job's deterministic fault plan; nil for production
	// runs. Each worker derives its own transport hook and kill step.
	Chaos *chaos.Plan `json:",omitempty"`
	// Attempt is the 1-based launch attempt under a restart policy
	// (0 means 1). Fault plans default to firing on attempt 1 only, so
	// relaunched attempts run clean and the job recovers.
	Attempt int `json:",omitempty"`

	// Params are the α-β machine constants for conformance jobs (train
	// jobs derive theirs from the workload, like any session).
	Params netmodel.Params `json:",omitempty"`
	// Spec is the conformance job body. CrashRank/CrashIter are honored
	// by the worker: the crashing rank re-attaches os.Exit as the Crash
	// action, so injection kills a real process mid-reduce.
	Spec *conformance.Spec `json:",omitempty"`

	// Train is the train job body.
	Train *TrainJob `json:",omitempty"`
}

// TrainJob describes a distributed training run: the loop every
// worker runs with train.Session.Train.
type TrainJob = train.Job

// TrainReport is rank 0's summary of a distributed training run,
// printed as the OKTOPK_TRAIN line. SimSeconds is modeled time — the
// authoritative quantity for figures; the launcher pairs it with the
// host wall-clock it measured around the whole job.
type TrainReport struct {
	Iters      int
	SimSeconds float64 // sum of per-iteration modeled critical paths
	Loss       float64 // final-iteration mean loss over ranks
	Metric     float64 // final held-out metric (rank-0 replica)
	MetricName string
}

// trainReportBits is a TrainReport on the OKTOPK_TRAIN line, its floats
// carried as IEEE-754 bits as the session's stats gather carries them:
// encoding/json rejects NaN and ±Inf, and a diverging run's loss is NaN.
type trainReportBits struct {
	Iters                    int
	SimSeconds, Loss, Metric uint64
	MetricName               string
}

// MarshalJSON encodes r with its floats as IEEE-754 bits.
func (r TrainReport) MarshalJSON() ([]byte, error) {
	return json.Marshal(trainReportBits{r.Iters,
		math.Float64bits(r.SimSeconds), math.Float64bits(r.Loss), math.Float64bits(r.Metric), r.MetricName})
}

// UnmarshalJSON decodes what MarshalJSON encodes.
func (r *TrainReport) UnmarshalJSON(b []byte) error {
	var w trainReportBits
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*r = TrainReport{w.Iters,
		math.Float64frombits(w.SimSeconds), math.Float64frombits(w.Loss), math.Float64frombits(w.Metric), w.MetricName}
	return nil
}

// ExitIfWorker turns this process into a worker when EnvJob is set: it
// runs the job body and exits. A no-op otherwise. Call it first thing
// in main (and in TestMain of packages whose tests launch real worker
// processes).
func ExitIfWorker() {
	blob := os.Getenv(EnvJob)
	if blob == "" {
		return
	}
	os.Exit(runJob(blob))
}

// runJob executes one worker's job body and returns the process exit
// code.
func runJob(blob string) int {
	var job Job
	if err := json.Unmarshal([]byte(blob), &job); err != nil {
		fmt.Fprintf(os.Stderr, "oktopk-worker: bad %s: %v\n", EnvJob, err)
		return 2
	}
	switch job.Kind {
	case "conformance":
		return runConformance(job)
	case "train":
		return runTrain(job)
	}
	fmt.Fprintf(os.Stderr, "oktopk-worker: unknown job kind %q\n", job.Kind)
	return 2
}

// timeout returns the job's receive/rendezvous bound.
func (job Job) timeout() time.Duration {
	if job.Timeout <= 0 {
		return cluster.DefaultTCPTimeout
	}
	return job.Timeout
}

// attempt returns the 1-based launch attempt.
func (job Job) attempt() int {
	if job.Attempt <= 0 {
		return 1
	}
	return job.Attempt
}

// announce prints the rendezvous control line (rank 0 only; the
// launcher scans for it).
func announce(addr string) {
	fmt.Printf("%s%s\n", rendezvousPrefix, addr)
}

// tcpOptions builds this worker's transport options, including the
// fault hook its share of the chaos plan (if any) compiles down to. A
// planned transport-level kill is os.Exit in a worker process — the
// peers observe exactly what a crashed rank produces.
func (job Job) tcpOptions() cluster.TCPOptions {
	opts := cluster.TCPOptions{
		Rank: job.Rank, Size: job.Size,
		Rendezvous:        job.Rendezvous,
		Timeout:           job.Timeout,
		HeartbeatInterval: job.HeartbeatInterval,
		HeartbeatMisses:   job.HeartbeatMisses,
		Hook:              job.Chaos.Hook(job.Rank, job.attempt()),
		OnKill:            func() { os.Exit(3) },
	}
	if job.Rank == 0 {
		opts.OnListen = announce
	}
	return opts
}

func runConformance(job Job) int {
	if job.Spec == nil {
		fmt.Fprintln(os.Stderr, "oktopk-worker: conformance job without a spec")
		return 2
	}
	c, err := cluster.NewTCP(job.tcpOptions(), job.Params, job.Wire)
	if err != nil {
		fmt.Fprintf(os.Stderr, "oktopk-worker: rank %d: %v\n", job.Rank, err)
		return 1
	}
	defer c.Close()
	spec := *job.Spec
	if spec.CrashIter > 0 && job.Rank == spec.CrashRank {
		// Injection is the real thing here: the process dies mid-reduce,
		// the peers' transports must surface it.
		spec.Crash = func() { os.Exit(3) }
	}
	rep, err := conformance.Run(c, spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "oktopk-worker: rank %d: %v\n", job.Rank, err)
		return 1
	}
	if rep != nil {
		blob, err := json.Marshal(rep)
		if err != nil {
			fmt.Fprintf(os.Stderr, "oktopk-worker: rank %d: %v\n", job.Rank, err)
			return 1
		}
		fmt.Printf("%s%s\n", reportPrefix, blob)
	}
	return 0
}

func runTrain(job Job) int {
	if job.Train == nil {
		fmt.Fprintln(os.Stderr, "oktopk-worker: train job without a config")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "oktopk-worker: rank %d: %v\n", job.Rank, err)
		return 1
	}
	cfg := job.Train.Config
	cfg.P = job.Size
	cfg.Wire = job.Wire
	cfg.Transport = cluster.TransportTCP
	cfg.TCP = job.tcpOptions()
	s, err := train.NewDistributedSession(cfg)
	if err != nil {
		return fail(err)
	}
	defer s.Close()
	killStep := job.Chaos.KillStep(job.Rank, job.attempt())
	sum, err := s.Train(*job.Train, func(it int) {
		if it == killStep {
			// Planned step-scoped death: indistinguishable from a crash.
			os.Exit(3)
		}
	})
	if err != nil {
		return fail(err)
	}
	if job.Rank != 0 {
		return 0
	}
	blob, err := json.Marshal(TrainReport{
		Iters:      job.Train.Iters,
		SimSeconds: sum.SimSeconds,
		Loss:       sum.Last.Loss,
		Metric:     sum.Metric,
		MetricName: sum.MetricName,
	})
	if err != nil {
		return fail(err)
	}
	fmt.Printf("%s%s\n", trainPrefix, blob)
	return 0
}
