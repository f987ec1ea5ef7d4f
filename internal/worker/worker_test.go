package worker

import (
	"encoding/json"
	"math"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/allreduce"
	"repro/internal/cluster"
	"repro/internal/conformance"
	"repro/internal/netmodel"
	"repro/internal/train"
)

// TestMain makes the test binary a valid worker executable: when the
// launcher re-executes it with OKTOPK_WORKER_JOB set, it runs the job
// body instead of the test suite.
func TestMain(m *testing.M) {
	ExitIfWorker()
	os.Exit(m.Run())
}

func testParams() netmodel.Params { return netmodel.Params{Alpha: 2e-6, Beta: 4e-10} }

// requireLoopback skips when the sandbox forbids binding localhost
// sockets — the one environment dependency multi-process runs have.
func requireLoopback(t *testing.T) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("tcp transport unavailable in this sandbox (loopback listen failed): %v", err)
	}
	ln.Close()
}

// TestJobCarriesSubMillisecondHeartbeat: a negative heartbeat interval
// shorter than a millisecond still reaches the worker's transport as
// negative (heartbeats disabled) after the launcher's JSON round trip.
func TestJobCarriesSubMillisecondHeartbeat(t *testing.T) {
	job := Job{Kind: "train", Size: 2, Timeout: 1500 * time.Millisecond,
		HeartbeatInterval: -500 * time.Microsecond}
	blob, err := json.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}
	var got Job
	if err := json.Unmarshal(blob, &got); err != nil {
		t.Fatal(err)
	}
	if got.HeartbeatInterval != job.HeartbeatInterval || got.Timeout != job.Timeout {
		t.Fatalf("round trip: heartbeat %v timeout %v, want %v and %v",
			got.HeartbeatInterval, got.Timeout, job.HeartbeatInterval, job.Timeout)
	}
	if hb := got.tcpOptions().HeartbeatInterval; hb >= 0 {
		t.Fatalf("tcpOptions heartbeat interval %v, want negative (disabled)", hb)
	}
}

// TestMultiProcessConformance is the end-to-end version of the
// conformance pin: P real worker processes over TCP must reproduce the
// inproc golden report exactly.
func TestMultiProcessConformance(t *testing.T) {
	requireLoopback(t)
	spec := conformance.Spec{P: 4, N: 2048, K: 48, Iters: 4, Seed: 21}

	golden, err := conformance.Run(cluster.NewWire(spec.P, testParams(), cluster.WireF64), spec)
	if err != nil {
		t.Fatalf("inproc golden: %v", err)
	}
	if err := golden.Check(); err != nil {
		t.Fatalf("inproc golden inconsistent: %v", err)
	}

	out, err := Launch(Job{
		Kind: "conformance", Size: spec.P,
		Params: testParams(), Spec: &spec, Timeout: 60 * time.Second,
	}, LaunchOptions{})
	if err != nil {
		t.Fatalf("launch: %v", err)
	}
	if out.Report == nil {
		t.Fatal("no report from rank 0")
	}
	if err := out.Report.Check(); err != nil {
		t.Fatalf("multi-process report inconsistent: %v", err)
	}
	for _, d := range conformance.Diff(golden, out.Report) {
		t.Errorf("inproc vs processes: %s", d)
	}
	if out.Wall <= 0 {
		t.Errorf("wall-clock not measured: %v", out.Wall)
	}
}

// TestProcessKillSurfacesRankError: a worker process that exits
// mid-reduce must fail the job with an error naming the dead rank,
// within a bounded time — never a hang.
func TestProcessKillSurfacesRankError(t *testing.T) {
	requireLoopback(t)
	start := time.Now()
	spec := conformance.Spec{P: 2, N: 2048, K: 48, Iters: 4, Seed: 5, CrashRank: 1, CrashIter: 2}
	_, err := Launch(Job{
		Kind: "conformance", Size: spec.P,
		Params: testParams(), Spec: &spec, Timeout: 20 * time.Second,
	}, LaunchOptions{})
	if err == nil {
		t.Fatal("job with a killed worker reported success")
	}
	if !strings.Contains(err.Error(), "rank 1") {
		t.Errorf("error does not name the dead rank: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 90*time.Second {
		t.Errorf("failure took %v to surface", elapsed)
	}
}

// TestTrainOverTCPMatchesInproc runs the fig5 Table-1 shape (VGG, P=4,
// density 1%) end-to-end as real processes and pins the modeled
// quantities to an identically configured inproc run: simulated time,
// loss and held-out metric must agree bit for bit, while wall-clock is
// reported alongside.
func TestTrainOverTCPMatchesInproc(t *testing.T) {
	requireLoopback(t)
	cfg := train.Config{
		Workload: "VGG", Algorithm: "OkTopk", P: 4, Batch: 2, Seed: 42, LR: 0.03,
		Reduce: allreduce.Config{Density: 0.01, Tau: 16, TauPrime: 8},
	}
	const iters = 3

	ref := train.NewSession(cfg)
	var refSim float64
	var refLast train.IterStats
	for it := 1; it <= iters; it++ {
		refLast = ref.RunIteration()
		refSim += refLast.IterSeconds
	}
	refMetric := ref.Evaluate(200)

	out, err := Launch(Job{
		Kind: "train", Size: cfg.P, Timeout: 120 * time.Second,
		Train: &TrainJob{Config: cfg, Iters: iters},
	}, LaunchOptions{})
	if err != nil {
		t.Fatalf("launch: %v", err)
	}
	if out.Train == nil {
		t.Fatal("no train report from rank 0")
	}
	if bits, ref := math.Float64bits(out.Train.SimSeconds), math.Float64bits(refSim); bits != ref {
		t.Errorf("modeled time diverges: tcp %v (%016x) vs inproc %v (%016x)",
			out.Train.SimSeconds, bits, refSim, ref)
	}
	if math.Float64bits(out.Train.Loss) != math.Float64bits(refLast.Loss) {
		t.Errorf("final loss diverges: tcp %v vs inproc %v", out.Train.Loss, refLast.Loss)
	}
	if math.Float64bits(out.Train.Metric) != math.Float64bits(refMetric) {
		t.Errorf("held-out metric diverges: tcp %v vs inproc %v", out.Train.Metric, refMetric)
	}
	if out.Wall <= 0 {
		t.Errorf("wall-clock not measured: %v", out.Wall)
	}
}
