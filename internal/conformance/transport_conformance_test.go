package conformance

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/clustertest"
	"repro/internal/netmodel"
)

func testParams() netmodel.Params { return netmodel.Params{Alpha: 2e-6, Beta: 4e-10} }

// startTCPMesh brings up a P-rank tcp job on localhost, one goroutine
// per rank standing in for one process per rank; the transport cannot
// tell the difference. Skips the test with a clear reason when the
// sandbox forbids loopback listening.
func startTCPMesh(t *testing.T, p int, wire cluster.Wire) []*cluster.Cluster {
	return startTCPMeshParams(t, p, wire, testParams())
}

// startTCPMeshParams is startTCPMesh with explicit cost parameters —
// the topology conformance rows need straggler-active Params on both
// backends.
func startTCPMeshParams(t *testing.T, p int, wire cluster.Wire, params netmodel.Params) []*cluster.Cluster {
	t.Helper()
	return clustertest.StartTCP(t, p, params, wire, func(int) cluster.TCPOptions {
		return cluster.TCPOptions{Timeout: 30 * time.Second}
	})
}

// runTCP executes the spec across a tcp mesh and returns rank 0's
// report.
func runTCP(t *testing.T, clusters []*cluster.Cluster, spec Spec) *Report {
	t.Helper()
	reports := make([]*Report, len(clusters))
	errs := make([]error, len(clusters))
	var wg sync.WaitGroup
	for r, c := range clusters {
		wg.Add(1)
		go func(r int, c *cluster.Cluster) {
			defer wg.Done()
			reports[r], errs[r] = Run(c, spec)
		}(r, c)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("tcp rank %d: %v", r, err)
		}
	}
	if reports[0] == nil {
		t.Fatal("rank 0 produced no report")
	}
	for r := 1; r < len(reports); r++ {
		if reports[r] != nil {
			t.Errorf("non-root rank %d produced a report", r)
		}
	}
	return reports[0]
}

// TestTransportConformance is the cross-backend pin: the seven
// collectives × P ∈ {2,3,4,8} × wire {f64,f32}, inproc vs tcp, asserting
// bit-identical results, identical per-rank word accounting and
// bit-identical post-barrier clocks. The spec table is shared — the
// same Spec value drives both backends.
func TestTransportConformance(t *testing.T) {
	for _, p := range []int{2, 3, 4, 8} {
		for _, wire := range []cluster.Wire{cluster.WireF64, cluster.WireF32} {
			spec := Spec{P: p, N: 2048, K: 48, Iters: 4, Seed: 7 + int64(p)}
			t.Run(fmt.Sprintf("P=%d/wire=%s", p, wire), func(t *testing.T) {
				inproc, err := Run(cluster.NewWire(p, testParams(), wire), spec)
				if err != nil {
					t.Fatalf("inproc run: %v", err)
				}
				if err := inproc.Check(); err != nil {
					t.Fatalf("inproc report inconsistent: %v", err)
				}

				tcp := runTCP(t, startTCPMesh(t, p, wire), spec)
				if err := tcp.Check(); err != nil {
					t.Fatalf("tcp report inconsistent: %v", err)
				}
				for _, d := range Diff(inproc, tcp) {
					t.Errorf("inproc vs tcp: %s", d)
				}
			})
		}
	}
}

// TestTransportConformanceTopology: the cross-backend pin extended to
// an active topology — node hierarchy, rail contention and seeded
// straggler/jitter injection all live inside Params, so the same spec
// on inproc and tcp must still digest bit-identically (results, word
// accounting, and the post-barrier clock, which now includes every
// topology-priced delivery and jittered compute charge).
func TestTransportConformanceTopology(t *testing.T) {
	topo, err := netmodel.BuildTopology("fattree", 2, 1.5, 4242)
	if err != nil {
		t.Fatal(err)
	}
	params := testParams()
	params.Topo = topo
	const p = 4
	spec := Spec{P: p, N: 2048, K: 48, Iters: 4, Seed: 19}

	inproc, err := Run(cluster.NewWire(p, params, cluster.WireF64), spec)
	if err != nil {
		t.Fatalf("inproc run: %v", err)
	}
	if err := inproc.Check(); err != nil {
		t.Fatalf("inproc report inconsistent: %v", err)
	}

	tcp := runTCP(t, startTCPMeshParams(t, p, cluster.WireF64, params), spec)
	if err := tcp.Check(); err != nil {
		t.Fatalf("tcp report inconsistent: %v", err)
	}
	for _, d := range Diff(inproc, tcp) {
		t.Errorf("inproc vs tcp under topology: %s", d)
	}

	// The topology must actually bite: the same spec on the flat network
	// finishes at a different modeled time.
	flat, err := Run(cluster.NewWire(p, testParams(), cluster.WireF64), spec)
	if err != nil {
		t.Fatal(err)
	}
	if flat.Ranks[0].ClockBits == inproc.Ranks[0].ClockBits {
		t.Fatal("topology-active clock identical to flat clock; injection inert")
	}
}

// TestInprocDeterminism: the same spec run twice on fresh inproc
// clusters digests identically — the precondition for using the inproc
// report as a golden.
func TestInprocDeterminism(t *testing.T) {
	spec := Spec{P: 4, N: 2048, K: 48, Iters: 4, Seed: 11}
	a, err := Run(cluster.New(4, testParams()), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cluster.New(4, testParams()), spec)
	if err != nil {
		t.Fatal(err)
	}
	if diffs := Diff(a, b); diffs != nil {
		t.Fatalf("inproc not deterministic: %v", diffs)
	}
}

// TestConformanceCrashInjection: a rank that dies mid-reduce (here by
// tearing its transport down, standing in for a killed process) must
// surface as a rank-attributed transport error on the surviving ranks
// within the deadline — never a hang, never a silent wrong answer.
func TestConformanceCrashInjection(t *testing.T) {
	const p = 2
	clusters := startTCPMesh(t, p, cluster.WireF64)
	spec := Spec{P: p, N: 2048, K: 48, Iters: 4, Seed: 3, CrashRank: 1, CrashIter: 2}

	errs := make([]error, p)
	var wg sync.WaitGroup
	for r, c := range clusters {
		wg.Add(1)
		go func(r int, c *cluster.Cluster) {
			defer wg.Done()
			s := spec
			if r == spec.CrashRank {
				s.Crash = func() {
					c.Abort() // the closest a goroutine gets to SIGKILL
					// A *TransportError panic is how a real dead transport
					// aborts the rank body; Run converts it to an error.
					panic(&cluster.TransportError{Rank: r, Err: errCrashed})
				}
			}
			_, errs[r] = Run(c, s)
		}(r, c)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("crash did not surface within the deadline; job hung")
	}

	if !errors.Is(errs[1], errCrashed) {
		t.Fatalf("crashing rank: got %v", errs[1])
	}
	var te *cluster.TransportError
	if !errors.As(errs[0], &te) {
		t.Fatalf("surviving rank error is %T (%v), want *cluster.TransportError", errs[0], errs[0])
	}
	if te.Rank != 0 {
		t.Errorf("error attributed to rank %d, want the observing rank 0", te.Rank)
	}
	if !strings.Contains(errs[0].Error(), "rank 1") {
		t.Errorf("error does not name the dead peer: %v", errs[0])
	}
}

var errCrashed = errors.New("rank crashed by injection")
