package chaos

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/clustertest"
	"repro/internal/conformance"
	"repro/internal/netmodel"
)

func TestPlanJSONRoundTrip(t *testing.T) {
	p := &Plan{Faults: []Fault{
		{Kind: Kill, Rank: 1, Step: 6},
		{Kind: Delay, Rank: 2, Frame: 3, Peer: 0, WallMS: 80, EveryAttempt: true},
	}}
	blob, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var got Plan
	if err := json.Unmarshal(blob, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*p, got) {
		t.Errorf("round trip: %+v -> %+v", *p, got)
	}
}

// TestHookDeterminism: the same plan produces the same decision at the
// same frame, every time, and only on the planned rank.
func TestHookDeterminism(t *testing.T) {
	p := &Plan{Faults: []Fault{{Kind: Corrupt, Rank: 1, Frame: 3}}}
	if h := p.Hook(0, 1); h != nil {
		t.Error("rank 0 got a hook for a rank-1 fault")
	}
	for trial := 0; trial < 3; trial++ {
		h := p.Hook(1, 1)
		if h == nil {
			t.Fatal("rank 1 got no hook")
		}
		for frame := 1; frame <= 6; frame++ {
			d := h.OnFrame(1, 0, frame)
			want := cluster.FaultNone
			if frame == 3 {
				want = cluster.FaultCorrupt
			}
			if d.Action != want {
				t.Fatalf("trial %d frame %d: action %v, want %v", trial, frame, d.Action, want)
			}
		}
	}
}

// TestHookFiresOnce: a fault whose exact frame was scoped away (peer
// filter) fires on the next eligible frame, and only once.
func TestHookFiresOnce(t *testing.T) {
	p := &Plan{Faults: []Fault{{Kind: Drop, Rank: 0, Frame: 2, Peer: 3}}}
	h := p.Hook(0, 1)
	// Frame 2 goes to peer 1: not eligible. Frame 3 to peer 3: fires.
	if d := h.OnFrame(0, 1, 2); d.Action != cluster.FaultNone {
		t.Errorf("frame to wrong peer triggered %v", d.Action)
	}
	if d := h.OnFrame(0, 3, 3); d.Action != cluster.FaultDrop || d.Peer != 3 {
		t.Errorf("eligible frame: %+v", d)
	}
	if d := h.OnFrame(0, 3, 4); d.Action != cluster.FaultNone {
		t.Errorf("fault fired twice: %v", d.Action)
	}
}

func TestAttemptScoping(t *testing.T) {
	p := &Plan{Faults: []Fault{
		{Kind: Kill, Rank: 0, Frame: 1},
		{Kind: Kill, Rank: 1, Step: 4},
		{Kind: Kill, Rank: 2, Step: 2, EveryAttempt: true},
	}}
	if p.Hook(0, 2) != nil {
		t.Error("first-attempt fault armed on attempt 2")
	}
	if p.Hook(0, 1) == nil {
		t.Error("first-attempt fault not armed on attempt 1")
	}
	if got := p.KillStep(1, 1); got != 4 {
		t.Errorf("KillStep attempt 1 = %d, want 4", got)
	}
	if got := p.KillStep(1, 2); got != 0 {
		t.Errorf("KillStep attempt 2 = %d, want 0", got)
	}
	if got := p.KillStep(2, 5); got != 2 {
		t.Errorf("EveryAttempt KillStep attempt 5 = %d, want 2", got)
	}
	var nilPlan *Plan
	if nilPlan.Hook(0, 1) != nil || nilPlan.KillStep(0, 1) != 0 {
		t.Error("nil plan is not a no-op")
	}
}

func TestNewRandomPlanDeterministic(t *testing.T) {
	a, b := NewRandomPlan(7, 4, 10), NewRandomPlan(7, 4, 10)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different plans: %+v vs %+v", a, b)
	}
	f := a.Faults[0]
	if f.Rank < 0 || f.Rank >= 4 || f.Frame < 1 || f.Frame > 10 {
		t.Errorf("fault out of bounds: %+v", f)
	}
	c := NewRandomPlan(8, 4, 10)
	if reflect.DeepEqual(a, c) {
		t.Errorf("seeds 7 and 8 produced the same plan: %+v", a)
	}
}

// --- chaos conformance suite -------------------------------------------

// startLoopback brings up a P-rank tcp mesh in-process, with each
// rank's share of the fault plan installed and fast heartbeats so the
// detection budget is far below the receive deadline. Skips when the
// sandbox forbids loopback listening.
func startLoopback(t *testing.T, p int, plan *Plan, timeout time.Duration) []*cluster.Cluster {
	t.Helper()
	params := netmodel.Params{Alpha: 2e-6, Beta: 4e-10}
	return clustertest.StartTCP(t, p, params, cluster.WireF64, func(r int) cluster.TCPOptions {
		return cluster.TCPOptions{
			Timeout:           timeout,
			HeartbeatInterval: 100 * time.Millisecond,
			HeartbeatMisses:   3,
			Hook:              plan.Hook(r, 1),
		}
	})
}

// runChaosJob runs the conformance spec on every rank concurrently and
// collects (report, error) per rank. Once any rank fails, the
// remaining ranks get a short grace to fail on their own (the abort
// broadcast / heartbeat budget), then every cluster is aborted — this
// is the launcher's grace-kill, in-process — so wedged ranks unblock.
func runChaosJob(t *testing.T, clusters []*cluster.Cluster, spec conformance.Spec) (*conformance.Report, []error) {
	t.Helper()
	p := len(clusters)
	reports := make([]*conformance.Report, p)
	errs := make([]error, p)
	done := make(chan int, p)
	for r := 0; r < p; r++ {
		go func(r int) {
			reports[r], errs[r] = conformance.Run(clusters[r], spec)
			done <- r
		}(r)
	}
	var graceKill <-chan time.Time
	for finished := 0; finished < p; {
		select {
		case r := <-done:
			finished++
			if errs[r] != nil && graceKill == nil {
				graceKill = time.After(5 * time.Second)
			}
		case <-graceKill:
			graceKill = nil
			for _, c := range clusters {
				c.Abort()
			}
		case <-time.After(2 * time.Minute):
			t.Fatalf("chaos job hung with %d/%d ranks finished", finished, p)
		}
	}
	return reports[0], errs
}

// TestChaosConformance replays the conformance spec under a sweep of
// injected faults and asserts the recovery dichotomy the runtime
// guarantees: a fault either leaves the job's results bit-identical to
// the clean run (stragglers: stalls, delays), or fails the job with a
// rank-attributed error well inside the receive deadline (kills,
// wedges, corruptions, drops — detected via EOF, CRC, or the heartbeat
// budget, and spread by the abort broadcast).
func TestChaosConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos conformance is a long test")
	}
	const p = 4
	spec := conformance.Spec{Algos: []string{"Dense", "OkTopk"}, P: p, Iters: 6}
	timeout := 60 * time.Second

	baselineClusters := startLoopback(t, p, nil, timeout)
	baseline, errs := runChaosJob(t, baselineClusters, spec)
	for r, err := range errs {
		if err != nil {
			t.Fatalf("clean run rank %d: %v", r, err)
		}
	}
	if baseline == nil {
		t.Fatal("clean run produced no report")
	}
	if err := baseline.Check(); err != nil {
		t.Fatalf("clean report: %v", err)
	}

	cases := []struct {
		name string
		plan *Plan
	}{
		{"kill", &Plan{Faults: []Fault{{Kind: Kill, Rank: 1, Frame: 3}}}},
		{"wedge", &Plan{Faults: []Fault{{Kind: Wedge, Rank: 2, Frame: 4}}}},
		{"corrupt", &Plan{Faults: []Fault{{Kind: Corrupt, Rank: 1, Frame: 2}}}},
		{"drop", &Plan{Faults: []Fault{{Kind: Drop, Rank: 3, Frame: 5, Peer: -1}}}},
		{"stall", &Plan{Faults: []Fault{{Kind: Stall, Rank: 1, Frame: 2, WallMS: 120}}}},
		{"delay", &Plan{Faults: []Fault{{Kind: Delay, Rank: 2, Frame: 3, Peer: 0, WallMS: 80}}}},
	}
	for seed := int64(1); seed <= 4; seed++ {
		cases = append(cases, struct {
			name string
			plan *Plan
		}{fmt.Sprintf("seed%d", seed), NewRandomPlan(seed, p, 8)})
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name+"/"+tc.plan.Faults[0].Kind, func(t *testing.T) {
			benign := tc.plan.Faults[0].Kind == Stall || tc.plan.Faults[0].Kind == Delay
			clusters := startLoopback(t, p, tc.plan, timeout)
			start := time.Now()
			report, errs := runChaosJob(t, clusters, spec)
			elapsed := time.Since(start)

			if benign {
				for r, err := range errs {
					if err != nil {
						t.Fatalf("straggler fault failed the job: rank %d: %v", r, err)
					}
				}
				if diffs := conformance.Diff(baseline, report); len(diffs) != 0 {
					t.Errorf("straggler run diverged from clean run:\n  %s",
						strings.Join(diffs, "\n  "))
				}
				return
			}
			var failed []error
			for _, err := range errs {
				if err != nil {
					failed = append(failed, err)
				}
			}
			if len(failed) == 0 {
				t.Fatal("destructive fault produced no error on any rank")
			}
			for _, err := range failed {
				if !strings.Contains(err.Error(), "rank") {
					t.Errorf("error is not rank-attributed: %v", err)
				}
			}
			// Detection must come from EOF/CRC/heartbeat/abort — all far
			// below the 60s receive deadline (the heartbeat budget here is
			// 300ms; the bound is loose only for -race machine load).
			if elapsed > 30*time.Second {
				t.Errorf("failure took %v to surface, want well under the %v deadline", elapsed, timeout)
			}
		})
	}
}

// TestChaosStallClockUnchanged pins the core straggler claim at the
// lowest level: a stalled rank's modeled clock is bit-identical to the
// unstalled run's, because stalls burn host time, never modeled time.
func TestChaosStallClockUnchanged(t *testing.T) {
	const p = 2
	run := func(plan *Plan) []uint64 {
		clusters := startLoopback(t, p, plan, 30*time.Second)
		var mu sync.Mutex
		bits := make([]uint64, p)
		var wg sync.WaitGroup
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				err := clusters[r].Run(func(cm *cluster.Comm) error {
					if cm.Rank() == 0 {
						cm.SendFloats(1, 1, []float64{1, 2}, 2)
					} else {
						cm.PutFloats(cm.RecvFloat64(0, 1))
					}
					cm.Barrier()
					mu.Lock()
					bits[cm.Rank()] = math.Float64bits(cm.Clock().Now())
					mu.Unlock()
					return nil
				})
				if err != nil {
					t.Errorf("rank %d: %v", r, err)
				}
			}(r)
		}
		wg.Wait()
		for _, c := range clusters {
			c.Close()
		}
		return bits
	}
	clean := run(nil)
	stalled := run(&Plan{Faults: []Fault{{Kind: Stall, Rank: 0, Frame: 1, WallMS: 100}}})
	if !reflect.DeepEqual(clean, stalled) {
		t.Errorf("modeled clocks changed under stall: clean %v, stalled %v", clean, stalled)
	}
}
