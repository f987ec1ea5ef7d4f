package experiments

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cluster"
	"repro/internal/netmodel"
	"repro/internal/tensor"
)

// goldenRun executes one registered runner at quick scale on the given
// wire and returns its rendered report and CSV bytes.
func goldenRun(t *testing.T, id string, wire cluster.Wire, parallel, workers int) (string, string) {
	t.Helper()
	r, ok := FindRunner(id)
	if !ok {
		t.Fatalf("%s not registered", id)
	}
	tensor.SetWorkers(workers)
	defer tensor.SetWorkers(0)
	sc := QuickScale()
	sc.Wire = wire
	rs := RunSpecs(r.Specs(sc), parallel)
	var render, csv bytes.Buffer
	r.Render(&render, rs)
	if err := WriteCSV(&csv, rs); err != nil {
		t.Fatal(err)
	}
	return render.String(), csv.String()
}

func readGolden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "golden", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestGoldenFlatTopology: with the default (flat) topology, the pinned
// runners must reproduce the pre-topology-PR binary byte-for-byte on
// both wires — the goldens under testdata/golden were captured from the
// tree before the Topology type existed, so any drift here means the
// topology machinery is not inert by default. fig5 (cheap) additionally
// sweeps scheduler parallelism and tensor worker counts; the rest run
// once at high parallelism, whose identity with a serial schedule is
// the scheduler's standing guarantee. The default set (fig5, fig7,
// table1, tcpsmoke) covers collectives, the volume model, and an
// end-to-end training clock while keeping the package inside go test's
// default 10-minute budget; OKTOPK_GOLDEN_FULL=1 (a gated CI job, same
// idiom as OKTOPK_FULLSCALE) adds the fig8 weak-scaling goldens, which
// alone cost ~6 minutes.
func TestGoldenFlatTopology(t *testing.T) {
	if testing.Short() {
		t.Skip("several full quick-scale runner executions")
	}
	ids := []struct {
		id     string
		combos [][2]int // {parallel, workers}
	}{
		{"fig5", [][2]int{{1, 0}, {2, 4}, {4, 7}}},
		{"fig7", [][2]int{{4, 7}}},
		{"table1", [][2]int{{4, 7}}},
		{"tcpsmoke", [][2]int{{4, 7}}},
	}
	if os.Getenv("OKTOPK_GOLDEN_FULL") != "" {
		ids = append(ids, struct {
			id     string
			combos [][2]int
		}{"fig8", [][2]int{{4, 7}}})
	}
	wires := []struct {
		name string
		wire cluster.Wire
	}{{"f64", cluster.WireF64}, {"f32", cluster.WireF32}}
	for _, w := range wires {
		for _, tc := range ids {
			wantRender := readGolden(t, w.name+"-"+tc.id+".render.golden")
			wantCSV := readGolden(t, w.name+"-"+tc.id+".csv.golden")
			for _, pc := range tc.combos {
				render, csv := goldenRun(t, tc.id, w.wire, pc[0], pc[1])
				if render != wantRender {
					t.Errorf("%s %s report drifted from pre-PR golden at parallel=%d workers=%d:\nwant:\n%s\ngot:\n%s",
						w.name, tc.id, pc[0], pc[1], wantRender, render)
				}
				if csv != wantCSV {
					t.Errorf("%s %s CSV drifted from pre-PR golden at parallel=%d workers=%d",
						w.name, tc.id, pc[0], pc[1])
				}
			}
		}
	}
}

// topoRun trains the topo sweep's VGG shape under topo with the sweep's
// steady-state loop.
func topoRun(algo string, topo netmodel.Topology) Breakdown {
	return steadyState(weakConfig(Scale{Topology: topo}, "VGG", algo, 8, 8, 0.01), 4, "", "")
}

// TestTopoStragglerDeterministic: a straggler-active training run is a
// pure function of (config, topology seed) — bit-identical modeled
// phase times across tensor worker counts, because jitter is hashed
// from (seed, rank, step), never drawn from shared state.
func TestTopoStragglerDeterministic(t *testing.T) {
	topo, err := netmodel.BuildTopology("fattree", 4, 1.5, 12345)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) Breakdown {
		tensor.SetWorkers(workers)
		defer tensor.SetWorkers(0)
		return topoRun("OkTopk", topo)
	}
	base := run(0)
	for _, workers := range []int{3, 6} {
		got := run(workers)
		for _, pair := range [][2]float64{
			{got.Total, base.Total}, {got.Comm, base.Comm}, {got.Compute, base.Compute},
		} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				t.Fatalf("straggler run not bit-identical at workers=%d: %016x vs %016x",
					workers, math.Float64bits(pair[0]), math.Float64bits(pair[1]))
			}
		}
	}
}

// TestTopoStragglerParallelDeterministic: straggler-active specs run
// through the scheduler emit byte-identical CSV at any -parallel
// setting — noise injection must not reintroduce schedule dependence.
func TestTopoStragglerParallelDeterministic(t *testing.T) {
	topo, err := netmodel.BuildTopology("nvlink", 4, 1.5, 777)
	if err != nil {
		t.Fatal(err)
	}
	specs := func() []Spec {
		var out []Spec
		for _, algo := range []string{"Dense", "Hierarchical", "OkTopk"} {
			algo := algo
			out = append(out, Spec{
				Runner: "topotest", Config: algo,
				Run: func(Spec) Outcome {
					pt := topoRun(algo, topo)
					return Outcome{Metrics: []Metric{{"total_s", pt.Total}, {"comm_s", pt.Comm}}}
				},
			})
		}
		return out
	}
	csvAt := func(parallel int) string {
		var buf bytes.Buffer
		if err := WriteCSV(&buf, RunSpecs(specs(), parallel)); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	serial := csvAt(1)
	if par := csvAt(4); par != serial {
		t.Fatalf("straggler CSV differs between parallel=1 and parallel=4:\n%s\nvs\n%s", serial, par)
	}
}

// TestTopoStragglerSeedMatters: distinct topology seeds must produce
// distinct jitter (and so distinct modeled times) — otherwise the
// "seeded" straggler model is a constant in disguise.
func TestTopoStragglerSeedMatters(t *testing.T) {
	a, err := netmodel.BuildTopology("fattree", 4, 1.5, 12345)
	if err != nil {
		t.Fatal(err)
	}
	b := a
	b.Seed = 54321
	ra := topoRun("OkTopk", a)
	rb := topoRun("OkTopk", b)
	if math.Float64bits(ra.Total) == math.Float64bits(rb.Total) {
		t.Fatalf("distinct straggler seeds produced identical modeled time %v", ra.Total)
	}
}
