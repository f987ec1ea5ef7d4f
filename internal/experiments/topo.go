package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/allreduce"
	"repro/internal/netmodel"
	"repro/internal/train"
)

// The topo scenario runner: topology × algorithm × straggler severity.
// The paper's comparison assumes a flat α-β network; this runner answers
// the question practitioners actually face — which collective wins on a
// fat-tree or NVLink-island cluster with shared rails and slow ranks —
// by training the same configuration under each topology and comparing
// modeled makespans. A Hierarchical row (the two-level node-aware
// allreduce) rides along: it loses on the flat network (extra hops, no
// cheap links to exploit) and wins on islands, which is the ranking
// flip the runner reports.

// topoAlgorithms are the sweep's rows: the two dense baselines, the
// node-aware dense schedule, and two sparse representatives.
var topoAlgorithms = []string{"Dense", "DenseOvlp", "Hierarchical", "gTopk", "OkTopk"}

// topoScenario is one network scenario of the sweep.
type topoScenario struct {
	Name      string  // display name, e.g. "nvlink ns=4"
	Preset    string  // BuildTopology preset
	NodeSize  int     // 0 = preset default
	Straggler float64 // severity s (0 = off)
}

func topoScenarios() []topoScenario {
	return []topoScenario{
		{"flat", "flat", 0, 0},
		{"flat+strag", "flat", 0, 1.0},
		{"fattree", "fattree", 4, 0},
		{"fattree+strag", "fattree", 4, 1.0},
		{"nvlink", "nvlink", 4, 0},
		{"nvlink+strag", "nvlink", 4, 1.0},
	}
}

// TopoPoint is one (scenario, algorithm) cell: mean per-iteration phase
// seconds of a short training run under that topology.
type TopoPoint struct {
	Scenario  string
	Algorithm string
	Sparsify  float64
	Comm      float64
	Compute   float64
	Total     float64
}

// TopoScenario trains the workload under an explicit topology and
// returns the steady-state per-iteration breakdown. It parallels
// WeakScaling but takes the topology per call (the sweep runs many
// topologies in one process, so the global topoMode cannot express it).
func TopoScenario(workload string, p, batch, iters int, density float64, algo string, topo netmodel.Topology) TopoPoint {
	cfg := train.Config{
		Workload:  workload,
		Algorithm: algo,
		P:         p,
		Batch:     batch,
		Seed:      23,
		LR:        lrFor(workload),
		Adam:      workload == "BERT",
		Reduce:    allreduce.Config{Density: density, TauPrime: 8, Tau: 8},
		Wire:      wireMode,
		Topology:  topo,
	}
	s := train.NewSession(cfg)
	const warm = 2
	var sum TopoPoint
	count := 0
	s.RunIterations(iters, func(st train.IterStats) {
		if st.Iter <= warm {
			return
		}
		sum.Compute += st.Phase[netmodel.PhaseCompute]
		sum.Sparsify += st.Phase[netmodel.PhaseSparsify]
		sum.Comm += st.Phase[netmodel.PhaseComm]
		sum.Total += st.IterSeconds
		count++
	})
	return TopoPoint{
		Algorithm: algo,
		Sparsify:  sum.Sparsify / float64(count),
		Comm:      sum.Comm / float64(count),
		Compute:   sum.Compute / float64(count),
		Total:     sum.Total / float64(count),
	}
}

// topoRunner sweeps topology × algorithm × straggler severity on one
// training shape and renders a winner table per scenario. It also runs
// a flat==legacy digest check: the flat scenario must reproduce the
// zero-topology configuration bit-for-bit (the topology machinery must
// be provably inert by default).
func topoRunner() Runner {
	id := "topo"
	return Runner{
		ID: id, Desc: "topology scenarios: hierarchy x contention x stragglers (+Hierarchical allreduce row)",
		Specs: func(sc Scale) []Spec {
			workload := "VGG"
			p := sc.WeakPs[workload][0]
			batch := 8
			var specs []Spec
			for _, sn := range topoScenarios() {
				sn := sn
				topo, err := netmodel.BuildTopology(sn.Preset, sn.NodeSize, sn.Straggler, SeedFor(id, sn.Name))
				if err != nil {
					panic(err)
				}
				for _, algo := range topoAlgorithms {
					algo := algo
					specs = append(specs, Spec{
						Runner: id, Config: fmt.Sprintf("%s %s P=%d", sn.Name, algo, p),
						Run: func(Spec) Outcome {
							pt := TopoScenario(workload, p, batch, sc.WeakIters, 0.01, algo, topo)
							pt.Scenario = sn.Name
							return Outcome{Payload: pt, Metrics: []Metric{
								{"total_s", pt.Total},
								{"comm_s", pt.Comm},
								{"compute_s", pt.Compute},
							}}
						},
					})
				}
			}
			specs = append(specs, Spec{
				Runner: id, Config: "flat==legacy digest check",
				Run: func(Spec) Outcome {
					legacy := TopoScenario(workload, p, batch, 4, 0.01, "Dense", netmodel.Topology{})
					flatTopo, err := netmodel.BuildTopology("flat", 0, 0, SeedFor(id, "flat"))
					if err != nil {
						panic(err)
					}
					flat := TopoScenario(workload, p, batch, 4, 0.01, "Dense", flatTopo)
					ok := math.Float64bits(flat.Total) == math.Float64bits(legacy.Total) &&
						math.Float64bits(flat.Comm) == math.Float64bits(legacy.Comm)
					if !ok {
						panic(fmt.Sprintf("topo: flat topology diverged from legacy: total %016x vs %016x",
							math.Float64bits(flat.Total), math.Float64bits(legacy.Total)))
					}
					return Outcome{Payload: "flat==legacy: ok", Metrics: []Metric{{"flat_equals_legacy", 1}}}
				},
			})
			return specs
		},
		Render: renderTopo,
	}
}

// renderTopo groups the sweep's points by scenario, prints each
// scenario's per-algorithm breakdown with the winner marked, and closes
// with the ranking-flip summary the sweep exists to surface.
func renderTopo(w io.Writer, rs []Result) {
	byScenario := map[string][]TopoPoint{}
	var order []string
	for _, r := range rs {
		if r.Err != nil {
			fmt.Fprintf(w, "  %s: FAILED: %v\n", r.Spec.Config, r.Err)
			continue
		}
		pt, ok := r.Outcome.Payload.(TopoPoint)
		if !ok {
			fmt.Fprintf(w, "  %v\n", r.Outcome.Payload)
			continue
		}
		if _, seen := byScenario[pt.Scenario]; !seen {
			order = append(order, pt.Scenario)
		}
		byScenario[pt.Scenario] = append(byScenario[pt.Scenario], pt)
	}
	fmt.Fprintln(w, "Topology scenarios: modeled seconds/iteration (VGG quick shape)")
	rankings := map[string][]string{}
	for _, sn := range order {
		pts := byScenario[sn]
		best := pts[0]
		for _, pt := range pts[1:] {
			if pt.Total < best.Total {
				best = pt
			}
		}
		ranked := append([]TopoPoint(nil), pts...)
		sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].Total < ranked[j].Total })
		var names []string
		for _, pt := range ranked {
			names = append(names, pt.Algorithm)
		}
		rankings[sn] = names
		fmt.Fprintf(w, "  %s:\n", sn)
		fmt.Fprintf(w, "    %-13s %-12s %-12s %-14s %-12s\n",
			"Algorithm", "sparsif.(s)", "comm.(s)", "comp.+io (s)", "total (s)")
		for _, pt := range pts {
			mark := ""
			if pt.Algorithm == best.Algorithm {
				mark = "  <- winner"
			}
			fmt.Fprintf(w, "    %-13s %-12.4f %-12.4f %-14.4f %-12.4f%s\n",
				pt.Algorithm, pt.Sparsify, pt.Comm, pt.Compute, pt.Total, mark)
		}
	}
	if flat, ok := rankings["flat"]; ok {
		for _, sn := range order {
			if sn == "flat" {
				continue
			}
			if !equalStrings(rankings[sn], flat) {
				fmt.Fprintf(w, "  ranking flip: %s orders algorithms %v vs flat %v\n",
					sn, rankings[sn], flat)
			}
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
