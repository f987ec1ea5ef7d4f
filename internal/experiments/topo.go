package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/netmodel"
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
	Scenario string
	Breakdown
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
				topo, err := netmodel.BuildTopology(sn.Preset, sn.NodeSize, sn.Straggler, SeedFor(id, sn.Name))
				if err != nil {
					panic(err)
				}
				for _, algo := range topoAlgorithms {
					specs = append(specs, Spec{
						Runner: id, Config: fmt.Sprintf("%s %s P=%d", sn.Name, algo, p),
						Run: func(Spec) Outcome {
							// No trace: its name would carry no scenario, so
							// the scenarios would overwrite each other's.
							cfg := weakConfig(sc, workload, algo, p, batch, 0.01)
							cfg.Topology = topo
							pt := TopoPoint{Scenario: sn.Name, Breakdown: steadyState(cfg, sc.WeakIters, "", "")}
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
					cfg := weakConfig(sc, workload, "Dense", p, batch, 0.01)
					cfg.Topology = netmodel.Topology{}
					legacy := steadyState(cfg, 4, "", "")
					flatTopo, err := netmodel.BuildTopology("flat", 0, 0, SeedFor(id, "flat"))
					if err != nil {
						panic(err)
					}
					cfg.Topology = flatTopo
					flat := steadyState(cfg, 4, "", "")
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
