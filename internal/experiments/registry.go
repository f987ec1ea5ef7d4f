package experiments

import (
	"bytes"
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/netmodel"
	"repro/internal/train"
)

// The runner registry: one Runner per paper table/figure (see DESIGN.md
// for the per-experiment index). A Runner expands into independent Specs
// — the P × density × workload × algorithm grid behind the table or
// figure — which the scheduler executes with bounded parallelism, and a
// Render function that reassembles the paper-style report from the spec
// results in order.

// Scale selects the experiment sizes — Quick finishes in minutes on a
// laptop, Full uses the paper's cluster sizes and longer runs — and
// carries the run settings, which every runner's specs capture by value.
// The settings' zero values are the defaults: the f64 wire, the flat
// topology, no traces and the in-process backend. Two Scales that differ
// only in settings can therefore run side by side in one RunSpecs call.
type Scale struct {
	Table1Ps         []int
	Table1N, Table1K int
	WeakPs           map[string][]int
	WeakIters        int
	ConvIters        int
	ConvP            int
	BertP            int

	// Wire is the wire format every experiment cluster is built with.
	Wire cluster.Wire
	// Topology is the network topology of every measurement cluster
	// except fig7's, which stay flat, and the topo sweep's, which price
	// their own scenarios.
	Topology netmodel.Topology
	// TraceDir, when non-empty, makes the weak-scaling and convergence
	// runners write their final iteration's message trace into it (see
	// traceFinalIteration).
	TraceDir string
	// TCPTrain, when non-nil, trains the tcpsmoke configuration as one
	// worker process per rank and returns rank 0's summary plus the
	// job's host wall-clock; nil trains it in-process. The command layer
	// supplies it (wrapping internal/worker.Launch), so experiments —
	// and every test binary importing it — has no path that re-executes
	// itself as a worker process.
	TCPTrain func(cfg train.Config, iters int) (TCPTrainResult, error)
}

// QuickScale keeps every runner under ~1 minute.
func QuickScale() Scale {
	return Scale{
		Table1Ps: []int{8, 16, 32},
		Table1N:  1000000, Table1K: 10000,
		WeakPs:    map[string][]int{"VGG": {8, 16}, "LSTM": {8, 16}, "BERT": {8, 16, 32}},
		WeakIters: 10,
		ConvIters: 120,
		ConvP:     4,
		BertP:     8,
	}
}

// FullScale uses the paper's worker counts.
func FullScale() Scale {
	return Scale{
		Table1Ps: []int{16, 64, 128},
		Table1N:  1000000, Table1K: 10000,
		WeakPs:    map[string][]int{"VGG": {16, 32}, "LSTM": {32, 64}, "BERT": {32, 64, 256}},
		WeakIters: 12,
		ConvIters: 400,
		ConvP:     16,
		BertP:     32,
	}
}

// Figure 7's sizes, the same at every scale.
var fig7Ps = [...]int{16, 32, 64}

const fig7N, fig7Density = 200000, 0.01

// Runner is one registered table/figure reproduction.
type Runner struct {
	ID   string
	Desc string
	// Specs expands the runner into its independent configurations at
	// the given scale.
	Specs func(sc Scale) []Spec
	// Render writes the paper-style report from this runner's results,
	// which arrive in spec order.
	Render func(w io.Writer, rs []Result)
}

// Registry returns all runners in canonical (paper) order.
func Registry() []Runner {
	return []Runner{
		{
			ID: "table1", Desc: "communication volume model vs measured",
			Specs:  table1Specs,
			Render: renderTable1,
		},
		{
			ID: "table2", Desc: "model inventory",
			Specs: func(sc Scale) []Spec {
				return []Spec{{Runner: "table2", Config: "inventory", Run: func(Spec) Outcome {
					var buf bytes.Buffer
					Table2(&buf)
					return Outcome{Metrics: table2Metrics(), Payload: buf.String()}
				}}}
			},
			Render: func(w io.Writer, rs []Result) {
				if rs[0].Err != nil {
					fmt.Fprintf(w, "  %s: FAILED: %v\n", rs[0].Spec.Config, rs[0].Err)
					return
				}
				io.WriteString(w, rs[0].Outcome.Payload.(string))
			},
		},
		{
			ID: "fig4", Desc: "gradient distribution and threshold prediction (3 panels)",
			Specs: func(sc Scale) []Spec {
				var specs []Spec
				for _, p := range []struct {
					wl string
					d  float64
				}{{"VGG", 0.01}, {"LSTM", 0.02}, {"BERT", 0.01}} {
					specs = append(specs, Spec{
						Runner: "fig4", Config: fmt.Sprintf("%s density=%.1f%%", p.wl, p.d*100),
						Run: func(Spec) Outcome {
							snap := Figure4(sc, p.wl, p.d, 8, 30)
							return Outcome{Payload: snap, Metrics: []Metric{
								{"threshold_accurate", snap.Accurate},
								{"threshold_oktopk_reused", snap.OkTopkReused},
								{"threshold_gaussiank", snap.Gaussian},
								{"reused_over_accurate", snap.OkTopkReused / snap.Accurate},
							}}
						},
					})
				}
				return specs
			},
			Render: renderPayloads[ThresholdSnapshot](),
		},
		{
			ID: "fig5", Desc: "empirical xi of Assumption 1 (3 panels)",
			Specs: func(sc Scale) []Spec {
				var specs []Spec
				for _, wl := range []string{"VGG", "LSTM", "BERT"} {
					specs = append(specs, Spec{
						Runner: "fig5", Config: wl,
						Run: func(Spec) Outcome {
							series := Figure5(sc, wl, []float64{0.01, 0.02}, 4, 32, 4)
							var ms []Metric
							for di, d := range series.Densities {
								var sum float64
								for _, v := range series.Xi[di] {
									sum += v
								}
								ms = append(ms, Metric{
									fmt.Sprintf("xi_mean density=%.1f%%", d*100),
									sum / float64(len(series.Xi[di])),
								})
							}
							return Outcome{Payload: series, Metrics: ms}
						},
					})
				}
				return specs
			},
			Render: renderPayloads[XiSeries](),
		},
		{
			ID: "fig6", Desc: "top-k selection counts vs accurate vs Gaussiank (3 panels)",
			Specs: func(sc Scale) []Spec {
				var specs []Spec
				for _, p := range []struct {
					wl       string
					d        float64
					tauPrime int
				}{{"VGG", 0.01, 8}, {"LSTM", 0.02, 8}, {"BERT", 0.01, 16}} {
					specs = append(specs, Spec{
						Runner: "fig6", Config: fmt.Sprintf("%s density=%.1f%%", p.wl, p.d*100),
						Run: func(Spec) Outcome {
							s := Figure6(sc, p.wl, p.d, 4, 32, 4, p.tauPrime)
							return Outcome{Payload: s, Metrics: []Metric{
								{"accurate_k", float64(s.Accurate)},
								{"mean_deviation_local_pct", s.deviationPct(s.Local)},
								{"mean_deviation_global_pct", s.deviationPct(s.Global)},
								{"mean_deviation_gaussiank_pct", s.deviationPct(s.Gaussian)},
							}}
						},
					})
				}
				return specs
			},
			Render: renderPayloads[SelectionSeries](),
		},
		{
			ID: "fillin", Desc: "TopkDSA output-density expansion (§5.2)",
			Specs: func(sc Scale) []Spec {
				var specs []Spec
				for _, p := range []struct {
					wl string
					d  float64
				}{{"VGG", 0.01}, {"LSTM", 0.02}} {
					specs = append(specs, Spec{
						Runner: "fillin", Config: fmt.Sprintf("%s density=%.1f%% P=16", p.wl, p.d*100),
						Run: func(Spec) Outcome {
							r := FillIn(sc, p.wl, p.d, 16, 6)
							return Outcome{Payload: r, Metrics: []Metric{
								{"output_density_pct", r.MeanFill * 100},
								{"expansion_x", r.Expansion},
							}}
						},
					})
				}
				return specs
			},
			Render: renderPayloads[FillInResult](),
		},
		{
			ID: "fig7", Desc: "load-balancing speedups",
			Specs: func(sc Scale) []Spec {
				var specs []Spec
				for _, p := range fig7Ps {
					specs = append(specs, Spec{
						Runner: "fig7", Config: fmt.Sprintf("P=%d", p),
						Run: func(Spec) Outcome {
							rs := Figure7(sc.Wire, []int{p}, fig7N, fig7Density)
							return Outcome{Payload: rs[0], Metrics: []Metric{
								{"reduce_speedup_x", rs[0].ReduceSpeedup},
								{"allgather_speedup_x", rs[0].AllgatherSpeedup},
							}}
						},
					})
				}
				return specs
			},
			Render: func(w io.Writer, rs []Result) {
				var all []LoadBalanceResult
				for _, r := range rs {
					if r.Err == nil {
						all = append(all, r.Outcome.Payload.(LoadBalanceResult))
					}
				}
				PrintFigure7(w, all)
			},
		},
		weakRunner("fig8", "VGG weak scaling breakdown", "VGG", 0.02,
			map[int]int{8: 16, 16: 16, 32: 16}),
		convRunner("fig9", "VGG accuracy vs training time", "VGG", 0.02,
			[]string{"DenseOvlp", "TopkA", "TopkDSA", "gTopk", "Gaussiank", "OkTopk"}, false),
		weakRunner("fig10", "LSTM weak scaling breakdown", "LSTM", 0.02,
			map[int]int{8: 2, 16: 2, 32: 2, 64: 2}),
		convRunner("fig11", "LSTM WER vs training time", "LSTM", 0.02,
			[]string{"DenseOvlp", "TopkA", "TopkDSA", "gTopk", "Gaussiank", "OkTopk"}, false),
		fig12Runner(),
		convRunner("fig13", "BERT pre-training loss vs time", "BERT", 0.01,
			[]string{"DenseOvlp", "Gaussiank", "OkTopk"}, true),
		ovlpRunner(),
		topoRunner(),
		{
			ID: "tcpsmoke", Desc: "transport smoke: fig5 Table-1 shape trained end-to-end (P=4)",
			Specs:  tcpSmokeSpecs,
			Render: renderTCPSmoke,
		},
	}
}

// ovlpRunner sweeps DenseOvlp's bucket count per workload, exposing the
// imperfect-pipelining curve of the simulated backward/communication
// overlap engine.
func ovlpRunner() Runner {
	id := "ovlp"
	buckets := []int{1, 2, 4, 8, 16}
	return Runner{
		ID: id, Desc: "DenseOvlp backward-overlap bucket-pipeline ablation",
		Specs: func(sc Scale) []Spec {
			var specs []Spec
			for _, w := range []struct {
				wl    string
				batch int
			}{{"VGG", 16}, {"LSTM", 2}, {"BERT", 8}} {
				p := sc.WeakPs[w.wl][0]
				specs = append(specs, Spec{
					Runner: id, Config: fmt.Sprintf("%s P=%d", w.wl, p),
					Run: func(Spec) Outcome {
						pts := OverlapAblation(sc, w.wl, p, w.batch, sc.WeakIters, buckets)
						var ms []Metric
						for _, pt := range pts {
							ms = append(ms,
								Metric{fmt.Sprintf("buckets=%d/exposed_s", pt.Buckets), pt.ExposedComm},
								Metric{fmt.Sprintf("buckets=%d/hidden_frac", pt.Buckets), pt.HiddenFrac},
							)
						}
						return Outcome{Payload: pts, Metrics: ms}
					},
				})
			}
			return specs
		},
		Render: func(w io.Writer, rs []Result) {
			for _, r := range rs {
				if r.Err != nil {
					fmt.Fprintf(w, "  %s: FAILED: %v\n", r.Spec.Config, r.Err)
					continue
				}
				PrintOverlapAblation(w, r.Outcome.Payload.([]OverlapPoint))
			}
		},
	}
}

// FindRunner returns the registered runner with the given id.
func FindRunner(id string) (Runner, bool) {
	for _, r := range Registry() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

// printer is any payload that can write itself in the paper's terms.
type printer interface {
	Print(w io.Writer)
}

// renderPayloads prints each successful spec's payload of type T in spec
// order; failed specs report their error inline.
func renderPayloads[T printer]() func(w io.Writer, rs []Result) {
	return func(w io.Writer, rs []Result) {
		for _, r := range rs {
			if r.Err != nil {
				fmt.Fprintf(w, "  %s: FAILED: %v\n", r.Spec.Config, r.Err)
				continue
			}
			r.Outcome.Payload.(T).Print(w)
		}
	}
}

// weakBreakdowns is the payload of one weak-scaling configuration.
type weakBreakdowns struct {
	Title string
	Bs    []Breakdown
}

func breakdownMetrics(bs []Breakdown) []Metric {
	var ms []Metric
	for _, b := range bs {
		ms = append(ms,
			Metric{b.Algorithm + "/sparsify_s", b.Sparsify},
			Metric{b.Algorithm + "/comm_s", b.Comm},
			Metric{b.Algorithm + "/compute_s", b.Compute},
			Metric{b.Algorithm + "/total_s", b.Total},
		)
	}
	return ms
}

// weakSpecs expands one weak-scaling panel (fixed workload and density)
// into one spec per cluster size. Weak scaling holds the local batch
// constant (the paper's global batch grows ∝P): VGG 16/GPU, LSTM 2/GPU,
// BERT 8/GPU.
func weakSpecs(id, workload string, density float64, batches map[int]int, sc Scale) []Spec {
	var specs []Spec
	for _, p := range sc.WeakPs[workload] {
		batch := batches[p]
		if batch == 0 {
			batch = 4
		}
		specs = append(specs, Spec{
			Runner: id, Config: fmt.Sprintf("%s P=%d density=%.1f%%", workload, p, density*100),
			Run: func(Spec) Outcome {
				bs := WeakScaling(sc, workload, p, batch, sc.WeakIters, density, nil)
				title := fmt.Sprintf("%s weak scaling, P=%d, density=%.1f%% (runtime/iteration breakdown)",
					workload, p, density*100)
				return Outcome{Payload: weakBreakdowns{title, bs}, Metrics: breakdownMetrics(bs)}
			},
		})
	}
	return specs
}

func renderWeak(w io.Writer, rs []Result) {
	for _, r := range rs {
		if r.Err != nil {
			fmt.Fprintf(w, "  %s: FAILED: %v\n", r.Spec.Config, r.Err)
			continue
		}
		wb := r.Outcome.Payload.(weakBreakdowns)
		PrintBreakdowns(w, wb.Title, wb.Bs)
	}
}

func weakRunner(id, desc, workload string, density float64, batches map[int]int) Runner {
	return Runner{
		ID: id, Desc: desc,
		Specs:  func(sc Scale) []Spec { return weakSpecs(id, workload, density, batches, sc) },
		Render: renderWeak,
	}
}

// fig12Runner is the BERT weak-scaling panel plus the parallel-
// efficiency summary the paper quotes for 32→256 GPUs.
func fig12Runner() Runner {
	id := "fig12"
	return Runner{
		ID: id, Desc: "BERT weak scaling breakdown + parallel efficiency",
		Specs: func(sc Scale) []Spec {
			specs := weakSpecs(id, "BERT", 0.01, map[int]int{8: 8, 16: 8, 32: 8, 64: 8, 256: 8}, sc)
			ps := sc.WeakPs["BERT"]
			base, scaled := ps[0], ps[len(ps)-1]
			specs = append(specs, Spec{
				Runner: id, Config: fmt.Sprintf("efficiency %d->%d", base, scaled),
				Run: func(Spec) Outcome {
					eff := ParallelEfficiency(sc, "BERT", base, scaled, 4, sc.WeakIters, 0.01)
					return Outcome{Payload: eff, Metrics: []Metric{{"parallel_efficiency", eff}}}
				},
			})
			return specs
		},
		Render: func(w io.Writer, rs []Result) {
			renderWeak(w, rs[:len(rs)-1])
			last := rs[len(rs)-1]
			if last.Err != nil {
				fmt.Fprintf(w, "  %s: FAILED: %v\n", last.Spec.Config, last.Err)
				return
			}
			var base, scaled int
			fmt.Sscanf(last.Spec.Config, "efficiency %d->%d", &base, &scaled)
			fmt.Fprintf(w, "OkTopk weak-scaling parallel efficiency %d→%d workers: %.1f%%\n",
				base, scaled, last.Outcome.Payload.(float64)*100)
		},
	}
}

// convRunner expands a convergence study (Figures 9, 11, 13) into one
// spec per algorithm. All algorithms share the workload seed
// SeedFor(id, workload) so their curves stay comparable — same data
// order, same initialization — regardless of scheduling.
func convRunner(id, desc, workload string, density float64, algos []string, bert bool) Runner {
	return Runner{
		ID: id, Desc: desc,
		Specs: func(sc Scale) []Spec {
			p := sc.ConvP
			if bert {
				p = sc.BertP
			}
			seed := SeedFor(id, workload)
			var specs []Spec
			for _, algo := range algos {
				specs = append(specs, Spec{
					Runner: id, Config: fmt.Sprintf("%s %s P=%d", workload, algo, p),
					Seed: seed,
					Run: func(s Spec) Outcome {
						curves := Convergence(sc, ConvergenceConfig{
							Workload:   workload,
							Algorithms: []string{algo},
							P:          p,
							Batch:      4,
							Iters:      sc.ConvIters,
							EvalEvery:  sc.ConvIters / 8,
							Density:    density,
							Seed:       s.Seed,
						})
						c := curves[0]
						return Outcome{Payload: c, Metrics: []Metric{
							{"final_metric", c.Final.Metric},
							{"final_loss", c.Final.Loss},
							{"modeled_runtime_s", c.Final.Seconds},
						}}
					},
				})
			}
			return specs
		},
		Render: func(w io.Writer, rs []Result) {
			var curves []Curve
			var p int
			for _, r := range rs {
				if r.Err != nil {
					fmt.Fprintf(w, "  %s: FAILED: %v\n", r.Spec.Config, r.Err)
					continue
				}
				fmt.Sscanf(r.Spec.Config, workload+" %*s P=%d", &p)
				curves = append(curves, r.Outcome.Payload.(Curve))
			}
			var title string
			if bert {
				title = fmt.Sprintf("BERT pre-training loss vs modeled time (P=%d, density=%.1f%%)", p, density*100)
			} else {
				title = fmt.Sprintf("%s convergence vs modeled training time (P=%d, density=%.1f%%)",
					workload, p, density*100)
			}
			PrintCurves(w, title, curves)
		},
	}
}

// table1Specs measures the per-rank volumes of the schemes with a Table
// 1 row at one cluster size per spec.
func table1Specs(sc Scale) []Spec {
	n, k := sc.Table1N, sc.Table1K
	var specs []Spec
	for _, p := range sc.Table1Ps {
		specs = append(specs, Spec{
			Runner: "table1", Config: fmt.Sprintf("P=%d n=%d k=%d", p, n, k),
			Run: func(Spec) Outcome {
				col := Table1Col{P: p, N: n, K: k,
					Mean: map[string]float64{}, Max: map[string]float64{}}
				var ms []Metric
				for _, sch := range train.Schemes {
					if sch.Table1 == "" {
						continue
					}
					mean, max := MeasureVolumeStats(sc, sch.Name, p, n, k)
					col.Mean[sch.Name], col.Max[sch.Name] = mean, max
					ms = append(ms,
						Metric{sch.Name + "/mean_words", mean},
						Metric{sch.Name + "/max_words", max},
					)
				}
				return Outcome{Payload: col, Metrics: ms}
			},
		})
	}
	return specs
}
