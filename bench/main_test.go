package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/allreduce"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func wantManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
		EndToEnd:   endToEndDefs,
		PerLayer:   perLayerDefs,
	}
	for _, sh := range workloads {
		m.Workloads = append(m.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{sh.name, sh.why})
	}
	return m
}

// TestManifest holds BENCHMARK.json and the tables in this package
// equal. BENCH_UPDATE_MANIFEST=1 rewrites the file from the tables.
func TestManifest(t *testing.T) {
	const path = "../BENCHMARK.json"
	want := wantManifest()
	if os.Getenv("BENCH_UPDATE_MANIFEST") != "" {
		b, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got manifest
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCHMARK.json differs from the benchmark's tables; run BENCH_UPDATE_MANIFEST=1 go test ./bench -run TestManifest")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range got.Workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, d := range got.EndToEnd {
		check(d.Name)
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside [0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, d := range append(got.EndToEnd, got.PerLayer...) {
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is outside the contract's alphabet or length", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range got.PerLayer {
		check(d.Name)
	}
	if n := len(got.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
}

// tiny shrinks a workload to test size: n = 20 000, k = 200, two
// training ranks, a short warm-up.
func tiny(sh shape) shape {
	sh.warmup = 3
	if sh.train {
		sh.p = 2
		return sh
	}
	sh.n = 20000
	if sh.cfg.K != 0 {
		sh.cfg.K = 200
	}
	return sh
}

func skipIfNoLoopback(t *testing.T, o runOutput) {
	t.Helper()
	if o.sh.tcp && o.failed > 0 && strings.Contains(o.errs[0].Error(), "tcp rendezvous") {
		t.Skipf("loopback TCP unavailable in this sandbox: %v", o.errs[0])
	}
}

// TestWorkloads runs each workload at 20 tiny ops: every end-to-end
// metric appears once under its declared unit, no op fails, the modeled
// numbers repeat bit for bit for a seed, and another seed makes other
// inputs (on train-vgg, whose model and data are fixed, another modeled
// network only).
func TestWorkloads(t *testing.T) {
	for _, full := range workloads {
		t.Run(full.name, func(t *testing.T) {
			sh := tiny(full)
			cfg := runConfig{sh: sh, seed: 11, ops: 20}
			a := execute(cfg)
			a.repeatSetUp(cfg, 1)
			skipIfNoLoopback(t, a)
			if a.failed != 0 || len(a.errs) != 0 {
				t.Fatalf("%d of %d ops failed: %v", a.failed, a.attempted, a.errs)
			}
			if want := 2*sh.warmup + 20; a.attempted != want {
				t.Errorf("attempted %d ops, want %d", a.attempted, want)
			}
			if len(a.setupS) != 2 {
				t.Errorf("%d set-up times, want 2", len(a.setupS))
			}
			ms := a.endToEnd()
			if len(ms) != len(endToEndDefs) {
				t.Errorf("%d end-to-end metrics, want %d", len(ms), len(endToEndDefs))
			}
			for _, d := range endToEndDefs {
				m, ok := ms[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s: got %+v, want unit %s", d.Name, m, d.Unit)
				}
				if !(m.Value > 0) {
					t.Errorf("%s = %g, want a positive value", d.Name, m.Value)
				}
			}

			b := execute(cfg)
			if a.simMsPerOp != b.simMsPerOp || a.wordsPerOp != b.wordsPerOp {
				t.Errorf("modeled numbers differ for one seed: sim %v vs %v, words %v vs %v",
					a.simMsPerOp, b.simMsPerOp, a.wordsPerOp, b.wordsPerOp)
			}
			if a.inputDigest != b.inputDigest {
				t.Errorf("input digest differs for one seed: %x vs %x", a.inputDigest, b.inputDigest)
			}
			c := execute(runConfig{sh: sh, seed: 12, ops: 20})
			if c.failed != 0 {
				t.Errorf("seed 12: %d ops failed: %v", c.failed, c.errs)
			}
			if c.simMsPerOp == a.simMsPerOp {
				t.Errorf("seeds 11 and 12 give the same modeled time %v", a.simMsPerOp)
			}
			if !sh.train && c.inputDigest == a.inputDigest {
				t.Errorf("seeds 11 and 12 give the same inputs (digest %x)", a.inputDigest)
			}
		})
	}
}

// TestSparseOracleRejectsCorruption corrupts a correct Ok-Topk result in
// the ways the oracle guards against.
func TestSparseOracleRejectsCorruption(t *testing.T) {
	sh, _ := findWorkload("reduce-oktopk")
	in, err := newReduceInstance(tiny(sh), 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := in.op(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.check(); err != nil {
		t.Fatalf("uncorrupted result rejected: %v", err)
	}
	update := in.results[0].Update
	hit := int(in.results[0].Contributed[0])
	miss := 0
	for update[miss] != 0 {
		miss++
	}
	corrupt := func(name string, mutate func() (undo func())) {
		undo := mutate()
		if err := checkSparse(in.grads, in.results); err == nil {
			t.Errorf("%s: corrupted result accepted", name)
		}
		undo()
	}
	corrupt("wrong value", func() func() {
		old := update[hit]
		update[hit] *= 1.001
		return func() { update[hit] = old }
	})
	corrupt("value nobody contributed", func() func() {
		update[miss] = 0.5
		return func() { update[miss] = 0 }
	})
	corrupt("wrong GlobalK", func() func() {
		in.results[1].GlobalK++
		return func() { in.results[1].GlobalK-- }
	})
	corrupt("dropped contribution", func() func() {
		old := in.results[0].Contributed
		in.results[0].Contributed = old[1:]
		return func() { in.results[0].Contributed = old }
	})
	if err := checkSparse(in.grads, in.results); err != nil {
		t.Fatalf("restored result rejected: %v", err)
	}

	// One rank out of step with the others fails the digest check.
	results := append([]allreduce.Result(nil), in.results...)
	results[2].Update = append([]float64(nil), update...)
	results[2].Update[hit] += 1e-9
	if err := sameDigest(results); err == nil {
		t.Error("ranks with different Updates share a digest")
	}
}

// TestDenseOracleRejectsCorruption does the same for the plain-sum oracle.
func TestDenseOracleRejectsCorruption(t *testing.T) {
	sh, _ := findWorkload("reduce-dense-f32")
	in, err := newReduceInstance(tiny(sh), 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.op(1); err != nil {
		t.Fatal(err)
	}
	if err := in.check(); err != nil {
		t.Fatalf("uncorrupted result rejected: %v", err)
	}
	in.results[0].Update[7] += 1e-3
	if err := checkDense(in.grads, in.results, sh.wire); err == nil {
		t.Error("corrupted dense result accepted")
	}
}

// TestSpanTree traces tiny runs and checks the accounting the per-layer
// rows rest on: within every rank and op the self times of all spans sum
// to the root span, and a traced run fills its workload's span rows.
func TestSpanTree(t *testing.T) {
	for _, name := range []string{"train-vgg", "reduce-oktopk"} {
		t.Run(name, func(t *testing.T) {
			full, _ := findWorkload(name)
			ms, tr, plain, traced := spanMetrics(tiny(full), 7, 20)
			if plain.failed+traced.failed != 0 {
				t.Fatalf("ops failed: %v %v", plain.errs, traced.errs)
			}
			for r := range tr.ranks {
				spans := tr.ranks[r].spans
				if len(spans) == 0 {
					t.Fatalf("rank %d recorded no spans", r)
				}
				self := selfTimes(spans)
				// Fold every span's self time into its root.
				sum := make(map[int]int64)
				for i := range spans {
					root := i
					for spans[root].parent >= 0 {
						root = int(spans[root].parent)
					}
					sum[root] += self[i]
					if self[i] < 0 {
						t.Errorf("rank %d span %d (%s): negative self time %d", r, i, spanNames[spans[i].kind], self[i])
					}
				}
				if len(sum) != 20 {
					t.Errorf("rank %d has %d root spans, want one per op (20)", r, len(sum))
				}
				for root, s := range sum {
					if d := spans[root].end - spans[root].start; s != d {
						t.Errorf("rank %d op %d: self times sum to %d ns, root span lasts %d ns", r, spans[root].op, s, d)
					}
				}
			}
			rows := []string{"op.rank_span_ms", "allreduce.reduce_ms", "cluster.recv_wait_ms", "cluster.sends_per_op", "core.global_k", "proc.cpu_ms_per_op", "op.wall_ms_p10", "op.setup_first_s"}
			if full.train {
				rows = append(rows, "train.step_ms", "nn.compute_batch_ms", "nn.compute_share", "train.final_loss")
			}
			for _, row := range rows {
				if m := ms.m[row]; !(m.Value > 0) {
					t.Errorf("%s = %v, want a positive value", row, m.Value)
				}
			}
			path := t.TempDir() + "/out/trace.json"
			if err := tr.writeChrome(path, header{Workload: name}, 5); err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []map[string]any `json:"traceEvents"`
				OtherData   header           `json:"otherData"`
			}
			if err := json.Unmarshal(b, &doc); err != nil {
				t.Fatalf("trace file is not JSON: %v", err)
			}
			if len(doc.TraceEvents) == 0 || doc.OtherData.Workload != name {
				t.Errorf("trace file has %d events, header %+v", len(doc.TraceEvents), doc.OtherData)
			}
		})
	}
}

// TestCommandLine drives the command the way the benchmark driver does
// and checks the contract's last line.
func TestCommandLine(t *testing.T) {
	t.Setenv("GOMAXPROCS", "1") // must be overridden and flagged, not honoured
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "reduce-dense-f32", "--seed", "9", "--seconds", "1", "--trace", "0", "-ops", "10"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var hdr map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil {
		t.Fatalf("first line is not the header: %v", err)
	}
	for _, k := range []string{"commit", "go", "GOMAXPROCS", "nproc", "tensor_workers", "host", "date", "seed", "ops", "input_digest", "seed_draws"} {
		if _, ok := hdr[k]; !ok {
			t.Errorf("header lacks %q", k)
		}
	}
	if hdr["GOMAXPROCS_env_overridden"] != "1" || !strings.Contains(stdout.String(), "set from outside") {
		t.Errorf("an outside GOMAXPROCS is not flagged: %v", hdr)
	}
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if len(res) != 4 {
		t.Errorf("result has keys %v, want exactly correct, attempted, failed, metrics", res)
	}
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 10 || len(r.Metrics) != len(endToEndDefs) {
		t.Errorf("result %+v", r)
	}

	stdout.Reset()
	if code := run([]string{"-workload", "no-such"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Errorf("unknown workload: exit code %d, stdout %q", code, stdout.String())
	}
}

// TestCompare checks the report's verdicts on synthetic run records.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(file string, wall []float64) string {
		path := dir + "/" + file
		for i, w := range wall {
			rec := record{Header: header{Seed: int64(i), Ops: 10}, Workload: "reduce-oktopk",
				Result: result{Correct: true, Attempted: 10, Metrics: map[string]metric{
					"wall_ms_per_op_p50":    {w, "ms"},
					"sim_ms_per_op":         {0.5, "ms"},
					"words_per_rank_per_op": {36000, "words"},
				}}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	var bound float64
	for _, d := range endToEndDefs {
		if d.Name == "wall_ms_per_op_p50" {
			bound = d.Bound
		}
	}
	scaled := func(f float64) []float64 {
		return []float64{6.40 * f, 6.41 * f, 6.42 * f, 6.43 * f, 6.44 * f}
	}
	base := write("base.jsonl", scaled(1))
	same := write("same.jsonl", scaled(1.002))
	slow := write("slow.jsonl", scaled(1+bound+0.05))
	noisy := write("noisy.jsonl", []float64{6.4 * (1 - bound), 6.0, 6.4, 7.0, 6.4 * (1 + bound)})
	for _, c := range []struct {
		name, new, verdict string
		code               int
	}{
		{"same", same, " ok", 0},
		{"slow", slow, "WORSE", 1},
		{"noisy", noisy, "unresolved", 1},
	} {
		var stdout, stderr bytes.Buffer
		if code := compareFiles(&stdout, &stderr, header{}, base, c.new); code != c.code {
			t.Errorf("%s: exit code %d, want %d\n%s", c.name, code, c.code, stdout.String())
		}
		if !strings.Contains(stdout.String(), c.verdict) {
			t.Errorf("%s: report lacks verdict %q\n%s", c.name, c.verdict, stdout.String())
		}
	}
}

// TestResultLineListsEveryRow: the contract's line of a traced run names
// every per-layer metric, measured or not.
func TestResultLineListsEveryRow(t *testing.T) {
	measured := map[string]metric{"op.wall_ms_p90": {7, "ms"}}
	all := withUnmeasured(perLayerDefs, measured)
	if len(all) != len(perLayerDefs) || all["op.wall_ms_p90"].Value != 7 || all["worker.launch_s"] != (metric{Unit: "s"}) {
		t.Errorf("%d rows, want %d with the measured one kept", len(all), len(perLayerDefs))
	}
	if len(measured) != 1 {
		t.Errorf("the measured set changed: %v", measured)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %g, %g, want 3.5, 31", q1, q3)
	}
}
