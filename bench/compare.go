package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// child runs this binary again with args, one workload per process, so
// set-up time and peak RSS mean the same as under the driver. Its
// stdout is the report of that run and is passed through.
func child(stdout, stderr io.Writer, args ...string) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("resolving the benchmark binary: %w", err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = stdout, stderr
	return cmd.Run()
}

func runArgs(workload string, seed int64, seconds, ops, trace int, out string) []string {
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace)}
	if ops != 0 {
		args = append(args, "-ops", strconv.Itoa(ops))
	}
	if out != "" {
		args = append(args, "-out", out)
	}
	return args
}

// runAll is `-workload all`: every workload once, each in its own
// process. It exits non-zero if any run did.
func runAll(stdout, stderr io.Writer, seed int64, seconds, ops, trace int, out string) int {
	code := 0
	for _, sh := range workloads {
		fmt.Fprintf(stdout, "== %s\n", sh.name)
		if err := child(stdout, stderr, runArgs(sh.name, seed, seconds, ops, trace, out)...); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", sh.name, err)
			code = 1
		}
	}
	return code
}

// selfCheck runs every workload selfcheckRuns times in each of two
// alternating sets of the same binary (A B A B …; run i of both sets
// shares a seed) and reports whether the two sets agree within the
// benchmark's own bounds. It is the acceptance test the driver applies,
// run at home.
func selfCheck(stdout, stderr io.Writer, hdr header, seconds int, seed int64) int {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	files := [2]string{filepath.Join(outDir, "selfcheck-A.jsonl"), filepath.Join(outDir, "selfcheck-B.jsonl")}
	for _, f := range files {
		if err := os.Remove(f); err != nil && !os.IsNotExist(err) {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	for i := 0; i < selfcheckRuns; i++ {
		for _, sh := range workloads {
			for _, f := range files {
				fmt.Fprintf(stderr, "selfcheck: run %d/%d of %s -> %s\n", i+1, selfcheckRuns, sh.name, f)
				if err := child(io.Discard, stderr, runArgs(sh.name, seed+int64(i), seconds, 0, 0, f)...); err != nil {
					fmt.Fprintf(stderr, "bench: %s seed %d: %v\n", sh.name, seed+int64(i), err)
					return 1
				}
			}
		}
	}
	return compareFiles(stdout, stderr, hdr, files[0], files[1])
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() // read only
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<22) // a traced record is one long line
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s holds no runs", path)
	}
	return recs, nil
}

// values collects one metric of one workload over a set's runs.
func values(recs []record, workload string, trace bool, name string) []float64 {
	var xs []float64
	for _, r := range recs {
		if r.Workload != workload || r.Trace != trace {
			continue
		}
		if m, ok := r.Result.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// spread is the interquartile distance as a share of the median: the
// contract's measure of run-to-run noise.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	if m := median(xs); m != 0 {
		return (q3 - q1) / math.Abs(m)
	}
	return 0
}

// compareFiles prints one row per workload × end-to-end metric with both
// sets' medians and quartiles, how much worse the second is, and the
// bound; then the per-layer rows both sides measured in traced records,
// without a verdict. It returns 1 if a metric got worse by more than its
// bound, if its spread exceeds the bound, if a run failed, or if runs of
// one seed disagree on a modeled number.
func compareFiles(stdout, stderr io.Writer, hdr header, oldPath, newPath string) int {
	old, err := readRecords(oldPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	cur, err := readRecords(newPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	printHeader(stdout, hdr)
	fmt.Fprintf(stdout, "old: %s (commit %s, %d runs)   new: %s (commit %s, %d runs)\n",
		oldPath, old[0].Header.Commit, len(old), newPath, cur[0].Header.Commit, len(cur))

	breach := false
	fmt.Fprintf(stdout, "\n%-17s %-22s %12s %21s %12s %21s %8s %8s %6s  %s\n",
		"workload", "metric", "old median", "old q1..q3", "new median", "new q1..q3", "worse%", "spread%", "bound%", "verdict")
	for _, sh := range workloads {
		for _, d := range endToEndDefs {
			a, b := values(old, sh.name, false, d.Name), values(cur, sh.name, false, d.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			ma, mb := median(a), median(b)
			worse := (mb - ma) / math.Abs(ma)
			if d.Better == "higher" {
				worse = -worse
			}
			sp := math.Max(spread(a), spread(b))
			verdict := "ok"
			switch {
			case worse > d.Bound:
				verdict = "WORSE"
				breach = true
			case sp > d.Bound && d.Name == "setup_s":
				// The benchmark contract gates the median of setup_s, not
				// its spread; say so rather than pass in silence.
				verdict = "ok (spread above the bound, not gated)"
			case sp > d.Bound:
				// The runs cannot tell a change of this size from noise.
				verdict = "unresolved"
				breach = true
			}
			a1, a3 := quartiles(a)
			b1, b3 := quartiles(b)
			fmt.Fprintf(stdout, "%-17s %-22s %12.6g %10.5g..%-9.5g %12.6g %10.5g..%-9.5g %+8.2f %8.2f %6.1f  %s\n",
				sh.name, d.Name, ma, a1, a3, mb, b1, b3, 100*worse, 100*sp, 100*d.Bound, verdict)
		}
	}

	// The modeled numbers of an untraced run depend only on seed and op
	// count, so runs that share both must agree to the last bit.
	type key struct {
		workload string
		seed     int64
		ops      int
	}
	seen := map[key]record{}
	pairs := 0
	for _, r := range append(append([]record(nil), old...), cur...) {
		if r.Trace {
			continue
		}
		if r.Result.Failed > 0 || !r.Result.Correct {
			fmt.Fprintf(stdout, "FAILED OPS: %s seed %d: %d of %d\n", r.Workload, r.Header.Seed, r.Result.Failed, r.Result.Attempted)
			breach = true
		}
		k := key{r.Workload, r.Header.Seed, r.Header.Ops}
		first, ok := seen[k]
		if !ok {
			seen[k] = r
			continue
		}
		for _, name := range []string{"sim_ms_per_op", "words_per_rank_per_op"} {
			if v0, v1 := first.Result.Metrics[name].Value, r.Result.Metrics[name].Value; v0 != v1 {
				fmt.Fprintf(stdout, "MODELED NUMBER DIFFERS: %s seed %d: %s %.17g vs %.17g\n", r.Workload, r.Header.Seed, name, v0, v1)
				breach = true
			}
		}
		pairs++
	}
	fmt.Fprintf(stdout, "\nsim_ms_per_op and words_per_rank_per_op of runs that share workload, seed and op count: compared bit for bit over %d pairs of runs\n", pairs)

	// The twins differ only in the transport, so what reduce-tcp adds to
	// reduce-dense-f32 is the transport's share of its op.
	share := func(recs []record) float64 {
		tcp := values(recs, "reduce-tcp", false, "wall_ms_per_op_p50")
		inproc := values(recs, "reduce-dense-f32", false, "wall_ms_per_op_p50")
		if len(tcp) == 0 || len(inproc) == 0 {
			return math.NaN()
		}
		return 1 - median(inproc)/median(tcp)
	}
	if a, b := share(old), share(cur); !math.IsNaN(a) && !math.IsNaN(b) {
		fmt.Fprintf(stdout, "cluster.tcp.transport_share from these runs (1 - reduce-dense-f32 / reduce-tcp wall_ms_per_op_p50): old %.3f, new %.3f\n", a, b)
	}

	printed := false
	for _, sh := range workloads {
		for _, d := range perLayerDefs {
			a, b := values(old, sh.name, true, d.Name), values(cur, sh.name, true, d.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			if !printed {
				fmt.Fprintf(stdout, "\nper-layer rows (reported, not gated)\n%-17s %-40s %14s %14s %9s\n", "workload", "metric", "old median", "new median", "delta%")
				printed = true
			}
			ma, mb := median(a), median(b)
			delta := 0.0
			if ma != 0 {
				delta = 100 * (mb - ma) / math.Abs(ma)
			}
			fmt.Fprintf(stdout, "%-17s %-40s %14.6g %14.6g %+9.2f\n", sh.name, d.Name, ma, mb, delta)
		}
	}
	if breach {
		fmt.Fprintln(stdout, "\nRESULT: outside the bounds")
		return 1
	}
	fmt.Fprintln(stdout, "\nRESULT: within the bounds")
	return 0
}
