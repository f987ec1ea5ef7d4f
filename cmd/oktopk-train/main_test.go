package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/worker"
)

// TestMain lets the test binary stand in for the command: started with
// the command's own arguments (anything but a -test. flag first) it runs
// main() on them, and a tcp run re-executes it once more per rank as a
// worker.
func TestMain(m *testing.M) {
	worker.ExitIfWorker()
	if len(os.Args) > 1 && !strings.HasPrefix(os.Args[1], "-test.") {
		main()
		return
	}
	os.Exit(m.Run())
}

// command runs oktopk-train with args and returns its exit code and
// combined output.
func command(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("oktopk-train %v: %v", args, err)
	}
	return cmd.ProcessState.ExitCode(), out.String()
}

// TestEvalZeroReportsOnlyAtTheEnd: -eval 0 means "only after the last
// iteration" on both transports.
func TestEvalZeroReportsOnlyAtTheEnd(t *testing.T) {
	for _, transport := range []string{"inproc", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			code, out := command(t, "-transport", transport, "-workload", "VGG", "-algo", "OkTopk",
				"-p", "2", "-iters", "3", "-eval", "0")
			if code != 0 {
				t.Fatalf("exit %d:\n%s", code, out)
			}
			if n := strings.Count(out, "\niter "); n != 1 || !strings.Contains(out, "\niter     3 ") {
				t.Fatalf("want one report, for iteration 3:\n%s", out)
			}
		})
	}
}

// TestRejectedCommandLines: negative cadences, a checkpoint cadence
// without a checkpoint file, an empty cluster, unknown workload or
// algorithm names, a non-finite straggler severity and a negative node
// size are usage errors, and the overlap model is no longer selectable.
func TestRejectedCommandLines(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-eval", "-1"}, "must not be negative"},
		{[]string{"-ckpt-every", "-4"}, "must not be negative"},
		{[]string{"-overlap", "sim"}, "flag provided but not defined: -overlap"},
		{[]string{"-p", "0"}, "need at least one worker"},
		{[]string{"-workload", "nope"}, `unknown -workload "nope"`},
		{[]string{"-algo", "nope"}, `unknown -algo "nope"`},
		{[]string{"-transport", "tcp", "-p", "0"}, "need at least one worker"},
		{[]string{"-ckpt-every", "4"}, "-ckpt-every needs -checkpoint"},
		{[]string{"-topology", "fattree", "-straggler", "Inf"}, "straggler severity +Inf"},
		{[]string{"-node-size", "-1"}, "negative node size -1"},
	} {
		code, out := command(t, tc.args...)
		if code != 2 || !strings.Contains(out, tc.want) {
			t.Errorf("oktopk-train %v: exit %d, want 2 and %q:\n%s", tc.args, code, tc.want, out)
		}
	}
}

// TestHierarchicalIsAccepted: -algo takes every scheme of the table,
// the node-aware one outside the paper's seven included.
func TestHierarchicalIsAccepted(t *testing.T) {
	code, out := command(t, "-algo", "Hierarchical", "-p", "2", "-iters", "1")
	if code != 0 || !strings.Contains(out, "training VGG with Hierarchical") || !strings.Contains(out, "\niter     1 ") {
		t.Fatalf("exit %d:\n%s", code, out)
	}
}

// iterLines runs oktopk-train with args and returns its progress lines.
func iterLines(t *testing.T, args ...string) []string {
	t.Helper()
	code, out := command(t, args...)
	if code != 0 {
		t.Fatalf("oktopk-train %v: exit %d:\n%s", args, code, out)
	}
	var lines []string
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "iter ") {
			lines = append(lines, l)
		}
	}
	return lines
}

// TestTransportsPrintTheSameLines: both transports run one training
// loop, so a tcp job relays exactly the progress lines an in-process
// run prints, metric and phases included — also when the loss diverges
// to NaN, which rank 0's report must carry back to the launcher.
func TestTransportsPrintTheSameLines(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "VGG", "-algo", "OkTopk", "-p", "2", "-iters", "3", "-eval", "1"},
		{"-workload", "VGG", "-algo", "Dense", "-p", "2", "-iters", "3", "-eval", "1", "-lr", "1e200"},
	} {
		inproc := iterLines(t, append([]string{"-transport", "inproc"}, args...)...)
		tcp := iterLines(t, append([]string{"-transport", "tcp"}, args...)...)
		if len(inproc) != 3 {
			t.Fatalf("%v: inproc printed %d progress lines, want 3:\n%s", args, len(inproc), strings.Join(inproc, "\n"))
		}
		if a, b := strings.Join(inproc, "\n"), strings.Join(tcp, "\n"); a != b {
			t.Fatalf("%v: progress lines differ\ninproc:\n%s\ntcp:\n%s", args, a, b)
		}
	}
}

// TestResumeMatchesAnUnbrokenRun: an in-process run checkpointed at
// iteration 4 and resumed to 8 ends on the same line as a run that
// never stopped (τ=4, τ′=2 put the checkpoint on a boundary of both).
func TestResumeMatchesAnUnbrokenRun(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "ck.gob")
	args := []string{"-workload", "VGG", "-algo", "OkTopk", "-p", "2", "-tau", "4", "-tauprime", "2", "-eval", "0"}
	whole := iterLines(t, append([]string{"-iters", "8"}, args...)...)
	iterLines(t, append([]string{"-iters", "4", "-checkpoint", ck, "-ckpt-every", "4"}, args...)...)
	resumed := iterLines(t, append([]string{"-iters", "8", "-resume", ck}, args...)...)
	if len(whole) != 1 || len(resumed) != 1 || whole[0] != resumed[0] {
		t.Fatalf("final lines differ\nunbroken: %q\nresumed:  %q", whole, resumed)
	}
}
