package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
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

// TestRejectedCommandLines: negative cadences are usage errors, and the
// overlap model is no longer selectable.
func TestRejectedCommandLines(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-eval", "-1"}, "must not be negative"},
		{[]string{"-ckpt-every", "-4"}, "must not be negative"},
		{[]string{"-overlap", "sim"}, "flag provided but not defined: -overlap"},
	} {
		code, out := command(t, tc.args...)
		if code != 2 || !strings.Contains(out, tc.want) {
			t.Errorf("oktopk-train %v: exit %d, want 2 and %q:\n%s", tc.args, code, tc.want, out)
		}
	}
}
