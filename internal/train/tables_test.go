package train

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/allreduce"
)

// TestSchemesTable: each row builds the algorithm its name selects, and
// the InPaper rows are the paper's seven in figure order, the list
// benchmarks and the conformance suite default to.
func TestSchemesTable(t *testing.T) {
	for _, s := range Schemes {
		if got := s.New(allreduce.Config{K: 4, NodeSize: 2}).Name(); got != s.Name {
			t.Errorf("row %q builds %q", s.Name, got)
		}
		if (s.Table1 == "") != (s.Bound == nil) {
			t.Errorf("row %q: Table1 %q without its bound, or a bound without Table1", s.Name, s.Table1)
		}
	}
	want := []string{"Dense", "DenseOvlp", "TopkA", "TopkDSA", "gTopk", "Gaussiank", "OkTopk"}
	if !slices.Equal(AlgorithmNames, want) {
		t.Fatalf("AlgorithmNames = %v, want %v", AlgorithmNames, want)
	}
}

// TestWorkloadsTable: each row builds the workload its name selects, and
// an unknown name has no default learning rate.
func TestWorkloadsTable(t *testing.T) {
	for _, w := range Workloads {
		if got := w.New(1, 2).Name(); got != w.Name {
			t.Errorf("row %q builds %q", w.Name, got)
		}
	}
	if lr := DefaultLR("nope"); lr != 0 {
		t.Fatalf(`DefaultLR("nope") = %v, want 0`, lr)
	}
}

// TestBadConfigIsAnError: a bad cluster size, workload, algorithm or
// transport is refused with an error before any cluster is built, not a
// panic.
func TestBadConfigIsAnError(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*Config)
		want string
	}{
		{"P", func(c *Config) { c.P = 0 }, "need at least one worker"},
		{"Workload", func(c *Config) { c.Workload = "x" }, `train: unknown workload "x"`},
		{"Algorithm", func(c *Config) { c.Algorithm = "x" }, `train: unknown algorithm "x"`},
		{"Transport", func(c *Config) { c.Transport = "x" }, `train: unknown transport "x"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := quickCfg("VGG", "Dense", 2)
			tc.edit(&cfg)
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked: %v", r)
				}
			}()
			s, err := NewDistributedSession(cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("session %v, error %v, want %q", s, err, tc.want)
			}
		})
	}
}
