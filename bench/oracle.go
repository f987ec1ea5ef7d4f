package main

import (
	"fmt"
	"math"

	"repro/internal/allreduce"
	"repro/internal/cluster"
)

// The correctness oracles. They are independent of the code under
// test: plain float64 sums and a reconstruction from each rank's
// Contributed list, with no call into internal/conformance or any
// helper of the algorithms themselves.

// sameDigest checks that every rank holds a bit-identical Update.
func sameDigest(results []allreduce.Result) error {
	want := digestFloats(fnvOffset, results[0].Update)
	for r, res := range results[1:] {
		if got := digestFloats(fnvOffset, res.Update); got != want {
			return fmt.Errorf("rank %d Update digest %016x differs from rank 0's %016x", r+1, got, want)
		}
	}
	return nil
}

// checkDense compares a dense reduction with the plain float64 sum of
// the P inputs, in rank order. On the f64 wire only the summation order
// differs, so each element must agree within 1e-12 of Σ|input|; on the
// f32 wire values are rounded once per hop, so the bound is 1e-5 of
// max|sum|.
func checkDense(grads [][]float64, results []allreduce.Result, wire cluster.Wire) error {
	got := results[0].Update
	n := len(grads[0])
	if len(got) != n {
		return fmt.Errorf("dense Update has %d entries, want %d", len(got), n)
	}
	sum := make([]float64, n)
	mag := make([]float64, n)
	var maxSum float64
	for _, g := range grads {
		for i, v := range g {
			sum[i] += v
			mag[i] += math.Abs(v)
		}
	}
	for _, s := range sum {
		maxSum = math.Max(maxSum, math.Abs(s))
	}
	for i, want := range sum {
		tol := 1e-12 * mag[i]
		if wire == cluster.WireF32 {
			tol = 1e-5 * maxSum
		}
		if d := math.Abs(got[i] - want); !(d <= tol) {
			return fmt.Errorf("dense Update[%d] = %g, plain sum %g (off by %g, tolerance %g)", i, got[i], want, d, tol)
		}
	}
	return nil
}

// checkSparse checks a sparse reduction on the f64 wire: Update[i] must
// equal the sum of acc_r[i] over exactly the ranks r that list i in
// Contributed (within 1e-9 relative), be zero everywhere else, and have
// GlobalK nonzeros on every rank.
func checkSparse(grads [][]float64, results []allreduce.Result) error {
	got := results[0].Update
	n := len(grads[0])
	if len(got) != n {
		return fmt.Errorf("sparse Update has %d entries, want %d", len(got), n)
	}
	want := make([]float64, n)
	for r, res := range results {
		for _, idx := range res.Contributed {
			if idx < 0 || int(idx) >= n {
				return fmt.Errorf("rank %d Contributed index %d outside [0,%d)", r, idx, n)
			}
			want[idx] += grads[r][idx]
		}
	}
	nnz := 0
	for i, w := range want {
		g := got[i]
		if g != 0 {
			nnz++
		}
		if w == 0 {
			if g != 0 {
				return fmt.Errorf("sparse Update[%d] = %g but no rank contributed index %d", i, g, i)
			}
			continue
		}
		if d := math.Abs(g - w); !(d <= 1e-9*math.Abs(w)) {
			return fmt.Errorf("sparse Update[%d] = %g, sum of contributions %g", i, g, w)
		}
	}
	for r, res := range results {
		if res.GlobalK != nnz {
			return fmt.Errorf("rank %d GlobalK = %d, Update has %d nonzeros", r, res.GlobalK, nnz)
		}
	}
	return nil
}
