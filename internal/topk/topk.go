// Package topk implements the top-k selection strategies compared in the
// paper: exact selection via quickselect (the "accurate" baseline, O(n)
// average), threshold-based scanning (O(n), the GPU-friendly kernel both
// Gaussiank and Ok-Topk reduce to), the Gaussian percent-point estimator
// used by Gaussiank, and the periodic threshold re-evaluation / reuse
// controller that is Ok-Topk's sparsification contribution (§3.1.3).
//
// All selections are by absolute value: "top-k" means the k entries with
// the largest |value|, as is standard for gradient sparsification.
package topk

import "math"

// Threshold returns the k-th largest absolute value of x, i.e. the exact
// threshold t such that selecting {i : |x_i| >= t} yields at least k
// elements and {i : |x_i| > t} yields fewer than k. O(n) on average.
// k must be in [1, len(x)]; k > len(x) is clamped.
func Threshold(x []float64, k int) float64 {
	th, _ := ThresholdInto(x, k, nil)
	return th
}

// Parameters of ThresholdInto's candidate filter. The guess g is the
// sample's order statistic at rank ⌈1.5·sampleSize·k/n⌉ + sampleSlack:
// half again the sample's expected share of the top k, plus a slack
// that keeps the guess below the true threshold when that share is a
// handful (at k/n = 1 % the rank is 43 where 20 are expected, five
// standard deviations). Below sampleMinN the sample is not much
// smaller than x, and once the rank passes a quarter of the sample the
// filter keeps too much of x to pay for its scan.
const (
	sampleSize  = 2048
	sampleSlack = 12
	sampleMinN  = 8 * sampleSize
)

// ThresholdInto is Threshold with a caller-provided scratch buffer, so
// steady-state re-evaluation paths (the Ok-Topk reuse controllers, the
// baselines' per-iteration exact selection) do not allocate. It returns
// the threshold and the (possibly grown) scratch for the caller to
// retain. It is ThresholdRunsInto with x as the one run.
func ThresholdInto(x []float64, k int, scratch []float64) (float64, []float64) {
	return ThresholdRunsInto(func(int) []float64 { return x }, 1, len(x), k, scratch)
}

// ThresholdRunsInto is ThresholdInto over the concatenation
// x = run(0) ‖ run(1) ‖ … ‖ run(m−1) of n values, read where they lie
// instead of copied into one slice first (Ok-Topk's global threshold
// reads the allgathered chunks this way). It samples the same positions
// of x, collects the same candidates in the same order and so returns
// the same threshold and scratch as ThresholdInto on the copy. Each of
// up to three passes calls run(0), run(1), … in order (the sampling
// pass stops after the last sampled position) and is done with a run
// before it asks for the next, so run may return a buffer it rewrites
// on every call (a chunk widened from the f32 wire). n must be the
// runs' total length.
//
// It is a filter-select in the manner of Floyd and Rivest's SELECT: a
// fixed strided sample of x (no RNG, so equal inputs take equal paths)
// gives a guess g meant to lie just below the k-th largest magnitude,
// one scan collects the candidates {|x_i| >= g} into scratch, and
// quickselect runs on those. Whenever at least k candidates pass, the
// k-th largest of them is the k-th largest of x, so the result is exact
// whatever g was; the guess only decides how many candidates there are
// (about 1.5·k + sampleSlack·n/sampleSize of them, so scratch is O(k)
// and not O(n)). When fewer than k pass, or the sample cannot help
// (small n, large k/n), g = 0 makes every element a candidate, which is
// the plain copy-and-quickselect.
//
// NaN entries are never candidates (no comparison with NaN holds) and
// never reach quickselect, so they cannot break its termination: the
// result is the k-th largest magnitude of the other entries, with k
// clamped to their number, and +Inf when there are none.
func ThresholdRunsInto(run func(i int) []float64, m, n, k int, scratch []float64) (float64, []float64) {
	if n == 0 || k <= 0 {
		return math.Inf(1), scratch
	}
	if k > n {
		k = n
	}
	g, want := 0.0, n
	if r := (3*sampleSize*k+2*n-1)/(2*n) + sampleSlack; n >= sampleMinN && 4*r <= sampleSize {
		var buf [sampleSize]float64
		sample := buf[:0]
		stride := n / sampleSize
		// pos runs over the sampled positions i·stride of x, base is the
		// position of run j's first value.
		end := sampleSize * stride
		for j, pos, base := 0, 0, 0; j < m && pos < end; j++ {
			x := run(j)
			for ; pos < end && pos < base+len(x); pos += stride {
				if a := math.Abs(x[pos-base]); a >= 0 { // not NaN
					sample = append(sample, a)
				}
			}
			base += len(x)
		}
		if len(sample) >= r {
			if g = quickselectDesc(sample, r-1); g > 0 {
				// Room for the expected number of candidates and a quarter.
				want = stride * r * 5 / 4
			}
		}
	}
	cand := magnitudesAtLeast(scratch, run, m, g, want)
	if len(cand) < k && g > 0 {
		// The sampled positions were unrepresentatively large: start over
		// with every element a candidate.
		cand = magnitudesAtLeast(cand, run, m, 0, n)
	}
	if len(cand) == 0 {
		return math.Inf(1), cand
	}
	if k > len(cand) {
		k = len(cand)
	}
	return quickselectDesc(cand, k-1), cand
}

// magnitudesAtLeast collects every |x_i| >= g of the runs run(0), …,
// run(m−1) into buf, replaced when it has no room for want values (by
// one at least twice as large, so a candidate count that drifts upward
// over training stops re-allocating after a few re-evaluations); g = 0
// takes every entry that is not NaN.
func magnitudesAtLeast(buf []float64, run func(int) []float64, m int, g float64, want int) []float64 {
	if cap(buf) < want {
		buf = make([]float64, 0, max(want, 2*cap(buf)))
	}
	buf = buf[:0]
	for j := 0; j < m; j++ {
		for _, v := range run(j) {
			if a := math.Abs(v); a >= g {
				buf = append(buf, a)
			}
		}
	}
	return buf
}

// quickselectDesc returns the element that would be at position idx if a
// were sorted in descending order. It mutates a, which must hold no NaN.
func quickselectDesc(a []float64, idx int) float64 {
	lo, hi := 0, len(a)-1
	for {
		if lo == hi {
			return a[lo]
		}
		// Median-of-three pivot guards against adversarial inputs such
		// as already-sorted gradients.
		mid := lo + (hi-lo)/2
		p := medianOfThree(a[lo], a[mid], a[hi])
		i, j := lo, hi
		for i <= j {
			for a[i] > p {
				i++
			}
			for a[j] < p {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		switch {
		case idx <= j:
			hi = j
		case idx >= i:
			lo = i
		default:
			return a[idx]
		}
	}
}

func medianOfThree(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}

// AppendSelectByThreshold appends to dst the ascending indexes whose
// |x_i| >= th, using a single O(n) scan — the kernel the paper calls
// "quite efficient on GPU". dst is typically a reused scratch slice
// sliced to length zero, so steady-state callers avoid reallocating the
// index buffer every iteration. Exact zeros are never selected: a zero
// carries no information and a COO representation would not store it.
// For positive thresholds the scan is a single |x_i| >= th compare per
// element (math.Abs lowers to one bit-clear instruction, and a positive
// threshold already excludes zeros); the zero-check branch only runs
// for th <= 0.
func AppendSelectByThreshold(dst []int32, x []float64, th float64) []int32 {
	if th > 0 {
		for i, v := range x {
			if math.Abs(v) >= th {
				dst = append(dst, int32(i))
			}
		}
		return dst
	}
	for i, v := range x {
		if (v >= th || -v >= th) && v != 0 {
			dst = append(dst, int32(i))
		}
	}
	return dst
}

// AppendSelectValuesByThreshold is AppendSelectByThreshold that also
// appends each selected x_i to val, so a caller that needs the values
// (Ok-Topk's split phase, the baselines' COO selections) gets them from
// the one pass that has them in hand instead of re-reading x at k
// scattered indexes afterwards.
func AppendSelectValuesByThreshold(idx []int32, val []float64, x []float64, th float64) ([]int32, []float64) {
	if th > 0 {
		for i, v := range x {
			if math.Abs(v) >= th {
				idx = append(idx, int32(i))
				val = append(val, v)
			}
		}
		return idx, val
	}
	for i, v := range x {
		if (v >= th || -v >= th) && v != 0 {
			idx = append(idx, int32(i))
			val = append(val, v)
		}
	}
	return idx, val
}

// CountAbove returns |{i : |x_i| >= th, x_i ≠ 0}| without materializing
// indexes.
func CountAbove(x []float64, th float64) int {
	n := 0
	if th > 0 {
		for _, v := range x {
			if math.Abs(v) >= th {
				n++
			}
		}
		return n
	}
	for _, v := range x {
		if (v >= th || -v >= th) && v != 0 {
			n++
		}
	}
	return n
}

// normPPF is the percent-point function (inverse CDF) of the standard
// normal distribution, computed with the Acklam rational approximation
// (relative error < 1.15e-9), which is more than enough to reproduce the
// Gaussiank estimator.
func normPPF(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	a := [...]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [...]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [...]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [...]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}
	const pLow = 0.02425
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}

// GaussianThreshold is the Gaussiank estimator (Shi et al. [41]): fit a
// Gaussian to |x| with the sample mean μ and standard deviation σ, then
// return the threshold whose upper-tail probability is k/n, i.e.
// μ + σ·PPF(1 − k/n). Because real gradient distributions have thinner
// tails than a Gaussian with matched moments, this systematically
// overestimates the threshold (and thus underestimates k) after the
// first few epochs — the effect Figure 4 and Figure 6 document.
func GaussianThreshold(x []float64, k int) float64 {
	n := len(x)
	if n == 0 || k <= 0 {
		return math.Inf(1)
	}
	if k >= n {
		return 0
	}
	var mean float64
	for _, v := range x {
		mean += math.Abs(v)
	}
	mean /= float64(n)
	var q float64
	for _, v := range x {
		d := math.Abs(v) - mean
		q += d * d
	}
	std := math.Sqrt(q / float64(n))
	p := 1 - float64(k)/float64(n)
	th := mean + std*normPPF(p)
	if th < 0 {
		th = 0
	}
	return th
}

// AdjustThreshold scales th down geometrically until at least minCount
// elements of x pass, mirroring the adaptive adjustment the paper applies
// to Gaussiank for the fairness of the case studies ("we gradually scale
// the predicted threshold ... until the number of selected values is more
// than 3k/4"). It returns the adjusted threshold and the number of scan
// passes performed (each pass is an O(n) count, charged by the caller's
// cost model).
func AdjustThreshold(x []float64, th float64, minCount int) (float64, int) {
	passes := 0
	for {
		passes++
		if CountAbove(x, th) >= minCount || th == 0 {
			return th, passes
		}
		th *= 0.8
		if th < 1e-300 {
			return 0, passes
		}
	}
}
