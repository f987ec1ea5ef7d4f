package topk

// ReuseController implements Ok-Topk's threshold re-evaluation and reuse
// strategy (§3.1.3): gradient-value statistics form a slowly changing
// stochastic process, so an exact threshold computed at iteration t stays
// accurate for the following τ′−1 iterations. The controller decides when
// to recompute and caches the threshold between recomputations.
//
// The zero value is not usable; construct with NewReuseController.
type ReuseController struct {
	period    int       // τ′, re-evaluation period in iterations
	threshold float64   // cached exact threshold
	evaluated bool      // true once the first evaluation has happened
	evals     int       // number of exact evaluations performed (for cost accounting)
	reuses    int       // number of cached reuses served
	scratch   []float64 // ThresholdInto candidate buffer, O(k), reused across exact re-evaluations
}

// NewReuseController returns a controller with re-evaluation period τ′.
// period must be >= 1; period == 1 degenerates to exact selection every
// iteration.
func NewReuseController(period int) *ReuseController {
	if period < 1 {
		panic("topk: reuse period must be >= 1")
	}
	return &ReuseController{period: period}
}

// ShouldReevaluate reports whether iteration t (1-based, as in
// Algorithm 1's "(t-1) mod τ′ == 0") requires an exact threshold
// recomputation. The first iteration always re-evaluates.
func (c *ReuseController) ShouldReevaluate(t int) bool {
	return !c.evaluated || (t-1)%c.period == 0
}

// ThresholdFor returns the threshold to use at iteration t for gradient
// x and target k. When the period elapses it computes the exact
// quickselect threshold; otherwise it returns the cached value.
func (c *ReuseController) ThresholdFor(t int, x []float64, k int) float64 {
	if c.ShouldReevaluate(t) {
		c.threshold, c.scratch = ThresholdInto(x, k, c.scratch)
		c.evaluated = true
		c.evals++
	} else {
		c.reuses++
	}
	return c.threshold
}

// Set installs an externally computed threshold (used by the global
// threshold path, where the exact value is derived from the allgathered
// reduced top-k values rather than the local gradient).
func (c *ReuseController) Set(th float64) {
	c.threshold = th
	c.evaluated = true
	c.evals++
}

// Current returns the cached threshold; valid only after the first
// evaluation.
func (c *ReuseController) Current() float64 { return c.threshold }

// Evaluated reports whether a threshold has been computed at least once.
func (c *ReuseController) Evaluated() bool { return c.evaluated }

// Stats returns the number of exact evaluations and cached reuses, used
// by the sparsification-overhead accounting in the experiment harness.
func (c *ReuseController) Stats() (evals, reuses int) { return c.evals, c.reuses }

// Period returns τ′.
func (c *ReuseController) Period() int { return c.period }
