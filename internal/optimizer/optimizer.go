// Package optimizer holds the update rules and learning-rate schedules
// of the paper's evaluation. VGG and LSTM need no rule of their own:
// Algorithm 2 folds the learning rate into the accumulator and the
// trainer subtracts the averaged update directly. Adam (BERT) consumes
// the averaged raw gradient after the sparse allreduce, matching the
// paper's BERT structure.
package optimizer

import "math"

// Adam implements Kingma & Ba with bias correction and decoupled weight
// decay (the paper's BERT configuration: lr=2e-4, β1=0.9, β2=0.999,
// weight decay 0.01, linear decay schedule applied by the caller). The
// learning rate is the caller's: Apply takes it per step.
type Adam struct {
	beta1, beta2, eps, wd float64
	m, v                  []float64
	t                     int
}

// NewAdam returns an Adam optimizer.
func NewAdam(beta1, beta2, weightDecay float64) *Adam {
	return &Adam{beta1: beta1, beta2: beta2, eps: 1e-8, wd: weightDecay}
}

// Apply performs one Adam step at learning rate lr.
func (a *Adam) Apply(params, avgGrad []float64, lr float64) {
	if a.m == nil {
		a.m = make([]float64, len(params))
		a.v = make([]float64, len(params))
	}
	a.t++
	c1 := 1 - math.Pow(a.beta1, float64(a.t))
	c2 := 1 - math.Pow(a.beta2, float64(a.t))
	for i, g := range avgGrad {
		a.m[i] = a.beta1*a.m[i] + (1-a.beta1)*g
		a.v[i] = a.beta2*a.v[i] + (1-a.beta2)*g*g
		mh := a.m[i] / c1
		vh := a.v[i] / c2
		params[i] -= lr * (mh/(math.Sqrt(vh)+a.eps) + a.wd*params[i])
	}
}

// State exposes Adam's moment vectors and step counter for
// checkpointing; the slices alias internal state (copy before storing if
// the optimizer keeps running). Nil moments mean Apply has not run yet.
func (a *Adam) State() (m, v []float64, t int) { return a.m, a.v, a.t }

// SetState installs checkpointed moments (copied) and step counter.
func (a *Adam) SetState(m, v []float64, t int) {
	if len(m) != len(v) {
		panic("optimizer: Adam moment length mismatch")
	}
	a.m = append([]float64(nil), m...)
	a.v = append([]float64(nil), v...)
	a.t = t
}

// LinearDecay returns the learning rate after linear decay from base to
// zero over totalSteps, evaluated at step (1-based).
func LinearDecay(base float64, step, totalSteps int) float64 {
	if step >= totalSteps {
		return 0
	}
	return base * (1 - float64(step)/float64(totalSteps))
}

// StepDecay divides the base rate by 10 at each milestone fraction of
// training (the "simply diminishing the learning rate" schedule the
// paper uses for VGG/LSTM).
func StepDecay(base float64, step, totalSteps int, milestones ...float64) float64 {
	lr := base
	for _, m := range milestones {
		if float64(step) >= m*float64(totalSteps) {
			lr /= 10
		}
	}
	return lr
}
