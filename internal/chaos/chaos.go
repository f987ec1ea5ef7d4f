// Package chaos builds deterministic, seed-driven fault plans for the
// tcp transport. A Plan is a JSON-serializable list of faults — kill
// rank R at data frame N (or training step S), wedge a rank silent,
// stall a rank to model a straggler, delay or sever one connection,
// corrupt a frame on the wire — that the worker launcher ships to each
// rank alongside its Job. Each rank turns the plan into a
// cluster.FaultHook; because the hook triggers on the rank's own
// deterministic data-frame counter (control traffic is not counted),
// the same plan injects the same fault at the same point on every run,
// which is what makes chaos tests reproducible and their recovery
// results comparable bit-for-bit against unfailed runs.
package chaos

import (
	"math/rand"
	"time"

	"repro/internal/cluster"
)

// Fault kinds. Kill and Wedge model failed ranks (process death and a
// silent hang); Stall and Delay model stragglers; Corrupt and Drop
// model a bad wire.
const (
	// Kill terminates the rank without warning at the trigger point.
	// With Step set, the training loop exits at the top of that step;
	// with Frame set, the transport kills mid-collective.
	Kill = "kill"
	// Wedge makes the rank go silent without dying: heartbeats stop and
	// the rank blocks. Peers must detect it within the heartbeat budget.
	Wedge = "wedge"
	// Stall sleeps the rank for WallMS of host time before a send — a
	// straggler. Modeled time is unaffected, so a stalled-but-finishing
	// job must still produce bit-identical results.
	Stall = "stall"
	// Delay is Stall scoped to frames headed for one peer (Peer ≥ 0) —
	// a slow link rather than a slow rank.
	Delay = "delay"
	// Corrupt flips a bit of one frame's CRC trailer; the receiver must
	// reject the frame with the sender attributed.
	Corrupt = "corrupt"
	// Drop severs the connection to Peer (or the frame's destination)
	// mid-job.
	Drop = "drop"
)

// Fault is one planned fault, scoped to a single rank.
type Fault struct {
	// Kind is one of the constants above.
	Kind string `json:"kind"`
	// Rank is the rank that misbehaves.
	Rank int `json:"rank"`
	// Frame triggers at this rank's Nth outgoing data frame (1-based).
	// Zero means the fault does not trigger in the transport (Kill may
	// still trigger via Step).
	Frame int `json:"frame,omitempty"`
	// Step triggers a Kill at the top of this 1-based training step,
	// honored by the worker's training loop rather than the transport.
	Step int `json:"step,omitempty"`
	// Peer scopes Delay/Drop to one connection; -1 (or out of range)
	// means whatever destination the triggering frame has.
	Peer int `json:"peer,omitempty"`
	// WallMS is the Stall/Delay sleep in host milliseconds.
	WallMS int `json:"wall_ms,omitempty"`
	// EveryAttempt re-arms the fault on relaunched attempts. Default
	// false: the fault fires on the first attempt only, so a job under a
	// restart policy recovers (a fault that fires every attempt proves
	// the policy gives up cleanly instead).
	EveryAttempt bool `json:"every_attempt,omitempty"`
}

// Plan is a set of planned faults for one job.
type Plan struct {
	Faults []Fault `json:"faults"`
}

// armed reports whether f applies to this rank and attempt via the
// transport's frame counter.
func (f Fault) armed(rank, attempt int) bool {
	if f.Rank != rank || f.Frame <= 0 {
		return false
	}
	return f.EveryAttempt || attempt <= 1
}

// hook implements cluster.FaultHook for one rank's armed faults. The
// transport calls it from the rank goroutine only, so plain state is
// fine.
type hook struct {
	faults []Fault
	fired  []bool
}

func (h *hook) OnFrame(rank, dst, frame int) cluster.FaultDecision {
	for i, f := range h.faults {
		if h.fired[i] || frame < f.Frame {
			continue
		}
		// Peer-scoped faults wait for a frame actually headed there, so
		// the trigger stays deterministic even if frame f.Frame itself
		// goes elsewhere.
		if (f.Kind == Delay || f.Kind == Drop) && f.Peer >= 0 && dst != f.Peer {
			continue
		}
		h.fired[i] = true
		switch f.Kind {
		case Kill:
			return cluster.FaultDecision{Action: cluster.FaultKill}
		case Wedge:
			return cluster.FaultDecision{Action: cluster.FaultWedge}
		case Stall, Delay:
			return cluster.FaultDecision{Action: cluster.FaultStall,
				Wall: time.Duration(f.WallMS) * time.Millisecond}
		case Corrupt:
			return cluster.FaultDecision{Action: cluster.FaultCorrupt}
		case Drop:
			return cluster.FaultDecision{Action: cluster.FaultDrop, Peer: f.Peer}
		}
	}
	return cluster.FaultDecision{Action: cluster.FaultNone}
}

// Hook returns the transport fault hook for one rank of the plan, or
// nil when no fault of the plan triggers in that rank's transport (nil
// plans included — a nil *Plan is an empty plan).
func (p *Plan) Hook(rank, attempt int) cluster.FaultHook {
	if p == nil {
		return nil
	}
	var armed []Fault
	for _, f := range p.Faults {
		if f.armed(rank, attempt) {
			armed = append(armed, f)
		}
	}
	if len(armed) == 0 {
		return nil
	}
	return &hook{faults: armed, fired: make([]bool, len(armed))}
}

// KillStep returns the 1-based training step at which this rank's plan
// kills it (0 = no step-scoped kill). Step-scoped kills are honored by
// the training loop, not the transport, so a checkpoint boundary and a
// kill can be positioned relative to each other exactly.
func (p *Plan) KillStep(rank, attempt int) int {
	if p == nil {
		return 0
	}
	for _, f := range p.Faults {
		if f.Kind != Kill || f.Rank != rank || f.Step <= 0 {
			continue
		}
		if f.EveryAttempt || attempt <= 1 {
			return f.Step
		}
	}
	return 0
}

// NewRandomPlan draws one random fault for a size-rank job from a
// seeded stream: same seed, same plan. maxFrame bounds the trigger
// frame (it should be within the frames the job actually sends, or the
// fault never fires and the run degenerates to the clean case).
func NewRandomPlan(seed int64, size, maxFrame int) *Plan {
	rng := rand.New(rand.NewSource(seed))
	kinds := []string{Kill, Wedge, Stall, Delay, Corrupt, Drop}
	f := Fault{
		Kind:   kinds[rng.Intn(len(kinds))],
		Rank:   rng.Intn(size),
		Frame:  1 + rng.Intn(maxFrame),
		Peer:   -1,
		WallMS: 20 + rng.Intn(200),
	}
	return &Plan{Faults: []Fault{f}}
}
