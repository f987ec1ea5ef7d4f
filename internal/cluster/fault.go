package cluster

// Deterministic fault injection for the tcp transport. A FaultHook
// intercepts every outgoing data frame of one rank; whatever it decides
// is applied by the transport at well-defined points, so a chaos test
// driven by a seeded plan (internal/chaos) reproduces the exact same
// fault at the exact same frame on every run. The hook is called only
// from the rank's own goroutine — implementations need no locking of
// their own.

import "time"

// FaultAction is what the transport does to the frame about to be sent
// (or to the rank sending it).
type FaultAction int

const (
	// FaultNone lets the frame through unchanged.
	FaultNone FaultAction = iota
	// FaultKill terminates this rank without warning: worker processes
	// exit (TCPOptions.OnKill, typically os.Exit), in-process ranks
	// Abort the transport and panic a TransportError — either way the
	// peers observe the bare connection loss a crashed process produces.
	FaultKill
	// FaultWedge makes the rank go silent without dying: its heartbeats
	// stop and the rank goroutine blocks until the transport is torn
	// down. Peers must detect it in O(heartbeat), not at a read stall.
	FaultWedge
	// FaultStall sleeps Wall of host time before the send — a straggler
	// or a delayed connection, depending on how the plan scoped it.
	FaultStall
	// FaultCorrupt flips one bit of the frame's CRC trailer, modeling
	// on-wire corruption without touching the payload, which is the
	// sender's live buffer; the receiver must reject the frame with the
	// sender attributed.
	FaultCorrupt
	// FaultDrop severs the connection to Peer (or to the frame's
	// destination when Peer is out of range) mid-job.
	FaultDrop
)

// FaultDecision is one hook verdict.
type FaultDecision struct {
	Action FaultAction
	// Wall is the FaultStall sleep duration.
	Wall time.Duration
	// Peer selects FaultDrop's victim connection; a negative or
	// out-of-range value means the frame's own destination.
	Peer int
}

// FaultHook intercepts outgoing data frames. rank is the sending rank,
// dst the frame's destination, frame the 1-based count of data frames
// this rank has attempted (control traffic — heartbeats, barriers,
// aborts — is not counted, so frame numbers are deterministic across
// runs and transports).
type FaultHook interface {
	OnFrame(rank, dst, frame int) FaultDecision
}
