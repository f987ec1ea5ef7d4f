package cluster

// The Transport seam: everything below Endpoint/Comm that actually moves
// a stamped Message between ranks — matching tagged point-to-point
// streams, the cluster barrier, and the out-of-band control plane — is
// behind the Transport interface, so the seven collective algorithms,
// the pipeline stage hops and the overlap engine run unmodified whether
// the ranks are goroutines in one process (inproc, the default) or real
// processes exchanging length-prefixed frames over TCP (tcp.go).
//
// The split is exactly the ownership-transfer boundary PRs 3–5 pinned:
// a Transport receives a fully stamped *Message (typed payload, wire
// words, simulated departure time) and must deliver it to dst's
// (src, tag) stream in send order. Everything above — clocks, pools,
// word accounting, trace recording — stays in Comm and is therefore
// bit-identical across backends; the conformance suite
// (internal/conformance) enforces that.

import (
	"fmt"
	"sync"
	"time"
)

// TransportKind names a transport backend ("inproc" or "tcp").
type TransportKind string

const (
	// TransportInproc is the default backend: every rank is a goroutine
	// in this process, messages move by pointer through per-rank
	// mailboxes, and the steady state is allocation-free.
	TransportInproc TransportKind = "inproc"
	// TransportTCP is the multi-process backend: one process per rank,
	// length-prefixed frames carrying the wire-chunk encoding over a
	// full mesh of TCP connections, rank 0 as rendezvous.
	TransportTCP TransportKind = "tcp"
)

// ParseTransport parses the -transport flag values "inproc" and "tcp".
func ParseTransport(s string) (TransportKind, error) {
	switch s {
	case "", "inproc":
		return TransportInproc, nil
	case "tcp":
		return TransportTCP, nil
	}
	return TransportInproc, fmt.Errorf("cluster: unknown transport %q (want inproc or tcp)", s)
}

// Transport moves stamped messages between ranks and synchronizes them.
// Implementations must preserve MPI's non-overtaking guarantee: messages
// between one (src, dst, tag) triple are taken in send order. Deliver is
// called from the sending rank's goroutine; Take/TakeEach/BarrierWait/
// Gather from the receiving rank's goroutine (at most one goroutine per
// local rank, the documented Comm threading contract).
type Transport interface {
	// Kind names the backend.
	Kind() TransportKind
	// Size is the number of ranks in the job (across all processes).
	Size() int
	// Local lists the ranks hosted in this process, ascending.
	Local() []int
	// Deliver transfers msg to dst's mailbox. Ownership of msg and its
	// typed payload passes to the transport until the receiver takes it;
	// a remote backend serializes the payload and must not retain or
	// release the buffers (fan-out payloads may still be referenced by
	// the sender).
	Deliver(src *Comm, dst int, msg *Message)
	// Take blocks until a (src, tag) message for rank arrives, or the
	// transport fails (peer death, recv deadline).
	Take(rank, src, tag int) (*Message, error)
	// TakeEach pops exactly one message per key, invoking fn in key
	// order while harvesting already-queued messages in batches.
	TakeEach(rank int, keys []RecvKey, fn func(i int, msg *Message)) error
	// BarrierWait synchronizes all ranks and returns the maximum of
	// their simulated arrival times t.
	BarrierWait(rank int, t float64) (float64, error)
	// Gather is the out-of-band control plane: every rank contributes a
	// blob, rank 0 receives all blobs in rank order (others get nil).
	// Control traffic is NOT costed by the netmodel — it carries
	// bookkeeping (stats aggregation, conformance digests), never
	// algorithm data, so modeled time stays identical across backends.
	Gather(rank int, blob []byte) ([][]byte, error)
	// Close releases the transport's resources (connections, reader
	// goroutines) after a clean shutdown handshake with the peers. Call
	// only after every local rank finished its collective operations.
	Close() error
	// Abort releases the transport's resources WITHOUT the clean
	// shutdown handshake: remote peers observe exactly what a killed
	// process produces. Failure-injection tests use it; everything else
	// wants Close.
	Abort()
}

// TransportError is a rank-attributed transport failure (a peer process
// died mid-collective, a receive deadline expired, the rendezvous timed
// out). Comm methods panic with it; Cluster.Run converts the panic into
// an error return, so a distributed failure surfaces as a usable error
// instead of a hang or a crash.
type TransportError struct {
	Rank int // local rank that observed the failure
	Err  error
}

func (e *TransportError) Error() string {
	return fmt.Sprintf("cluster: rank %d transport failure: %v", e.Rank, e.Err)
}

func (e *TransportError) Unwrap() error { return e.Err }

// inprocTransport is the default single-process backend: the per-rank
// batched mailboxes and the atomic sense-reversing barrier of the PR 3
// runtime, unchanged. It hosts every rank, never fails, and moves
// messages by pointer (the ownership-transfer protocol of payload.go).
type inprocTransport struct {
	boxes []*mailbox
	bar   *barrier
	local []int
	gath  gatherState
}

func newInprocTransport(size int) *inprocTransport {
	tr := &inprocTransport{
		boxes: make([]*mailbox, size),
		bar:   newBarrier(size),
		local: make([]int, size),
	}
	for i := range tr.boxes {
		tr.boxes[i] = newMailbox()
		tr.local[i] = i
	}
	tr.gath.init(size)
	return tr
}

func (tr *inprocTransport) Kind() TransportKind { return TransportInproc }
func (tr *inprocTransport) Size() int           { return len(tr.boxes) }
func (tr *inprocTransport) Local() []int        { return tr.local }

func (tr *inprocTransport) Deliver(_ *Comm, dst int, msg *Message) {
	tr.boxes[dst].put(msg)
}

func (tr *inprocTransport) Take(rank, src, tag int) (*Message, error) {
	return tr.boxes[rank].take(src, tag, time.Time{})
}

func (tr *inprocTransport) TakeEach(rank int, keys []RecvKey, fn func(i int, msg *Message)) error {
	return tr.boxes[rank].takeEach(keys, fn, time.Time{})
}

func (tr *inprocTransport) BarrierWait(_ int, t float64) (float64, error) {
	return tr.bar.wait(t), nil
}

func (tr *inprocTransport) Gather(rank int, blob []byte) ([][]byte, error) {
	return tr.gath.gather(rank, blob), nil
}

func (tr *inprocTransport) Close() error { return nil }
func (tr *inprocTransport) Abort()       {}

// gatherState is the in-process control-plane gather: ranks deposit
// blobs under one lock, and the last arrival hands the generation's
// blobs to rank 0 and opens the next one. Rank 0 collects them before
// it can contribute to the next generation, so one slot holds them.
type gatherState struct {
	mu    sync.Mutex
	cond  *sync.Cond
	blobs [][]byte
	done  [][]byte
	count int
	gen   int
}

func (g *gatherState) init(size int) {
	g.cond = sync.NewCond(&g.mu)
	g.blobs = make([][]byte, size)
}

func (g *gatherState) gather(rank int, blob []byte) [][]byte {
	g.mu.Lock()
	defer g.mu.Unlock()
	gen := g.gen
	g.blobs[rank] = append([]byte(nil), blob...)
	if g.count++; g.count == len(g.blobs) {
		g.done, g.blobs = g.blobs, make([][]byte, len(g.blobs))
		g.count = 0
		g.gen++
		g.cond.Broadcast()
	}
	for g.gen == gen {
		g.cond.Wait()
	}
	if rank != 0 {
		return nil
	}
	out := g.done
	g.done = nil
	return out
}
