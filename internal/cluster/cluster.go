// Package cluster is the in-process message-passing runtime that stands
// in for MPI: P workers run as goroutines, each holding a Comm with its
// rank and the cluster size. Comm provides eager tagged point-to-point
// send/receive with MPI-like non-overtaking semantics (messages between
// one (source, destination, tag) triple are received in send order),
// non-blocking sends, barriers, and integration with the netmodel clocks
// so every byte moved is costed under the α-β model.
//
// Mailboxes are unbounded, i.e. sends use the eager protocol and never
// deadlock against a missing receive; this mirrors how the paper's
// mpi4py implementation exchanges small sparse chunks.
//
// The runtime is allocation-free in steady state: messages and the
// common payload shapes ([]float64 and []float32 buffers, Chunks,
// []Chunk containers) are typed fields of Message rather than interface
// values, drawn from per-rank freelists under the ownership-transfer
// protocol documented in payload.go. The generic Send/Recv (any
// payload) remains for cold paths and tests.
//
// A cluster is built for one Wire format (NewWire): on the default f64
// wire every value is an 8-byte word; on the f32 wire values are
// rounded to float32 at the send edge, travel as pooled []float32
// buffers, and every 4-byte element is accounted as half a word — see
// wire.go. Compute above the runtime stays float64 in both modes.
//
// Message movement itself is pluggable (transport.go): the default
// inproc Transport hosts all P ranks as goroutines and keeps the
// zero-allocation pointer-passing steady state described above, while
// the tcp Transport (tcp.go) hosts one rank per OS process and ships
// the same typed payloads as length-prefixed frames. Comm's semantics —
// tags, non-overtaking order, word accounting, modeled time — are
// identical on both; internal/conformance pins that cross-backend.
package cluster

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netmodel"
	"repro/internal/trace"
)

// payloadKind discriminates the typed payload fields of a Message.
type payloadKind uint8

const (
	payloadAny payloadKind = iota
	payloadFloats
	payloadFloats32
	payloadChunk
	payloadChunks
)

// Message is an in-flight point-to-point message. The payload lives in
// exactly one of Data (generic), floats, floats32, chunk or chunks,
// selected by kind; typed payloads avoid the interface boxing
// allocation that a plain `any` field forces on every send.
type Message struct {
	Src    int
	Tag    int
	Data   any     // generic payload; receivers type-assert
	Words  int     // accounted wire size in 8-byte words
	Depart float64 // simulated departure time at the sender

	kind     payloadKind
	floats   []float64
	floats32 []float32
	chunk    Chunk
	chunks   []Chunk
}

// payload extracts the message payload as an interface value (boxing
// typed payloads; only the generic Recv pays this).
func (m *Message) payload() any {
	switch m.kind {
	case payloadFloats:
		return m.floats
	case payloadFloats32:
		return m.floats32
	case payloadChunk:
		return m.chunk
	case payloadChunks:
		return m.chunks
	default:
		return m.Data
	}
}

// RecvKey identifies one (source, tag) message stream into a mailbox.
type RecvKey struct {
	Src, Tag int
}

// mbQueue is the FIFO for one (source, tag) stream. head indexes the
// next message to deliver; popped slots are nilled and the backing array
// is recycled once drained, so a long-lived stream does not grow without
// bound.
type mbQueue struct {
	msgs []*Message
	head int
}

func (q *mbQueue) push(msg *Message) {
	q.msgs = append(q.msgs, msg)
}

func (q *mbQueue) empty() bool { return q.head == len(q.msgs) }

func (q *mbQueue) pop() *Message {
	msg := q.msgs[q.head]
	q.msgs[q.head] = nil
	q.head++
	if q.empty() {
		q.msgs = q.msgs[:0]
		q.head = 0
	}
	return msg
}

// mailbox is one rank's inbox: per-(source, tag) FIFO queues under one
// mutex. Matching is an O(1) map lookup. Because a rank has exactly one
// receiving goroutine, a single condition variable per mailbox suffices;
// puts signal it only when that receiver is actually blocked (the
// `waiting` flag), so steady-state puts into a busy rank are a
// lock/append/unlock with no wakeup at all.
//
// A mailbox can be poisoned (fail): once a transport observes a fatal
// condition — a peer connection dropped, the job torn down — every
// pending and future take returns that error instead of blocking
// forever. Takes also accept a timeout, so a receive that will never be
// satisfied (the sender's process died before sending) surfaces as an
// error within bounded time. Both paths cost nothing in the steady
// state: the error is checked and the deadline computed only when a
// take finds its queue empty, so a take that finds its message waiting
// never reads the clock.
type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queues  map[RecvKey]*mbQueue
	waiting bool
	err     error

	// Reusable deadline timer for blocked takes. A mailbox has exactly
	// one receiving goroutine, so one timer suffices; re-arming it
	// (Reset) instead of allocating a time.AfterFunc per blocked take
	// keeps the tcp receive path allocation-free. armSeq counts arms and
	// firedSeq records the arm current at the last callback run — a
	// waiter treats a fire as its own only after confirming the wall
	// clock actually passed its deadline, which makes stale callbacks
	// from a previous take (possible around Reset) harmless.
	timer    *time.Timer
	armSeq   uint64
	firedSeq uint64
}

func newMailbox() *mailbox {
	m := &mailbox{queues: make(map[RecvKey]*mbQueue)}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// queue returns the stream for key, creating it on first use. Caller
// holds mu.
func (m *mailbox) queue(key RecvKey) *mbQueue {
	q := m.queues[key]
	if q == nil {
		q = &mbQueue{}
		m.queues[key] = q
	}
	return q
}

func (m *mailbox) put(msg *Message) {
	m.mu.Lock()
	m.queue(RecvKey{msg.Src, msg.Tag}).push(msg)
	wake := m.waiting
	m.mu.Unlock()
	if wake {
		m.cond.Signal()
	}
}

// fail poisons the mailbox: every pending and future take returns err.
// The first failure wins; later calls keep the original cause.
func (m *mailbox) fail(err error) {
	m.mu.Lock()
	if m.err == nil {
		m.err = err
	}
	m.mu.Unlock()
	m.cond.Broadcast()
}

// armDeadline (re)arms the shared deadline timer for a blocked take and
// returns the arm's sequence number. Caller holds mu. sync.Cond has no
// timed wait; a timer that broadcasts is the standard workaround — here
// with one reusable timer per mailbox instead of an allocation per
// blocked take.
func (m *mailbox) armDeadline(deadline time.Time) uint64 {
	m.armSeq++
	d := time.Until(deadline)
	if m.timer == nil {
		m.timer = time.AfterFunc(d, m.deadlineFired)
	} else {
		m.timer.Reset(d)
	}
	return m.armSeq
}

// deadlineFired is the timer callback: record which arm was current and
// wake the waiter, which re-checks its own deadline against the wall
// clock (a stale fire from an earlier take re-arms instead of erroring).
func (m *mailbox) deadlineFired() {
	m.mu.Lock()
	m.firedSeq = m.armSeq
	m.mu.Unlock()
	m.cond.Broadcast()
}

// expiredNow reports whether a waiter that armed seq should give up: its
// timer (or a stale predecessor) fired and the deadline truly passed.
// Caller holds mu; on a stale fire the caller re-arms.
func (m *mailbox) expiredNow(seq uint64, deadline time.Time) (expired, stale bool) {
	if seq == 0 || m.firedSeq < seq {
		return false, false
	}
	if time.Now().Before(deadline) {
		return false, true
	}
	return true, false
}

// take removes and returns the first queued message matching (src, tag),
// blocking until one arrives, the mailbox is poisoned, or timeout (zero
// = none) has passed since the take first found the queue empty. FIFO
// order within one (src, tag) stream preserves MPI's non-overtaking
// semantics. Queued messages are always drained ahead of a failure
// report: data that arrived before the fault stays deliverable. Only a
// blocked take with a timeout arms the mailbox's reusable timer, so a
// take allocates nothing.
func (m *mailbox) take(src, tag int, timeout time.Duration) (*Message, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	q := m.queue(RecvKey{src, tag})
	var seq uint64
	var deadline time.Time
	for q.empty() {
		if m.err != nil {
			m.stopDeadline(seq)
			return nil, m.err
		}
		if timeout > 0 {
			if deadline.IsZero() {
				deadline = time.Now().Add(timeout)
			}
			expired, stale := m.expiredNow(seq, deadline)
			if expired {
				return nil, fmt.Errorf("recv deadline exceeded waiting for (src=%d, tag=%d)", src, tag)
			}
			if seq == 0 || stale {
				seq = m.armDeadline(deadline)
			}
		}
		m.waiting = true
		m.cond.Wait()
	}
	m.waiting = false
	m.stopDeadline(seq)
	return q.pop(), nil
}

// takeEach pops exactly one message per key, invoking deliver in key
// order (the order the caller's algorithm needs for deterministic
// accumulation). Messages that are already queued are harvested in
// batches under a single lock hold, so a receiver that fell behind a
// burst of puts pays one lock round-trip per batch instead of one per
// message. Poisoning and the timeout (zero = none, counted from the
// first time the call finds a queue empty) abort the wait exactly as in
// take; messages already handed to deliver stay delivered.
func (m *mailbox) takeEach(keys []RecvKey, deliver func(i int, msg *Message), timeout time.Duration) error {
	var batch [16]*Message
	var seq uint64
	var deadline time.Time
	i := 0
	m.mu.Lock()
	for i < len(keys) {
		n := 0
		for i+n < len(keys) && n < len(batch) {
			q := m.queue(keys[i+n])
			if q.empty() {
				break
			}
			batch[n] = q.pop()
			n++
		}
		if n == 0 {
			if m.err != nil {
				err := m.err
				m.mu.Unlock()
				m.stopDeadline(seq)
				return err
			}
			if timeout > 0 {
				if deadline.IsZero() {
					deadline = time.Now().Add(timeout)
				}
				expired, stale := m.expiredNow(seq, deadline)
				if expired {
					m.mu.Unlock()
					return fmt.Errorf("recv deadline exceeded waiting for (src=%d, tag=%d)", keys[i].Src, keys[i].Tag)
				}
				if seq == 0 || stale {
					seq = m.armDeadline(deadline)
				}
			}
			m.waiting = true
			m.cond.Wait()
			continue
		}
		m.waiting = false
		m.mu.Unlock()
		for j := 0; j < n; j++ {
			deliver(i+j, batch[j])
			batch[j] = nil
		}
		i += n
		m.mu.Lock()
	}
	m.waiting = false
	m.mu.Unlock()
	m.stopDeadline(seq)
	return nil
}

// stopDeadline stops the shared timer if this waiter armed it (seq != 0).
// Safe without mu: Timer.Stop is concurrency-safe, and a callback that
// slips through anyway only causes a harmless broadcast plus a stale
// fire the next waiter re-arms past.
func (m *mailbox) stopDeadline(seq uint64) {
	if seq != 0 {
		m.timer.Stop()
	}
}

// barrier is a reusable sense-reversing barrier on atomics: arrivals
// fetch-add a counter and CAS-max their simulated arrival time into the
// current generation's slot; the last arrival resets the next
// generation's slot and flips the sense, releasing the spinners. Two
// time slots alternate by generation parity, which is safe because a
// rank cannot arrive at generation g+2 before every rank has consumed
// generation g's result. Waiters poll with a bounded scheduler yield
// then sleep-backoff, so the barrier needs no mutex, condition
// variable, or allocation and never monopolizes the run queue.
type barrier struct {
	size    int32
	count   atomic.Int32
	sense   atomic.Uint32
	maxTime [2]atomic.Uint64 // float64 bits of max arrival time, slot = gen&1
}

func newBarrier(size int) *barrier {
	return &barrier{size: int32(size)}
}

func (b *barrier) wait(t float64) float64 {
	gen := b.sense.Load()
	slot := &b.maxTime[gen&1]
	for {
		old := slot.Load()
		if math.Float64frombits(old) >= t {
			break
		}
		if slot.CompareAndSwap(old, math.Float64bits(t)) {
			break
		}
	}
	if b.count.Add(1) == b.size {
		b.count.Store(0)
		b.maxTime[(gen+1)&1].Store(0)
		res := math.Float64frombits(slot.Load())
		b.sense.Add(1)
		return res
	}
	// Bounded spin, then sleep-backoff: yielding alone is fine while the
	// stragglers are about to arrive, but with P far above GOMAXPROCS a
	// pure Gosched loop would churn the run queue and steal scheduler
	// time from the ranks still computing.
	for spins := 0; b.sense.Load() == gen; spins++ {
		if spins < 32 {
			runtime.Gosched()
		} else {
			time.Sleep(20 * time.Microsecond)
		}
	}
	return math.Float64frombits(slot.Load())
}

// Cluster owns one process's share of a P-worker run: the transport and
// per-rank state (clock, communicator, pools) for every rank hosted
// here. Under the inproc transport that is all P ranks; under tcp it is
// one rank, and the slices stay sized P with only the local entries
// populated so rank indices keep meaning the same thing everywhere.
type Cluster struct {
	size      int
	wire      Wire
	transport Transport
	clocks    []*netmodel.Clock
	comms     []Comm
	pools     []rankPools
	recorder  *trace.Recorder

	runErrs   []error
	runPanics []any
	// Run's per-call state: the body, the wait group, and each local
	// rank's goroutine entry, a closure over runRank bound once.
	runBody  func(comm *Comm) error
	runWG    sync.WaitGroup
	runRanks []func()
}

// SetRecorder attaches a trace recorder; every subsequent send and
// delivery is recorded. Pass nil to disable.
func (c *Cluster) SetRecorder(r *trace.Recorder) { c.recorder = r }

// New creates a cluster of the given size with per-rank clocks using the
// supplied cost parameters, on the default float64 wire.
func New(size int, params netmodel.Params) *Cluster {
	return NewWire(size, params, WireF64)
}

// NewWire creates a cluster with an explicit wire format, on the default
// inproc transport. WireF32 makes every collective ship rounded float32
// values in pooled []float32 buffers at half-word accounting; compute
// above the wire stays float64.
func NewWire(size int, params netmodel.Params, wire Wire) *Cluster {
	if size <= 0 {
		panic("cluster: size must be positive")
	}
	return newCluster(params, wire, newInprocTransport(size))
}

// newCluster wires per-rank state onto an already-built transport.
func newCluster(params netmodel.Params, wire Wire, tr Transport) *Cluster {
	size := tr.Size()
	c := &Cluster{size: size, wire: wire, transport: tr}
	c.clocks = make([]*netmodel.Clock, size)
	c.comms = make([]Comm, size)
	c.pools = make([]rankPools, size)
	c.runErrs = make([]error, size)
	c.runPanics = make([]any, size)
	c.runRanks = make([]func(), size)
	for _, i := range tr.Local() {
		c.runRanks[i] = func() { c.runRank(i) }
		c.clocks[i] = netmodel.NewRankClock(params, i)
		c.comms[i] = Comm{cluster: c, rank: i, clock: c.clocks[i]}
		c.comms[i].takeChunk = c.comms[i].deliverChunk
		c.pools[i].chunks.clearOnPut = true
	}
	// A transport that decodes inbound payloads on its own goroutines
	// (tcp's connection readers) shares the local rank's pools: hand it
	// the pointer.
	if pb, ok := tr.(interface{ bindPools(*rankPools) }); ok {
		for _, i := range tr.Local() {
			pb.bindPools(&c.pools[i])
		}
	}
	return c
}

// Size returns the number of workers across the whole job.
func (c *Cluster) Size() int { return c.size }

// LocalRanks lists the ranks hosted in this process, ascending. The
// inproc transport hosts all of them; tcp hosts one.
func (c *Cluster) LocalRanks() []int { return c.transport.Local() }

// AllLocal reports whether every rank runs in this process — the
// condition under which cross-rank state (Stats of all ranks, direct
// Comm access to any rank) is meaningful without a Gather.
func (c *Cluster) AllLocal() bool { return len(c.transport.Local()) == c.size }

// Close releases the transport (connections, reader goroutines) after a
// clean shutdown handshake. Only call it after Run returned; the inproc
// transport makes it a no-op.
func (c *Cluster) Close() error { return c.transport.Close() }

// Abort releases the transport without the clean shutdown handshake, so
// remote peers observe the same bare connection loss a killed process
// produces. For failure-injection tests; everything else wants Close.
func (c *Cluster) Abort() { c.transport.Abort() }

// Comm returns the communicator for the given rank, which must be hosted
// in this process. Typically only Run needs this, but tests drive
// individual ranks directly.
func (c *Cluster) Comm(rank int) *Comm {
	if rank < 0 || rank >= c.size {
		panic(fmt.Sprintf("cluster: rank %d out of range [0,%d)", rank, c.size))
	}
	if c.clocks[rank] == nil {
		panic(fmt.Sprintf("cluster: rank %d is not hosted in this process (transport %s, local %v)",
			rank, c.transport.Kind(), c.transport.Local()))
	}
	return &c.comms[rank]
}

// Stats returns the per-rank clock snapshots after (or during) a run.
// Ranks hosted elsewhere report zero stats; callers that need the whole
// job's view gather them over the control plane (Comm.Gather).
func (c *Cluster) Stats() []netmodel.Stats {
	out := make([]netmodel.Stats, c.size)
	for i, cl := range c.clocks {
		if cl != nil {
			out[i] = cl.Snapshot()
		}
	}
	return out
}

// ResetClocks zeroes all local clocks, keeping parameters; used between
// measured iterations.
func (c *Cluster) ResetClocks() {
	for _, cl := range c.clocks {
		if cl != nil {
			cl.Reset()
		}
	}
}

// Run executes body once per local rank, each in its own goroutine, and
// waits for all to finish. A transport failure (*TransportError panic —
// a dead peer, an expired receive deadline) is converted into that
// rank's error return, so a distributed fault surfaces as an error, not
// a crash. Any other panic is captured and re-panicked on the caller
// with rank attribution; the first non-nil error is returned. Calls on
// one cluster must not overlap. A call allocates nothing: the rank
// goroutines start from entries bound when the cluster was built and
// read body from the cluster.
func (c *Cluster) Run(body func(comm *Comm) error) error {
	local := c.transport.Local()
	for _, r := range local {
		c.runErrs[r] = nil
		c.runPanics[r] = nil
	}
	c.runBody = body
	c.runWG.Add(len(local))
	for _, r := range local {
		go c.runRanks[r]()
	}
	c.runWG.Wait()
	c.runBody = nil
	for r, p := range c.runPanics {
		if p != nil {
			panic(fmt.Sprintf("cluster: rank %d panicked: %v", r, p))
		}
	}
	for _, err := range c.runErrs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runRank is one rank's goroutine of Run.
func (c *Cluster) runRank(rank int) {
	defer c.runWG.Done()
	defer func() {
		if p := recover(); p != nil {
			if te, ok := p.(*TransportError); ok {
				c.runErrs[rank] = te
				return
			}
			c.runPanics[rank] = p
		}
	}()
	c.runErrs[rank] = c.runBody(&c.comms[rank])
}

// Endpoint is the communicator surface the collective algorithms are
// written against: a rank within a group, tagged point-to-point
// messaging (generic and typed/pooled), per-rank buffer pools, a
// simulated clock, and group synchronization. *Comm (the world
// communicator) and *Group (a sub-communicator) implement it.
type Endpoint interface {
	Rank() int
	Size() int
	Wire() Wire
	Send(dst, tag int, data any, words int)
	SendFloats(dst, tag int, x []float64, words int)
	SendFloat32s(dst, tag int, x []float32, words int)
	SendChunk(dst, tag int, ch Chunk, words int)
	SendChunks(dst, tag int, chs []Chunk, words int)
	Recv(src, tag int) any
	RecvFloat64(src, tag int) []float64
	RecvFloat32(src, tag int) []float32
	RecvChunk(src, tag int) Chunk
	RecvChunks(src, tag int) []Chunk
	RecvChunkEach(keys []RecvKey, fn func(i int, ch Chunk))
	GetFloats(n int) []float64
	PutFloats(s []float64)
	GetFloat32s(n int) []float32
	PutFloat32s(s []float32)
	GetInt32s(n int) []int32
	PutInt32s(s []int32)
	GetChunks(n int) []Chunk
	PutChunks(s []Chunk)
	Clock() *netmodel.Clock
	Barrier()
	DrainSends()
}

// Comm is one rank's endpoint, analogous to an MPI communicator bound to
// a rank. All methods must be called only from that rank's goroutine.
type Comm struct {
	cluster *Cluster
	rank    int
	clock   *netmodel.Clock
	// eachFn is the callback of the RecvChunkEach call in progress, and
	// takeChunk is deliverChunk bound once: the transport's TakeEach
	// callback escapes through the Transport interface, so a closure
	// built per call would be garbage.
	eachFn    func(i int, ch Chunk)
	takeChunk func(i int, msg *Message)
}

var _ Endpoint = (*Comm)(nil)

// Rank returns this worker's rank in [0, Size).
func (cm *Comm) Rank() int { return cm.rank }

// Size returns the number of workers in the cluster.
func (cm *Comm) Size() int { return cm.cluster.size }

// Wire returns the cluster's wire format; collective algorithms consult
// it to pick the value representation and word accounting at the edges.
func (cm *Comm) Wire() Wire { return cm.cluster.wire }

// Clock exposes the rank's simulated clock for phase switching and local
// compute accounting.
func (cm *Comm) Clock() *netmodel.Clock { return cm.clock }

func (cm *Comm) pools() *rankPools { return &cm.cluster.pools[cm.rank] }

// stampSend charges the send under the cost model, records it, and
// returns a pooled message stamped with the departure time.
func (cm *Comm) stampSend(dst, tag, words int) *Message {
	if dst == cm.rank {
		panic("cluster: send to self (use local buffers instead)")
	}
	if tag < 0 {
		panic("cluster: negative tags are reserved for transport control messages")
	}
	depart := cm.clock.StampSendTo(dst, words)
	if rec := cm.cluster.recorder; rec != nil {
		rec.Record(trace.Event{
			Kind: trace.SendEvent, Rank: cm.rank, Peer: dst,
			Tag: tag, Words: words, Time: depart,
		})
	}
	msg := cm.pools().getMsg()
	msg.Src, msg.Tag, msg.Words, msg.Depart = cm.rank, tag, words, depart
	return msg
}

// Send transmits a generic payload of the given wire size (in words) to
// dst with the tag. It is eager: the call never blocks on the receiver;
// the sender's clock advances only to the NIC injection point. Hot paths
// use the typed variants below, which avoid boxing the payload.
func (cm *Comm) Send(dst, tag int, data any, words int) {
	msg := cm.stampSend(dst, tag, words)
	msg.kind, msg.Data = payloadAny, data
	cm.cluster.transport.Deliver(cm, dst, msg)
}

// SendFloats transmits a []float64 payload without boxing. Ownership of
// x transfers to the receiver (see payload.go); the receiver releases it
// with PutFloats, so x must be pooled or freshly allocated — never a
// live slice the sender will touch again.
func (cm *Comm) SendFloats(dst, tag int, x []float64, words int) {
	msg := cm.stampSend(dst, tag, words)
	msg.kind, msg.floats = payloadFloats, x
	cm.cluster.transport.Deliver(cm, dst, msg)
}

// SendFloat32s transmits an f32-wire value payload without boxing.
// Ownership of x transfers to the receiver exactly as for SendFloats;
// the receiver releases it with PutFloat32s.
func (cm *Comm) SendFloat32s(dst, tag int, x []float32, words int) {
	msg := cm.stampSend(dst, tag, words)
	msg.kind, msg.floats32 = payloadFloats32, x
	cm.cluster.transport.Deliver(cm, dst, msg)
}

// SendChunk transmits a single Chunk without boxing. Ownership of the
// chunk's Data/Aux transfers to the receiver unless they fan out to
// other ranks too (in which case the receiver must not release them).
func (cm *Comm) SendChunk(dst, tag int, ch Chunk, words int) {
	msg := cm.stampSend(dst, tag, words)
	msg.kind, msg.chunk = payloadChunk, ch
	cm.cluster.transport.Deliver(cm, dst, msg)
}

// SendChunks transmits a chunk container without boxing. The container
// itself transfers to the receiver (released with PutChunks); the
// embedded Data/Aux payloads keep their own ownership rules.
func (cm *Comm) SendChunks(dst, tag int, chs []Chunk, words int) {
	msg := cm.stampSend(dst, tag, words)
	msg.kind, msg.chunks = payloadChunks, chs
	cm.cluster.transport.Deliver(cm, dst, msg)
}

// recvMsg blocks for the message, charges its delivery under the cost
// model and records it. The caller extracts the payload and releases the
// message via release(). A transport failure (dead peer, expired recv
// deadline) panics with a rank-attributed *TransportError, which
// Cluster.Run converts into an error return.
func (cm *Comm) recvMsg(src, tag int) *Message {
	if src == cm.rank {
		panic("cluster: recv from self")
	}
	msg, err := cm.cluster.transport.Take(cm.rank, src, tag)
	if err != nil {
		panic(&TransportError{Rank: cm.rank, Err: err})
	}
	cm.deliver(msg)
	return msg
}

// deliver charges and records an already-matched message.
func (cm *Comm) deliver(msg *Message) {
	cm.clock.StampRecvFrom(msg.Src, msg.Depart, msg.Words)
	if rec := cm.cluster.recorder; rec != nil {
		rec.Record(trace.Event{
			Kind: trace.RecvEvent, Rank: cm.rank, Peer: msg.Src,
			Tag: msg.Tag, Words: msg.Words, Time: cm.clock.Now(),
		})
	}
}

func (cm *Comm) release(msg *Message) { cm.pools().putMsg(msg) }

// Recv blocks until a message with the given source and tag arrives,
// charges its delivery under the cost model, and returns the payload.
// Typed payloads are boxed; hot paths use the typed receives below.
func (cm *Comm) Recv(src, tag int) any {
	msg := cm.recvMsg(src, tag)
	data := msg.payload()
	cm.release(msg)
	return data
}

// RecvFloat64 receives a []float64 payload (sent with SendFloats or a
// generic Send). The caller owns the buffer and should release it with
// PutFloats once consumed.
func (cm *Comm) RecvFloat64(src, tag int) []float64 {
	msg := cm.recvMsg(src, tag)
	var x []float64
	if msg.kind == payloadFloats {
		x = msg.floats
	} else {
		x = msg.Data.([]float64)
	}
	cm.release(msg)
	return x
}

// RecvFloat32 receives an f32-wire value payload (sent with
// SendFloat32s or a generic Send). The caller owns the buffer and
// should release it with PutFloat32s once its contents are widened into
// local float64 state.
func (cm *Comm) RecvFloat32(src, tag int) []float32 {
	msg := cm.recvMsg(src, tag)
	var x []float32
	if msg.kind == payloadFloats32 {
		x = msg.floats32
	} else {
		x = msg.Data.([]float32)
	}
	cm.release(msg)
	return x
}

// RecvChunk receives a single-chunk payload. Ownership of Data/Aux
// follows the sender's convention (pooled point-to-point payloads are
// released by this rank; fanned-out payloads must not be).
func (cm *Comm) RecvChunk(src, tag int) Chunk {
	msg := cm.recvMsg(src, tag)
	var ch Chunk
	if msg.kind == payloadChunk {
		ch = msg.chunk
	} else {
		ch = msg.Data.(Chunk)
	}
	cm.release(msg)
	return ch
}

// RecvChunks receives a multi-chunk container. The caller releases the
// container with PutChunks after copying the chunks out.
func (cm *Comm) RecvChunks(src, tag int) []Chunk {
	msg := cm.recvMsg(src, tag)
	var chs []Chunk
	if msg.kind == payloadChunks {
		chs = msg.chunks
	} else {
		chs = msg.Data.([]Chunk)
	}
	cm.release(msg)
	return chs
}

// RecvChunkEach receives one single-chunk message per key, delivering
// them to fn in key order (so float accumulation stays deterministic)
// while harvesting already-arrived messages in batches under one
// mailbox lock hold. This is the multi-stream receive the split-and-
// reduce phase drains its P−1 region messages with.
func (cm *Comm) RecvChunkEach(keys []RecvKey, fn func(i int, ch Chunk)) {
	for _, k := range keys {
		if k.Src == cm.rank {
			panic("cluster: recv from self")
		}
	}
	cm.eachFn = fn
	err := cm.cluster.transport.TakeEach(cm.rank, keys, cm.takeChunk)
	cm.eachFn = nil
	if err != nil {
		panic(&TransportError{Rank: cm.rank, Err: err})
	}
}

// deliverChunk hands one message RecvChunkEach took to its callback.
func (cm *Comm) deliverChunk(i int, msg *Message) {
	cm.deliver(msg)
	var ch Chunk
	if msg.kind == payloadChunk {
		ch = msg.chunk
	} else {
		ch = msg.Data.(Chunk)
	}
	cm.release(msg)
	cm.eachFn(i, ch)
}

// Barrier synchronizes all ranks and their clocks, charging a
// dissemination barrier's ⌈log₂P⌉ α cost. The released time is the
// maximum over all ranks' arrival times, which is order-independent, so
// the post-barrier clock is bit-identical on every transport.
func (cm *Comm) Barrier() {
	maxT, err := cm.cluster.transport.BarrierWait(cm.rank, cm.clock.Now())
	if err != nil {
		panic(&TransportError{Rank: cm.rank, Err: err})
	}
	steps := bits.Len(uint(cm.cluster.size - 1))
	cm.clock.AdvanceTo(maxT + float64(steps)*cm.clock.Params().Alpha)
}

// DrainSends waits for the send NIC to go idle (models MPI_Waitall on
// outstanding isends).
func (cm *Comm) DrainSends() { cm.clock.DrainSends() }

// Gather is the out-of-band control plane: every rank contributes a
// byte blob; rank 0 gets all blobs in rank order, other ranks get nil.
// It carries bookkeeping — per-rank stats, conformance digests — never
// collective data, and is deliberately not costed by the netmodel, so
// modeled time stays identical whether or not callers gather. Like the
// other Comm methods it must be called from this rank's goroutine, and
// collectively: every rank of the job must call it the same number of
// times. The caller may reuse blob once Gather returns, and rank 0's
// result stays valid until its next Gather.
func (cm *Comm) Gather(blob []byte) [][]byte {
	out, err := cm.cluster.transport.Gather(cm.rank, blob)
	if err != nil {
		panic(&TransportError{Rank: cm.rank, Err: err})
	}
	return out
}
