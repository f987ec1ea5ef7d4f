package cluster

// The tcp Transport: one OS process per rank, a full mesh of TCP
// connections, and the frame codec of frame.go carrying the exact same
// typed payloads the inproc mailboxes pass by pointer.
//
// # Rendezvous
//
// Rank 0 is the rendezvous point. It listens (default 127.0.0.1:0) and
// reports the bound address through OnListen — the launcher
// (internal/worker) forwards it to the other ranks. Every rank r > 0
// opens its own listener first, dials rank 0 and sends a hello frame
// carrying (r, its listen address); once all P−1 hellos are in, rank 0
// answers each with the full address table. The mesh is then completed
// deterministically: rank r dials every rank 1..r−1 from the table and
// accepts from every rank r+1..P−1, so each pair establishes exactly
// one connection. Dials retry under exponential backoff with
// deterministic per-rank jitter until the rendezvous deadline, so a
// slowly starting peer does not fail the join. All rendezvous I/O runs
// under the configured timeout and failures return errors naming the
// rendezvous step.
//
// # Steady state: the corked, batched data plane
//
// Sends are asynchronous and copy no large payload. The rank goroutine
// takes each frame's CRC from the message itself and pushes the message
// onto the destination's bounded sendQueue; a per-peer writer goroutine
// drains whatever is queued in one batch and writes each frame straight
// from the message through the connection's cork (sendqueue.go): fixed
// fields and small payload arrays are copied into a corkBytes buffer,
// and each array of directMin bytes or more is written from its own
// memory right after the buffered bytes in front of it. Once a frame is
// laid onto the cork, every byte of it is copied or written, and the
// writer returns its owned float payload to the sender's pool. The cork
// is written out when it fills and once more when the queue runs dry.
// Back-to-back small frames therefore coalesce into single large
// socket writes — one syscall for a burst instead of one per frame —
// while a lone frame still departs immediately: the writer only ever
// holds data while more is already queued behind it. A full queue
// blocks the sender (bounded memory); a dead connection fails the queue
// and poisons the mailbox, so an asynchronous send error surfaces at
// the sender's next transport operation instead of being lost.
//
// One reader goroutine per connection decodes frames into the process's
// single mailbox, streaming each payload from the socket buffer
// straight into a buffer from the local rank's pools (payload.go) and
// publishing the message only once the frame's CRC has matched. Reader
// goroutines and the rank goroutine both touch the pools, under each
// pool's mutex, and the receiver-returns ownership protocol is the same
// as inproc, so steady-state receives allocate nothing. Heartbeat,
// abort and goodbye frames bypass the send queue and write directly
// under the per-peer write mutex: failure detection cadence must not
// sit behind corked data (the writer batches bound how long that direct
// write can wait — one batch, not one queue).
//
// # Control plane and failure
//
// Barrier and Gather ride the same connections as data, as ordinary
// frames under reserved negative tags no application code can use
// (stampSend rejects tag < 0). They enqueue behind data — FIFO with
// everything the rank sent before them, which is what makes Gather a
// lockstep point before Close. They carry no Words and never touch the
// netmodel clocks, so modeled time stays bit-identical to inproc: the
// barrier is centralized at rank 0, which collects every rank's arrival
// time, takes the max — the same order-independent value the inproc
// CAS-max barrier produces — and releases everyone with it.
//
// Failure detection is layered:
//
//   - every frame is CRC-checked (frame.go); a corrupt frame fails the
//     job with the sending rank attributed;
//   - a dead peer's EOF-without-goodbye poisons the mailbox with a
//     rank-attributed error;
//   - heartbeat frames (tagHeartbeat, clock-free) flow on every
//     connection every HeartbeatInterval; a peer silent for
//     HeartbeatMisses intervals is declared dead in O(heartbeat) even
//     when its socket stays open (a wedged process, a dropped link) —
//     detection no longer waits for a blocked read or the job deadline;
//   - the first locally detected failure is broadcast as an abort frame
//     to every peer, so survivors fail promptly with the origin's
//     reason instead of each rediscovering the fault at its own pace.
//
// Any of these poisons the mailbox: every blocked and future receive on
// this rank returns a rank-attributed error instead of hanging, and
// Cluster.Run surfaces it as an error return. Receives additionally run
// under the transport timeout, so even with heartbeats disabled a
// silent peer cannot stall a rank forever.

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netmodel"
)

// Reserved control-plane tags. TCP-transport internal; negative so they
// can never collide with application tags (stampSend rejects tag < 0).
const (
	tagBarrier        = -1 // peer → rank 0: barrier arrival, floats payload [t]
	tagBarrierRelease = -2 // rank 0 → peer: barrier release, floats payload [maxT]
	tagGather         = -3 // peer → rank 0: gather contribution, []byte payload
	tagGatherAck      = -4 // rank 0 → peer: gather complete
	tagBye            = -5 // peer → everyone: clean shutdown, no payload
	tagHeartbeat      = -6 // peer → everyone: liveness probe, no payload
	tagAbort          = -7 // peer → everyone: failure broadcast, []byte reason
)

// DefaultTCPTimeout bounds rendezvous I/O and every receive stall when
// TCPOptions.Timeout is zero.
const DefaultTCPTimeout = 60 * time.Second

// Heartbeat defaults: a peer is declared dead after
// DefaultHeartbeatMisses × DefaultHeartbeatInterval of silence — the
// job's failure-detection budget.
const (
	DefaultHeartbeatInterval = 1 * time.Second
	DefaultHeartbeatMisses   = 3
)

// Data-plane sizes. sendQueueFrames bounds each peer's queued-but-
// unwritten frames: a sender that outruns a slow connection by this
// many blocks in Deliver until the writer catches up. corkBytes is the
// writer's coalescing buffer — the largest single socket write a batch
// of small frames merges into before the cork writes itself out.
const (
	sendQueueFrames = 512
	corkBytes       = 256 << 10
)

// tcpKeepAlivePeriod is the probe interval on mesh connections — a
// belt-and-suspenders liveness floor well above the application-level
// heartbeat, for jobs that disable heartbeats.
const tcpKeepAlivePeriod = 30 * time.Second

// drainGrace bounds the Close-time queue drain and goodbye writes: a
// peer that stopped reading must not hang this rank's shutdown.
const drainGrace = 5 * time.Second

var errQueueClosed = errors.New("send queue closed")

// TCPOptions configures one rank of a multi-process TCP job.
type TCPOptions struct {
	// Rank and Size identify this process within the job.
	Rank, Size int
	// Rendezvous is rank 0's listen address; required for Rank > 0,
	// ignored for rank 0.
	Rendezvous string
	// Listen is this rank's listen address (default "127.0.0.1:0").
	// Rank 0's bound address is the job's rendezvous address.
	Listen string
	// OnListen, when set, is called with the bound listen address before
	// rendezvous blocks — the launcher uses it on rank 0 to learn the
	// rendezvous address to hand to the other ranks.
	OnListen func(addr string)
	// Timeout bounds every rendezvous step and each receive stall
	// (default DefaultTCPTimeout). A receive that exceeds it fails with
	// a deadline error instead of hanging the job.
	Timeout time.Duration
	// HeartbeatInterval is the liveness-probe period (0 = the
	// DefaultHeartbeatInterval; negative disables heartbeats, leaving
	// only EOF detection and the receive deadline). All ranks of a job
	// must agree on whether heartbeats are enabled.
	HeartbeatInterval time.Duration
	// HeartbeatMisses is how many silent intervals declare a peer dead
	// (0 = DefaultHeartbeatMisses).
	HeartbeatMisses int
	// Hook, when set, intercepts every outgoing data frame for
	// deterministic fault injection (internal/chaos builds these from a
	// seeded plan). Production jobs leave it nil.
	Hook FaultHook
	// OnKill is invoked when Hook demands FaultKill; worker processes
	// install os.Exit so a planned kill is indistinguishable from a
	// crashed process. When nil the transport Aborts and panics a
	// TransportError instead (in-process loopback jobs).
	OnKill func()
}

// NewTCP builds a cluster whose messages travel over the multi-process
// TCP transport. It blocks until the full mesh is established (every
// rank of the job must call it, each in its own process — or goroutine,
// in loopback tests). The caller must Close the cluster when done.
func NewTCP(opts TCPOptions, params netmodel.Params, wire Wire) (*Cluster, error) {
	tr, err := newTCPTransport(opts)
	if err != nil {
		return nil, err
	}
	return newCluster(params, wire, tr), nil
}

type tcpTransport struct {
	rank       int
	size       int
	timeout    time.Duration
	hbInterval time.Duration
	hbMisses   int
	hook       FaultHook
	onKill     func()

	box      *mailbox
	conns    []net.Conn                // indexed by peer rank; nil at self
	corks    []*cork                   // same indexing; guarded by wmu
	wmu      []sync.Mutex              // per-peer write locks (writer loop vs heartbeats)
	queues   []*sendQueue              // per-peer outbound frame queues
	heard    []atomic.Uint64           // frames read from each peer, any tag (liveness)
	pools    atomic.Pointer[rankPools] // local rank's payload pools (recv decode)
	readers  sync.WaitGroup
	writerWG sync.WaitGroup
	hb       sync.WaitGroup
	done     chan struct{} // closed by shutdown; releases heartbeats and wedged ranks
	closed   atomic.Bool
	aborted  atomic.Bool   // abort already broadcast (first failure wins)
	wedged   atomic.Bool   // FaultWedge: suppress outgoing heartbeats
	byes     []atomic.Bool // peer said goodbye: its EOF is a clean departure
	local    [1]int

	// writerGate, when non-nil, is received from by every writer loop
	// before each batch — a test-only valve that holds data behind the
	// cork while heartbeats keep flowing. Set before traffic starts.
	writerGate atomic.Pointer[chan struct{}]

	// Rank-goroutine-only state (Deliver is single-threaded per rank).
	sum         frameSum // enqueue's CRC pass
	frames      int      // outgoing data-frame count, for FaultHook triggers
	corruptNext bool     // FaultCorrupt latch for the frame being enqueued
}

// bindPools hands the transport its local rank's payload pools; the
// cluster calls it right after construction (newCluster), before any
// application traffic. Reader goroutines may decode rendezvous-adjacent
// frames before the pools arrive — they fall back to fresh allocations
// until the pointer is set (atomic, so no fence is needed).
func (tr *tcpTransport) bindPools(p *rankPools) { tr.pools.Store(p) }

func newTCPTransport(opts TCPOptions) (*tcpTransport, error) {
	if opts.Size <= 0 {
		return nil, fmt.Errorf("cluster: tcp size must be positive, got %d", opts.Size)
	}
	if opts.Rank < 0 || opts.Rank >= opts.Size {
		return nil, fmt.Errorf("cluster: tcp rank %d out of range [0,%d)", opts.Rank, opts.Size)
	}
	if opts.Rank > 0 && opts.Rendezvous == "" {
		return nil, fmt.Errorf("cluster: tcp rank %d needs a rendezvous address", opts.Rank)
	}
	if opts.Timeout <= 0 {
		opts.Timeout = DefaultTCPTimeout
	}
	if opts.HeartbeatInterval == 0 {
		opts.HeartbeatInterval = DefaultHeartbeatInterval
	}
	if opts.HeartbeatMisses <= 0 {
		opts.HeartbeatMisses = DefaultHeartbeatMisses
	}
	tr := &tcpTransport{
		rank:       opts.Rank,
		size:       opts.Size,
		timeout:    opts.Timeout,
		hbInterval: opts.HeartbeatInterval,
		hbMisses:   opts.HeartbeatMisses,
		hook:       opts.Hook,
		onKill:     opts.OnKill,
		box:        newMailbox(),
		conns:      make([]net.Conn, opts.Size),
		corks:      make([]*cork, opts.Size),
		wmu:        make([]sync.Mutex, opts.Size),
		queues:     make([]*sendQueue, opts.Size),
		heard:      make([]atomic.Uint64, opts.Size),
		byes:       make([]atomic.Bool, opts.Size),
		done:       make(chan struct{}),
	}
	tr.local[0] = opts.Rank
	if err := tr.rendezvous(opts); err != nil {
		for _, c := range tr.conns {
			if c != nil {
				c.Close()
			}
		}
		return nil, err
	}
	// Initialize every connection's cork and queue BEFORE starting any
	// goroutine: a read loop that fails early broadcasts an abort to all
	// peers, which must never observe a half-built tr.corks/tr.queues.
	for peer, conn := range tr.conns {
		if conn == nil {
			continue
		}
		// Rendezvous deadlines are done; steady-state stalls are bounded
		// by the mailbox deadline instead, so clear the socket ones.
		conn.SetDeadline(time.Time{})
		tuneConn(conn)
		tr.corks[peer] = newCork(conn)
		tr.queues[peer] = newSendQueue(sendQueueFrames)
	}
	for peer, conn := range tr.conns {
		if conn == nil {
			continue
		}
		tr.readers.Add(1)
		go tr.readLoop(peer, conn)
		tr.writerWG.Add(1)
		go tr.writerLoop(peer)
	}
	if tr.hbInterval > 0 && tr.size > 1 {
		tr.hb.Add(1)
		go tr.heartbeatLoop()
	}
	return tr, nil
}

// tuneConn sets the socket options every mesh connection wants:
// TCP_NODELAY (Go's default, made explicit — the transport corks in
// userspace, so Nagle would only add latency under it) and keepalive as
// a kernel-level liveness floor.
func tuneConn(conn net.Conn) {
	tc, ok := conn.(*net.TCPConn)
	if !ok {
		return
	}
	tc.SetNoDelay(true)
	tc.SetKeepAlive(true)
	tc.SetKeepAlivePeriod(tcpKeepAlivePeriod)
}

// dialRetry dials addr, retrying transient failures under exponential
// backoff (50 ms doubling to 2 s) with deterministic per-rank jitter,
// until the rendezvous deadline. Retrying is what lets a whole job's
// processes start in any order without a thundering-herd reconnect.
func (tr *tcpTransport) dialRetry(addr string, deadline time.Time, rng *rand.Rand) (net.Conn, error) {
	backoff := 50 * time.Millisecond
	for {
		conn, err := net.DialTimeout("tcp", addr, time.Until(deadline))
		if err == nil {
			return conn, nil
		}
		sleep := backoff + time.Duration(rng.Int63n(int64(backoff)))
		if time.Until(deadline) < sleep {
			return nil, err
		}
		time.Sleep(sleep)
		if backoff < 2*time.Second {
			backoff *= 2
		}
	}
}

// rendezvous establishes tr.conns per the protocol in the file comment.
func (tr *tcpTransport) rendezvous(opts TCPOptions) error {
	listen := opts.Listen
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return fmt.Errorf("cluster: tcp rendezvous: rank %d listen on %q: %w", tr.rank, listen, err)
	}
	defer ln.Close()
	if opts.OnListen != nil {
		opts.OnListen(ln.Addr().String())
	}
	deadline := time.Now().Add(opts.Timeout)
	if dl, ok := ln.(*net.TCPListener); ok {
		dl.SetDeadline(deadline)
	}
	// Jitter stream for dial retries: deterministic per rank, so a chaos
	// run's reconnect schedule is reproducible.
	rng := rand.New(rand.NewSource(int64(tr.rank) + 1))

	if tr.rank == 0 {
		// Collect one hello per joining rank; the hello connection IS the
		// mesh connection between rank 0 and that rank.
		addrs := make([]string, tr.size)
		addrs[0] = ln.Addr().String()
		for joined := 1; joined < tr.size; joined++ {
			conn, err := ln.Accept()
			if err != nil {
				return fmt.Errorf("cluster: tcp rendezvous: rank 0 accepted %d of %d ranks, then: %w",
					joined-1, tr.size-1, err)
			}
			conn.SetDeadline(deadline)
			peer, addr, err := (&frameReader{r: conn}).readHello()
			if err != nil {
				conn.Close()
				return fmt.Errorf("cluster: tcp rendezvous: rank 0 bad hello: %w", err)
			}
			if peer <= 0 || peer >= tr.size || tr.conns[peer] != nil {
				conn.Close()
				return fmt.Errorf("cluster: tcp rendezvous: rank 0 got duplicate or invalid hello from rank %d", peer)
			}
			tr.conns[peer] = conn
			addrs[peer] = addr
		}
		table := appendTableFrame(nil, addrs)
		for peer := 1; peer < tr.size; peer++ {
			if _, err := tr.conns[peer].Write(table); err != nil {
				return fmt.Errorf("cluster: tcp rendezvous: rank 0 sending table to rank %d: %w", peer, err)
			}
		}
		return nil
	}

	// Joining rank: dial rank 0 (with retry — rank 0 may still be
	// binding), announce self + own listen address, and wait for the
	// table.
	conn0, err := tr.dialRetry(opts.Rendezvous, deadline, rng)
	if err != nil {
		return fmt.Errorf("cluster: tcp rendezvous: rank %d dialing rendezvous %q: %w", tr.rank, opts.Rendezvous, err)
	}
	conn0.SetDeadline(deadline)
	tr.conns[0] = conn0
	if _, err := conn0.Write(appendHelloFrame(nil, tr.rank, ln.Addr().String())); err != nil {
		return fmt.Errorf("cluster: tcp rendezvous: rank %d sending hello: %w", tr.rank, err)
	}
	addrs, err := (&frameReader{r: conn0}).readTable()
	if err != nil {
		return fmt.Errorf("cluster: tcp rendezvous: rank %d waiting for address table: %w", tr.rank, err)
	}
	if len(addrs) != tr.size {
		return fmt.Errorf("cluster: tcp rendezvous: rank %d bad address table (%d entries, want %d)", tr.rank, len(addrs), tr.size)
	}

	// Complete the mesh: dial every lower joining rank, accept every
	// higher one. Lower ranks' listeners predate their hellos, so the
	// dials cannot race the listen; the retry only smooths transient
	// refusals under load.
	for peer := 1; peer < tr.rank; peer++ {
		conn, err := tr.dialRetry(addrs[peer], deadline, rng)
		if err != nil {
			return fmt.Errorf("cluster: tcp rendezvous: rank %d dialing rank %d at %q: %w", tr.rank, peer, addrs[peer], err)
		}
		conn.SetDeadline(deadline)
		if _, err := conn.Write(appendHelloFrame(nil, tr.rank, "")); err != nil {
			conn.Close()
			return fmt.Errorf("cluster: tcp rendezvous: rank %d hello to rank %d: %w", tr.rank, peer, err)
		}
		tr.conns[peer] = conn
	}
	for need := tr.size - 1 - tr.rank; need > 0; need-- {
		conn, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("cluster: tcp rendezvous: rank %d waiting for %d higher-rank dials: %w", tr.rank, need, err)
		}
		conn.SetDeadline(deadline)
		peer, _, err := (&frameReader{r: conn}).readHello()
		if err != nil {
			conn.Close()
			return fmt.Errorf("cluster: tcp rendezvous: rank %d bad mesh hello: %w", tr.rank, err)
		}
		if peer <= tr.rank || peer >= tr.size || tr.conns[peer] != nil {
			conn.Close()
			return fmt.Errorf("cluster: tcp rendezvous: rank %d duplicate or invalid mesh hello from rank %d", tr.rank, peer)
		}
		tr.conns[peer] = conn
	}
	return nil
}

// fail poisons the local mailbox and — once per transport — broadcasts
// the failure to every peer, so survivors are poisoned by the origin's
// reason promptly instead of rediscovering the fault at their own read
// stalls or heartbeat deadlines.
func (tr *tcpTransport) fail(err error) {
	tr.box.fail(err)
	if tr.aborted.CompareAndSwap(false, true) && !tr.closed.Load() {
		go tr.broadcastAbort(err)
	}
}

// broadcastAbort best-effort writes an abort frame to every peer,
// bypassing the send queues: an abort must not wait behind corked data.
// Write deadlines bound the attempt: an already-wedged peer must not
// hang the teardown of this rank.
func (tr *tcpTransport) broadcastAbort(err error) {
	frame := appendDataFrame(nil, &Message{
		Src: tr.rank, Tag: tagAbort,
		kind: payloadAny, Data: []byte(err.Error()),
	})
	wd := time.Now().Add(2 * time.Second)
	for peer, conn := range tr.conns {
		if conn == nil || tr.byes[peer].Load() {
			continue
		}
		conn.SetWriteDeadline(wd)
		tr.write(peer, frame)
	}
}

// readLoop decodes one connection's frames into the mailbox until the
// connection dies or the transport closes. Its frameReader (this
// goroutine is the only toucher — zero synchronization) reads each
// payload from the socket buffer straight into a buffer from the local
// rank's pools, so a steady-state receive allocates nothing and copies
// each byte once; a message reaches the mailbox only after its CRC has
// matched.
func (tr *tcpTransport) readLoop(peer int, conn net.Conn) {
	defer tr.readers.Done()
	fr := &frameReader{r: bufio.NewReaderSize(conn, 1<<16)}
	for {
		pools := tr.pools.Load()
		fr.pools = pools
		msg, err := fr.readData()
		if err != nil {
			switch {
			case tr.closed.Load():
			case errors.Is(err, ErrFrameCorrupt):
				// Integrity failure with the sender known: attribute it.
				tr.fail(fmt.Errorf("corrupt frame from rank %d: %w", peer, err))
			case errors.Is(err, errMalformedFrame):
				tr.fail(fmt.Errorf("undecodable frame from rank %d: %w", peer, err))
			case !tr.byes[peer].Load():
				// EOF after the peer said goodbye (or after we closed) is
				// a clean departure: ranks finish the job at different
				// times, and a finished peer closing its end must not fail
				// stragglers. EOF without a goodbye is a dead peer —
				// poison, so every blocked receive surfaces a
				// rank-attributed error.
				tr.fail(fmt.Errorf("connection to rank %d lost: %w", peer, err))
			}
			return
		}
		tr.heard[peer].Add(1)
		switch msg.Tag {
		case tagBye:
			tr.byes[peer].Store(true)
			tr.releaseMsg(pools, msg)
			continue
		case tagHeartbeat:
			// Liveness only; heard is already bumped.
			tr.releaseMsg(pools, msg)
			continue
		case tagAbort:
			// The origin broadcast to the whole mesh; poison locally
			// without re-broadcasting (no echo storms on a full mesh).
			reason, _ := msg.Data.([]byte)
			tr.box.fail(fmt.Errorf("job aborted by rank %d: %s", peer, reason))
			continue
		}
		tr.box.put(msg)
	}
}

// releaseMsg returns a decoded control message's shell to the pools it
// was drawn from (payload-free control frames only).
func (tr *tcpTransport) releaseMsg(pools *rankPools, msg *Message) {
	if pools != nil {
		pools.putMsg(msg)
	}
}

// heartbeatLoop is the per-process prober: every interval it sends a
// heartbeat frame to every live peer and declares dead any peer silent
// for hbMisses intervals — including peers whose socket is still open
// (wedged process, dropped link), which EOF detection can never catch.
// It runs in its own goroutine, so a rank deep in compute still
// heartbeats; only process death or a deliberate wedge silences it.
// Heartbeats bypass the send queues (direct write under wmu): cadence
// must hold even when a queue is full of corked data.
//
// The readers only count frames (heard), so the receive path never
// reads the clock; a tick that sees a peer's count changed stamps the
// peer as heard at that tick. A frame is thus dated up to one interval
// late, so a silent peer is declared dead up to one interval later than
// if every frame were dated on arrival.
func (tr *tcpTransport) heartbeatLoop() {
	defer tr.hb.Done()
	tick := time.NewTicker(tr.hbInterval)
	defer tick.Stop()
	budget := time.Duration(tr.hbMisses) * tr.hbInterval
	counts := make([]uint64, tr.size)
	lastSeen := make([]time.Time, tr.size)
	start := time.Now()
	for peer := range lastSeen {
		lastSeen[peer] = start
	}
	for {
		select {
		case <-tr.done:
			return
		case <-tick.C:
		}
		if !tr.wedged.Load() {
			frame := appendDataFrame(nil, &Message{Src: tr.rank, Tag: tagHeartbeat})
			for peer, conn := range tr.conns {
				if conn == nil || tr.byes[peer].Load() {
					continue
				}
				// Best effort: a failed write means the reader side is
				// about to attribute the real failure.
				tr.write(peer, frame)
			}
		}
		now := time.Now()
		for peer, conn := range tr.conns {
			if conn == nil || tr.byes[peer].Load() {
				continue
			}
			if c := tr.heard[peer].Load(); c != counts[peer] {
				counts[peer], lastSeen[peer] = c, now
			}
			silence := now.Sub(lastSeen[peer])
			if silence > budget {
				tr.fail(fmt.Errorf("rank %d missed %d heartbeats (silent %v, budget %v)",
					peer, tr.hbMisses, silence.Round(time.Millisecond), budget))
				// Sever the dead connection: unblocks any writer stuck on
				// it and lets its reader goroutine drain.
				conn.Close()
			}
		}
	}
}

func (tr *tcpTransport) Kind() TransportKind { return TransportTCP }
func (tr *tcpTransport) Size() int           { return tr.size }
func (tr *tcpTransport) Local() []int        { return tr.local[:] }

// write pushes one encoded frame through dst's cork and writes the
// cork out, under the write mutex. This is the queue-jumping control
// path — heartbeat, abort, goodbye; all data takes enqueue.
func (tr *tcpTransport) write(dst int, frame []byte) error {
	c := tr.corks[dst]
	if c == nil {
		return fmt.Errorf("no connection to rank %d", dst)
	}
	tr.wmu[dst].Lock()
	defer tr.wmu[dst].Unlock()
	return c.write(frame)
}

// writerLoop drains dst's send queue: each pop takes everything queued,
// the batch is laid back-to-back onto the cork (which writes itself out
// at corkBytes), and the cork is written out once more only when the
// queue has run dry. The write mutex is held per batch, so a
// control-path write waits at most one batch. A write error fails the
// queue (waking any blocked Deliver) and poisons the mailbox with the
// destination attributed.
func (tr *tcpTransport) writerLoop(dst int) {
	defer tr.writerWG.Done()
	q := tr.queues[dst]
	c := tr.corks[dst]
	var batch []outFrame
	for {
		var ok bool
		batch, ok = q.pop(batch)
		if !ok {
			return
		}
		if gate := tr.writerGate.Load(); gate != nil {
			<-*gate
		}
		tr.wmu[dst].Lock()
		var err error
		for i := range batch {
			if err == nil {
				err = c.frame(&batch[i])
			}
			batch[i] = outFrame{}
		}
		if err == nil && q.empty() {
			err = c.flush()
		}
		tr.wmu[dst].Unlock()
		if err != nil {
			q.fail(err)
			tr.fail(fmt.Errorf("send to rank %d failed: %w", dst, err))
			return
		}
	}
}

// enqueue takes msg's frame CRC and pushes the frame onto dst's send
// queue, blocking while the queue is full. The message belongs to the
// queue once push succeeds, and its payload must stay as it is until
// the writer has written it (sendqueue.go). A message too large for any
// receiver to accept is refused here, before anything is queued or
// written. A refused frame is released to owner, the sender's pools.
func (tr *tcpTransport) enqueue(dst int, msg *Message, owner *rankPools) error {
	f := outFrame{msg: msg, owner: owner}
	q := tr.queues[dst]
	err := tr.sum.seal(&f)
	switch {
	case q == nil:
		err = fmt.Errorf("no connection to rank %d", dst)
	case err != nil:
		err = fmt.Errorf("message to rank %d, tag %d: %w", dst, msg.Tag, err)
	default:
		if tr.corruptNext {
			tr.corruptNext = false
			// Flip a bit of the CRC trailer: the frame goes out with a
			// checksum its bytes do not match, exactly what on-wire
			// corruption produces, and the receiver must reject it with
			// attribution. The payload is the sender's live buffer and is
			// never written to.
			f.crc ^= 0x80
		}
		err = q.push(f)
	}
	if err != nil {
		f.release() // refused: the message is the sender's again
	}
	return err
}

// inject applies the fault hook's verdict for the data frame about to
// be enqueued. Called from the rank goroutine only.
func (tr *tcpTransport) inject(src *Comm, dst int) {
	tr.frames++
	d := tr.hook.OnFrame(tr.rank, dst, tr.frames)
	switch d.Action {
	case FaultNone:
	case FaultStall:
		time.Sleep(d.Wall)
	case FaultCorrupt:
		tr.corruptNext = true
	case FaultDrop:
		peer := d.Peer
		if peer < 0 || peer >= tr.size || peer == tr.rank {
			peer = dst
		}
		if c := tr.conns[peer]; c != nil {
			c.Close()
		}
	case FaultWedge:
		// Go silent without dying: heartbeats stop, the rank goroutine
		// parks until the transport is torn down, then surfaces the
		// wedge as a transport error. Peers must have detected it long
		// before, in O(heartbeat).
		tr.wedged.Store(true)
		<-tr.done
		werr := fmt.Errorf("rank %d wedged by fault plan", tr.rank)
		tr.box.fail(werr)
		panic(&TransportError{Rank: src.rank, Err: werr})
	case FaultKill:
		if tr.onKill != nil {
			tr.onKill() // worker process: os.Exit — peers see a bare EOF
		}
		// In-process rank: tear down without the goodbye handshake (the
		// same bare EOF a killed process produces), then surface the
		// kill locally.
		tr.Abort()
		panic(&TransportError{Rank: src.rank, Err: fmt.Errorf("rank %d killed by fault plan", tr.rank)})
	}
}

// Deliver enqueues one data frame; the writer returns the message and
// its owned float payload to the sender's pools once the frame is
// written. The send is asynchronous: a connection failure observed by
// the writer loop surfaces here only if the queue already failed —
// otherwise it poisons the mailbox and the sender trips over it at its
// next receive, barrier, or gather. A message refused by enqueue fails
// here, attributed to the sending rank.
func (tr *tcpTransport) Deliver(src *Comm, dst int, msg *Message) {
	if tr.hook != nil {
		tr.inject(src, dst)
	}
	if err := tr.enqueue(dst, msg, src.pools()); err != nil {
		werr := fmt.Errorf("send to rank %d failed: %w", dst, err)
		tr.fail(werr)
		panic(&TransportError{Rank: src.rank, Err: werr})
	}
}

func (tr *tcpTransport) Take(rank, src, tag int) (*Message, error) {
	return tr.box.take(src, tag, tr.timeout)
}

func (tr *tcpTransport) TakeEach(rank int, keys []RecvKey, fn func(i int, msg *Message)) error {
	return tr.box.takeEach(keys, fn, tr.timeout)
}

// sendControl enqueues a clock-free control message (reserved tag) to
// dst, behind any data frames already queued — barrier and gather
// ordering with respect to data is what makes Gather a pre-Close
// lockstep. Exactly one of fl / blob may be set; both nil is a bare
// signal.
func (tr *tcpTransport) sendControl(dst, tag int, fl []float64, blob []byte) error {
	msg := &Message{Src: tr.rank, Tag: tag}
	switch {
	case fl != nil:
		msg.kind, msg.floats = payloadFloats, fl
	case blob != nil:
		msg.kind, msg.Data = payloadAny, blob
	}
	if err := tr.enqueue(dst, msg, nil); err != nil {
		return fmt.Errorf("control send (tag %d) to rank %d failed: %w", tag, dst, err)
	}
	return nil
}

// takeControl receives one control message and returns its float
// payload (NaN-boxed as 0 when absent), recycling the message shell and
// its pooled floats buffer.
func (tr *tcpTransport) takeControl(src, tag int) (float64, error) {
	msg, err := tr.box.take(src, tag, tr.timeout)
	if err != nil {
		return 0, err
	}
	var v float64
	if len(msg.floats) > 0 {
		v = msg.floats[0]
	}
	if pools := tr.pools.Load(); pools != nil {
		pools.putFloats(msg.floats)
		msg.floats = nil
		pools.putMsg(msg)
	}
	return v, nil
}

// BarrierWait centralizes the barrier at rank 0: arrivals report their
// simulated time, the root answers everyone with the maximum. Max is
// order-independent, so the released value — and with it every rank's
// post-barrier clock — is bit-identical to the inproc CAS-max barrier.
func (tr *tcpTransport) BarrierWait(rank int, t float64) (float64, error) {
	if tr.size == 1 {
		return t, nil
	}
	if rank == 0 {
		maxT := t
		for src := 1; src < tr.size; src++ {
			v, err := tr.takeControl(src, tagBarrier)
			if err != nil {
				return 0, fmt.Errorf("barrier: %w", err)
			}
			if v > maxT {
				maxT = v
			}
		}
		for dst := 1; dst < tr.size; dst++ {
			if err := tr.sendControl(dst, tagBarrierRelease, []float64{maxT}, nil); err != nil {
				return 0, fmt.Errorf("barrier: %w", err)
			}
		}
		return maxT, nil
	}
	if err := tr.sendControl(0, tagBarrier, []float64{t}, nil); err != nil {
		return 0, fmt.Errorf("barrier: %w", err)
	}
	v, err := tr.takeControl(0, tagBarrierRelease)
	if err != nil {
		return 0, fmt.Errorf("barrier: %w", err)
	}
	return v, nil
}

// Gather funnels every rank's blob to rank 0 and acks the others, which
// doubles as a lockstep point: when Gather returns, all of this rank's
// prior traffic has been consumed as far as the protocol requires, so
// a post-run Close cannot cut off in-flight data.
func (tr *tcpTransport) Gather(rank int, blob []byte) ([][]byte, error) {
	if rank == 0 {
		out := make([][]byte, tr.size)
		out[0] = append([]byte(nil), blob...)
		for src := 1; src < tr.size; src++ {
			msg, err := tr.box.take(src, tagGather, tr.timeout)
			if err != nil {
				return nil, fmt.Errorf("gather: %w", err)
			}
			b, _ := msg.Data.([]byte)
			out[src] = b
			if pools := tr.pools.Load(); pools != nil {
				pools.putMsg(msg)
			}
		}
		for dst := 1; dst < tr.size; dst++ {
			if err := tr.sendControl(dst, tagGatherAck, nil, nil); err != nil {
				return nil, fmt.Errorf("gather: %w", err)
			}
		}
		return out, nil
	}
	if blob == nil {
		blob = []byte{}
	}
	if err := tr.sendControl(0, tagGather, nil, blob); err != nil {
		return nil, fmt.Errorf("gather: %w", err)
	}
	if _, err := tr.takeControl(0, tagGatherAck); err != nil {
		return nil, fmt.Errorf("gather: %w", err)
	}
	return nil, nil
}

// Close tears the mesh down cleanly: drains every send queue (so no
// enqueued data is cut off), says goodbye on every connection (so peers
// still draining their side treat the EOF as a departure, not a death),
// then closes the connections and waits for the reader and heartbeat
// goroutines, so a closed transport leaks nothing.
func (tr *tcpTransport) Close() error { return tr.shutdown(true) }

// Abort tears the mesh down without draining or the goodbye handshake.
// Peers see a bare EOF — exactly what a killed process produces — so
// tests use it to simulate worker death in-process.
func (tr *tcpTransport) Abort() { tr.shutdown(false) }

func (tr *tcpTransport) shutdown(sayGoodbye bool) error {
	if !tr.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(tr.done)
	tr.hb.Wait()
	if sayGoodbye {
		// Drain under a grace deadline: healthy queues flush in one
		// batch; a peer that stopped reading must not hang Close.
		wd := time.Now().Add(drainGrace)
		for _, c := range tr.conns {
			if c != nil {
				c.SetWriteDeadline(wd)
			}
		}
		for _, q := range tr.queues {
			if q != nil {
				q.close()
			}
		}
		tr.writerWG.Wait()
		bye := appendDataFrame(nil, &Message{Src: tr.rank, Tag: tagBye})
		for peer, conn := range tr.conns {
			if conn != nil {
				// Best effort: an already-dead peer can't hear the goodbye,
				// and a wedged one must not hang our shutdown.
				tr.write(peer, bye)
			}
		}
	} else {
		// Abort: discard queued frames; writers exit without draining.
		for _, q := range tr.queues {
			if q != nil {
				q.fail(errQueueClosed)
			}
		}
	}
	for _, c := range tr.conns {
		if c != nil {
			c.Close()
		}
	}
	tr.readers.Wait()
	tr.writerWG.Wait()
	return nil
}
