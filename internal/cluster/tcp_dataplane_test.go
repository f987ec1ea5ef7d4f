package cluster

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// TestTCPRecvAllocBudget: after warm-up, a full send+recv exchange over
// the TCP transport stays within a small constant allocation budget per
// step, in count and in bytes — the send path (exact-size pooled frame,
// payload back to the sender's pool) and the receive path (streamed
// straight into rank-pool buffers) must not allocate per frame, neither
// at 4096 values nor at the 4 MB frames of a 1M-element f32 reduction.
// The ranks are persistent goroutines driven over channels so the
// measurement sees only transport work, not harness setup. Both
// AllocsPerRun and TotalAlloc count process-wide, so the budgets cover
// both ranks' sends, writers, readers, and decodes.
func TestTCPRecvAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is not meaningful under -short race mixes")
	}
	for _, c := range []struct {
		name   string
		wire   Wire
		vals   int
		warmup int
	}{
		{"f64-4096", WireF64, 4096, 50}, // large enough that one unpooled payload per frame trips the budget
		{"f32-1M", WireF32, 1 << 20, 20},
	} {
		t.Run(c.name, func(t *testing.T) {
			const tag = 7
			clusters := startTCPJob(t, 2, params(), c.wire, 60*time.Second)
			// Seed each rank with the two buffers of each kind this
			// lockstep exchange can hold at once — a payload being sent
			// while the peer's is decoded, a frame being written while the
			// next is encoded — so an interleaving that first needs the
			// second one inside the measured window is not mistaken for
			// per-step allocation.
			width := 8
			if c.wire == WireF32 {
				width = 4
			}
			frameLen := 4 + 1 + msgHeader + 4 + width*c.vals + 4 // prefix, type, envelope, count, payload, crc
			for _, cl := range clusters {
				tr := cl.transport.(*tcpTransport)
				pools := tr.pools.Load()
				for i := 0; i < 2; i++ {
					tr.framePool.put(make([]byte, 0, frameLen))
					if c.wire == WireF32 {
						pools.putFloats32(make([]float32, c.vals))
					} else {
						pools.putFloats(make([]float64, c.vals))
					}
				}
			}
			trigger := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
			stepDone := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
			jobDone := make(chan error, 2)
			for r, cl := range clusters {
				go func(r int, cl *Cluster) {
					jobDone <- cl.Run(func(cm *Comm) error {
						peer := 1 - cm.Rank()
						for range trigger[cm.Rank()] {
							if c.wire == WireF32 {
								cm.SendFloat32s(peer, tag, cm.GetFloat32s(c.vals), WireF32.Words(c.vals))
								cm.PutFloat32s(cm.RecvFloat32(peer, tag))
							} else {
								cm.SendFloats(peer, tag, cm.GetFloats(c.vals), c.vals)
								cm.PutFloats(cm.RecvFloat64(peer, tag))
							}
							stepDone[cm.Rank()] <- struct{}{}
						}
						return nil
					})
				}(r, cl)
			}
			step := func() {
				trigger[0] <- struct{}{}
				trigger[1] <- struct{}{}
				<-stepDone[0]
				<-stepDone[1]
			}
			for i := 0; i < c.warmup; i++ {
				step() // warm the payload, frame, and message pools
			}
			allocs := testing.AllocsPerRun(20, step)
			const steps = 20
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < steps; i++ {
				step()
			}
			runtime.ReadMemStats(&after)
			bytesPerStep := float64(after.TotalAlloc-before.TotalAlloc) / steps
			close(trigger[0])
			close(trigger[1])
			for i := 0; i < 2; i++ {
				if err := <-jobDone; err != nil {
					t.Fatalf("rank job: %v", err)
				}
			}
			t.Logf("tcp steady state per exchange step (2 frames of %d values): %.1f allocs, %.0f bytes", c.vals, allocs, bytesPerStep)
			// One unpooled payload per frame would add ≥ 2 allocs and its
			// size in bytes per step.
			if allocs > 4 {
				t.Errorf("tcp exchange allocates %.1f times per step, budget 4", allocs)
			}
			if bytesPerStep >= 64<<10 {
				t.Errorf("tcp exchange allocates %.0f bytes per step, budget 64 KiB", bytesPerStep)
			}
		})
	}
}

// TestTCPDeliverRecyclesOwnedFloats: the frame carries its own copy, so
// the tcp Deliver returns a SendFloat32s buffer to the sender's own pool
// at once, while a SendChunk payload — which may fan out to other ranks
// — is never taken back.
func TestTCPDeliverRecyclesOwnedFloats(t *testing.T) {
	leakCheck(t)
	clusters := startTCPJob(t, 2, params(), WireF32, 20*time.Second)
	pooled := func(free [][]float32, s []float32) bool {
		for _, f := range free {
			if unsafe.SliceData(f) == unsafe.SliceData(s) {
				return true
			}
		}
		return false
	}
	errs := runTCPJob(clusters, func(cm *Comm) error {
		if cm.Rank() == 1 {
			cm.PutFloat32s(cm.RecvFloat32(0, 1))
			cm.RecvChunk(0, 2)
			return nil
		}
		buf := cm.GetFloat32s(64)
		cm.SendFloat32s(1, 1, buf, WireF32.Words(64))
		if _, free, _ := clusters[0].PooledBuffers(0); !pooled(free, buf) {
			return fmt.Errorf("SendFloat32s buffer is not back in the sender's pool")
		}
		data := cm.GetFloat32s(64)
		cm.SendChunk(1, 2, Chunk{Data32: data}, WireF32.Words(64))
		if _, free, _ := clusters[0].PooledBuffers(0); pooled(free, data) {
			return fmt.Errorf("SendChunk payload was returned to the sender's pool")
		}
		return nil
	})
	for r, err := range errs {
		if err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
	}
}

// TestTCPOversizeRefusedAtSender: a message whose frame body would
// exceed maxFrameBody fails on the rank that sent it, naming the
// destination, tag and size, and nothing is encoded or written: the
// receiver learns of it from the sender's abort, not as a corrupt frame
// of its own. The 129 chunks share one 1 MiB slice, which a fanned-out
// payload may legally do.
func TestTCPOversizeRefusedAtSender(t *testing.T) {
	leakCheck(t)
	clusters := startTCPJob(t, 2, params(), WireF64, 20*time.Second)
	shared := make([]float64, 1<<17)
	errs := runTCPJob(clusters, func(cm *Comm) error {
		if cm.Rank() == 0 {
			chs := make([]Chunk, 129)
			for i := range chs {
				chs[i] = Chunk{Origin: 0, Data: shared}
			}
			cm.SendChunks(1, 5, chs, 129*len(shared))
			return nil
		}
		cm.RecvChunks(0, 5)
		return nil
	})
	var te *TransportError
	if !errors.As(errs[0], &te) || te.Rank != 0 {
		t.Fatalf("sender: got %v, want a TransportError of rank 0", errs[0])
	}
	for _, want := range []string{"rank 1", "tag 5", "135268", "exceeds"} {
		if !strings.Contains(errs[0].Error(), want) {
			t.Errorf("sender's error does not name %q: %v", want, errs[0])
		}
	}
	if errs[1] == nil || !strings.Contains(errs[1].Error(), "aborted by rank 0") || strings.Contains(errs[1].Error(), "corrupt") {
		t.Errorf("receiver: got %v, want the sender's abort", errs[1])
	}
	tr := clusters[0].transport.(*tcpTransport)
	tr.framePool.mu.Lock()
	defer tr.framePool.mu.Unlock()
	if n := len(tr.framePool.free.free); n != 0 {
		t.Errorf("sender encoded %d data frames, want none", n)
	}
}

// TestTCPCorkedFIFO: bursts of data frames interleaved with barriers —
// the corked writer may batch frames however it likes, but per-peer
// FIFO order and barrier lockstep must hold. Run under -race in CI,
// this is the concurrency contract of the queue/writer split.
func TestTCPCorkedFIFO(t *testing.T) {
	leakCheck(t)
	const p = 3
	const rounds = 20
	const burst = 32
	clusters := startTCPJob(t, p, params(), WireF64, 60*time.Second)
	errs := runTCPJob(clusters, func(cm *Comm) error {
		next := (cm.Rank() + 1) % p
		prev := (cm.Rank() - 1 + p) % p
		for round := 0; round < rounds; round++ {
			for i := 0; i < burst; i++ {
				buf := cm.GetFloats(2)
				buf[0], buf[1] = float64(round), float64(i)
				cm.SendFloats(next, 7, buf, 2)
			}
			for i := 0; i < burst; i++ {
				got := cm.RecvFloat64(prev, 7)
				if int(got[0]) != round || int(got[1]) != i {
					return fmt.Errorf("rank %d round %d frame %d: got (%v, %v)",
						cm.Rank(), round, i, got[0], got[1])
				}
				cm.PutFloats(got)
			}
			// The barrier's control frames ride the same queues as the
			// data; lockstep after each burst proves they stay ordered.
			cm.Barrier()
		}
		return nil
	})
	for r, err := range errs {
		if err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
	}
}

// TestTCPHeartbeatBypassesFullSendQueue: liveness probes must not sit
// behind corked data. The test freezes rank 0's writer goroutines with
// the test-only writerGate — data frames pile up queued — while the
// heartbeat cadence (direct writes, queue-jumping) keeps rank 0 alive
// far past the miss budget. Releasing the gate delivers everything in
// order.
func TestTCPHeartbeatBypassesFullSendQueue(t *testing.T) {
	leakCheck(t)
	const hb = 20 * time.Millisecond
	const misses = 3
	const frames = 64
	clusters := startTCPJobOpts(t, 2, params(), WireF64, 60*time.Second,
		func(r int, o *TCPOptions) {
			o.HeartbeatInterval = hb
			o.HeartbeatMisses = misses
		})
	tr := clusters[0].transport.(*tcpTransport)
	gate := make(chan struct{})
	tr.writerGate.Store(&gate)
	errs := runTCPJob(clusters, func(cm *Comm) error {
		if cm.Rank() == 0 {
			for i := 0; i < frames; i++ {
				buf := cm.GetFloats(1)
				buf[0] = float64(i)
				cm.SendFloats(1, 7, buf, 1)
			}
			// Hold the gate for >4× the miss budget: if heartbeats were
			// corked behind the queued data, rank 1 would declare rank 0
			// dead here and the job would fail.
			time.Sleep(time.Duration(4*misses+2) * hb)
			close(gate)
			return nil
		}
		for i := 0; i < frames; i++ {
			got := cm.RecvFloat64(0, 7)
			if int(got[0]) != i {
				return fmt.Errorf("frame %d: got %v", i, got[0])
			}
			cm.PutFloats(got)
		}
		return nil
	})
	for r, err := range errs {
		if err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
	}
}
