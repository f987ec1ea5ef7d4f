package collectives

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"repro/internal/cluster"
	"repro/internal/netmodel"
	"repro/internal/tensor"
)

// refAllreduceFrom is the dense allreduce as it was before partial sums
// went straight into the next message: every reduce-scatter receive
// writes its whole block into x, and every send after the first narrows
// a range of x into a fresh pooled buffer. It is the oracle of
// TestAllreduceFromMatchesReference.
func refAllreduceFrom(cm cluster.Endpoint, src, x []float64) {
	switch {
	case cm.Size() == 1:
		copy(x, src)
	case isPow2(cm.Size()):
		refRabenseifner(cm, src, x)
	default:
		refRing(cm, src, x)
	}
}

func refRabenseifner(cm cluster.Endpoint, src, x []float64) {
	p, rank, n := cm.Size(), cm.Rank(), len(x)
	lo, hi := 0, n
	steps := bits.Len(uint(p)) - 1
	type span struct{ lo, hi int }
	var parents []span
	from := src
	for s := 0; s < steps; s++ {
		dist := p >> (s + 1)
		partner := rank ^ dist
		parents = append(parents, span{lo, hi})
		sendLo, sendHi, keepLo, keepHi := halves(lo, hi, rank, dist)
		sendWire(cm, partner, tagAllreduce+s, from[sendLo:sendHi])
		if s < steps-1 {
			recvAddFrom(cm, partner, tagAllreduce+s, from[keepLo:keepHi], x[keepLo:keepHi])
		} else {
			refRecvAddSend(cm, partner, tagAllreduce+s, from[keepLo:keepHi], x[keepLo:keepHi], partner, tagAllreduce+1024+s)
		}
		from = x
		lo, hi = keepLo, keepHi
	}
	for s := steps - 1; s >= 0; s-- {
		dist := p >> (s + 1)
		partner := rank ^ dist
		parent := parents[s]
		var partnerLo, partnerHi int
		if lo == parent.lo {
			partnerLo, partnerHi = hi, parent.hi
		} else {
			partnerLo, partnerHi = parent.lo, lo
		}
		if s < steps-1 {
			sendWire(cm, partner, tagAllreduce+1024+s, x[lo:hi])
		}
		recvCopy(cm, partner, tagAllreduce+1024+s, x[partnerLo:partnerHi])
		lo, hi = parent.lo, parent.hi
	}
}

func refRing(cm cluster.Endpoint, src, x []float64) {
	p, rank, n := cm.Size(), cm.Rank(), len(x)
	next := (rank + 1) % p
	prev := (rank - 1 + p) % p
	from := src
	for s := 0; s < p-1; s++ {
		sb := ((rank-s)%p + p) % p
		rb := ((rank-s-1)%p + p) % p
		slo, shi := blockRange(n, p, sb)
		sendWire(cm, next, tagAllreduce+2048+s, from[slo:shi])
		from = x
		rlo, rhi := blockRange(n, p, rb)
		if s < p-2 {
			recvAddFrom(cm, prev, tagAllreduce+2048+s, src[rlo:rhi], x[rlo:rhi])
		} else {
			refRecvAddSend(cm, prev, tagAllreduce+2048+s, src[rlo:rhi], x[rlo:rhi], next, tagAllreduce+4096)
		}
	}
	for s := 0; s < p-1; s++ {
		if s > 0 {
			slo, shi := blockRange(n, p, ((rank-s+1)%p+p)%p)
			sendWire(cm, next, tagAllreduce+4096+s, x[slo:shi])
		}
		rlo, rhi := blockRange(n, p, ((rank-s)%p+p)%p)
		recvCopy(cm, prev, tagAllreduce+4096+s, x[rlo:rhi])
	}
}

// refRecvAddSend completes the owned block into dst and sends it: on
// the f64 wire as a copy of dst, on the f32 wire as the received buffer
// overwritten with the rounded sums.
func refRecvAddSend(cm cluster.Endpoint, src, tag int, from, dst []float64, to, sendTag int) {
	if cm.Wire() != cluster.WireF32 {
		recvAddFrom(cm, src, tag, from, dst)
		sendWire(cm, to, sendTag, dst)
		return
	}
	recv := cm.RecvFloat32(src, tag)
	checkWireLen(len(recv), len(dst))
	cm.Clock().Compute(float64(len(dst)))
	addRound(dst, from, recv)
	cm.SendFloat32s(to, sendTag, recv, cluster.WireF32.Words(len(dst)))
}

// diffInput is rank r's length-n input: values of both signs and many
// magnitudes, with edgeValues (NaN, ±Inf, ±0, denormals, values beyond
// float32's range) at positions that differ from rank to rank.
func diffInput(r, n int) []float64 {
	rng := tensor.RNG(int64(31*r + n))
	x := make([]float64, n)
	for i := range x {
		if (i+3*r)%5 == 0 {
			x[i] = edgeValues[(i/5+r)%len(edgeValues)]
			continue
		}
		x[i] = rng.NormFloat64() * math.Ldexp(1, rng.Intn(40)-20)
	}
	return x
}

// allreduceRun is one allreduce call on every rank: each rank's result
// and the snapshot of its modeled clock.
type allreduceRun struct {
	x     [][]float64
	stats []netmodel.Stats
}

// runAllreduce runs fn(cm, src, x) on every rank of a fresh inproc
// cluster, with x either src itself or a NaN-poisoned separate buffer.
func runAllreduce(t *testing.T, p, n int, wire cluster.Wire, aliased bool, fn func(cm cluster.Endpoint, src, x []float64)) allreduceRun {
	t.Helper()
	out := allreduceRun{x: make([][]float64, p), stats: make([]netmodel.Stats, p)}
	c := cluster.NewWire(p, testParams(), wire)
	if err := c.Run(func(cm *cluster.Comm) error {
		src := diffInput(cm.Rank(), n)
		x := src
		if !aliased {
			x = make([]float64, n)
			for i := range x {
				x[i] = math.NaN()
			}
		}
		fn(cm, src, x)
		if !aliased && bitsDigest(src) != bitsDigest(diffInput(cm.Rank(), n)) {
			return fmt.Errorf("rank %d: src was written", cm.Rank())
		}
		out.x[cm.Rank()] = x
		out.stats[cm.Rank()] = cm.Clock().Snapshot()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// sameBits reports the first index where got and want differ in their
// bit patterns, or -1.
func sameBits(got, want []float64) int {
	if len(got) != len(want) {
		return 0
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// TestAllreduceFromMatchesReference: AllreduceFrom and AllreduceRing
// give every rank the same bits as the schedules they replaced, and
// make the same modeled sends, receives and computes (equal clock
// snapshots) — at P = 1…9 on both wires, n below, at and above P, with
// src aliasing x and not, on inputs holding NaN, ±Inf, ±0, denormals
// and values beyond float32's range. A tcp-in-process leg at P = 3 and
// 4 sends forwarded received buffers through the connection writers.
func TestAllreduceFromMatchesReference(t *testing.T) {
	for _, wire := range []cluster.Wire{cluster.WireF64, cluster.WireF32} {
		for p := 1; p <= 9; p++ {
			for _, n := range []int{0, 1, p - 1, p, p + 1, 1000, 65537} {
				for _, aliased := range []bool{false, true} {
					name := fmt.Sprintf("%v/P=%d/n=%d/aliased=%v", wire, p, n, aliased)
					got := runAllreduce(t, p, n, wire, aliased, AllreduceFrom)
					want := runAllreduce(t, p, n, wire, aliased, refAllreduceFrom)
					checkSameRun(t, name, got, want)
					if p > 1 && aliased {
						ring := runAllreduce(t, p, n, wire, true, func(cm cluster.Endpoint, _, x []float64) { AllreduceRing(cm, x) })
						refRingRun := runAllreduce(t, p, n, wire, true, func(cm cluster.Endpoint, _, x []float64) { refRing(cm, x, x) })
						checkSameRun(t, name+"/ring", ring, refRingRun)
					}
				}
			}
		}
	}
	t.Run("tcp", func(t *testing.T) {
		for _, wire := range []cluster.Wire{cluster.WireF64, cluster.WireF32} {
			for _, p := range []int{3, 4} {
				sizes := []int{p - 1, 1000, 65537}
				got := make([][][]float64, len(sizes))
				for i := range got {
					got[i] = make([][]float64, p)
				}
				if err := runTCP(t, p, wire, func(cm *cluster.Comm) error {
					for i, n := range sizes {
						src := diffInput(cm.Rank(), n)
						x := make([]float64, n)
						AllreduceFrom(cm, src, x)
						got[i][cm.Rank()] = x
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				for i, n := range sizes {
					want := runAllreduce(t, p, n, wire, false, refAllreduceFrom)
					for r := range want.x {
						if at := sameBits(got[i][r], want.x[r]); at >= 0 {
							t.Fatalf("tcp %v/P=%d/n=%d: rank %d differs from the reference at [%d]", wire, p, n, r, at)
						}
					}
				}
			}
		}
	})
}

func checkSameRun(t *testing.T, name string, got, want allreduceRun) {
	t.Helper()
	for r := range want.x {
		if at := sameBits(got.x[r], want.x[r]); at >= 0 {
			t.Fatalf("%s: rank %d differs from the reference at [%d]: %v, want %v", name, r, at, got.x[r][at], want.x[r][at])
		}
		if got.stats[r] != want.stats[r] {
			t.Fatalf("%s: rank %d modeled clock %+v, reference %+v", name, r, got.stats[r], want.stats[r])
		}
	}
}
