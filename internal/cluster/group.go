package cluster

import (
	"fmt"
	"math/bits"

	"repro/internal/netmodel"
)

// Group is a sub-communicator over a subset of world ranks, analogous to
// an MPI communicator created from a group: ranks are renumbered
// 0..len(ranks)-1, tags are shifted into a caller-chosen namespace so
// concurrent groups never collide, and the barrier is a dissemination
// barrier built from the group's own point-to-point messages (so its
// cost is modeled faithfully rather than synchronized out-of-band).
//
// Groups are how the hybrid data+pipeline extension runs a gradient
// allreduce across the replicas of one pipeline stage while other stages
// communicate concurrently.
type Group struct {
	world    *Comm
	ranks    []int // group rank → world rank
	myRank   int   // rank within the group
	tagShift int
	barSeq   int
	keybuf   []RecvKey // scratch for RecvChunkEach key translation
}

var _ Endpoint = (*Group)(nil)

// NewGroup builds the sub-communicator containing the given world ranks
// (which must include the caller's). tagSpace selects a disjoint tag
// namespace; groups that may communicate concurrently must use different
// spaces (e.g. the stage index).
func NewGroup(world *Comm, ranks []int, tagSpace int) *Group {
	g := &Group{world: world, ranks: append([]int(nil), ranks...), myRank: -1,
		tagShift: (tagSpace + 1) << 24}
	for i, r := range ranks {
		if r == world.Rank() {
			g.myRank = i
		}
		if r < 0 || r >= world.Size() {
			panic(fmt.Sprintf("cluster: group rank %d out of world range", r))
		}
	}
	if g.myRank < 0 {
		panic("cluster: caller is not a member of the group")
	}
	return g
}

// Rank returns the caller's rank within the group.
func (g *Group) Rank() int { return g.myRank }

// Size returns the group size.
func (g *Group) Size() int { return len(g.ranks) }

// Wire returns the underlying cluster's wire format.
func (g *Group) Wire() Wire { return g.world.Wire() }

// Clock exposes the underlying rank's clock.
func (g *Group) Clock() *netmodel.Clock { return g.world.Clock() }

// Send transmits a generic payload to a group rank.
func (g *Group) Send(dst, tag int, data any, words int) {
	g.world.Send(g.ranks[dst], tag+g.tagShift, data, words)
}

// SendFloats transmits a []float64 payload to a group rank (ownership
// transfers; see payload.go).
func (g *Group) SendFloats(dst, tag int, x []float64, words int) {
	g.world.SendFloats(g.ranks[dst], tag+g.tagShift, x, words)
}

// SendFloat32s transmits an f32-wire value payload to a group rank
// (ownership transfers; see payload.go).
func (g *Group) SendFloat32s(dst, tag int, x []float32, words int) {
	g.world.SendFloat32s(g.ranks[dst], tag+g.tagShift, x, words)
}

// SendChunk transmits a single Chunk to a group rank.
func (g *Group) SendChunk(dst, tag int, ch Chunk, words int) {
	g.world.SendChunk(g.ranks[dst], tag+g.tagShift, ch, words)
}

// SendChunks transmits a chunk container to a group rank.
func (g *Group) SendChunks(dst, tag int, chs []Chunk, words int) {
	g.world.SendChunks(g.ranks[dst], tag+g.tagShift, chs, words)
}

// Recv receives from a group rank.
func (g *Group) Recv(src, tag int) any {
	return g.world.Recv(g.ranks[src], tag+g.tagShift)
}

// RecvFloat64 receives a []float64 payload from a group rank.
func (g *Group) RecvFloat64(src, tag int) []float64 {
	return g.world.RecvFloat64(g.ranks[src], tag+g.tagShift)
}

// RecvFloat32 receives an f32-wire value payload from a group rank.
func (g *Group) RecvFloat32(src, tag int) []float32 {
	return g.world.RecvFloat32(g.ranks[src], tag+g.tagShift)
}

// RecvChunk receives a single-chunk payload from a group rank.
func (g *Group) RecvChunk(src, tag int) Chunk {
	return g.world.RecvChunk(g.ranks[src], tag+g.tagShift)
}

// RecvChunks receives a multi-chunk container from a group rank.
func (g *Group) RecvChunks(src, tag int) []Chunk {
	return g.world.RecvChunks(g.ranks[src], tag+g.tagShift)
}

// RecvChunkEach receives one single-chunk message per (group rank, tag)
// key in key order, translating keys into the world namespace.
func (g *Group) RecvChunkEach(keys []RecvKey, fn func(i int, ch Chunk)) {
	if cap(g.keybuf) < len(keys) {
		g.keybuf = make([]RecvKey, len(keys))
	}
	wk := g.keybuf[:len(keys)]
	for i, k := range keys {
		wk[i] = RecvKey{Src: g.ranks[k.Src], Tag: k.Tag + g.tagShift}
	}
	g.world.RecvChunkEach(wk, fn)
}

// GetFloats draws from the underlying rank's pool.
func (g *Group) GetFloats(n int) []float64 { return g.world.GetFloats(n) }

// PutFloats releases to the underlying rank's pool.
func (g *Group) PutFloats(s []float64) { g.world.PutFloats(s) }

// GetFloat32s draws from the underlying rank's pool.
func (g *Group) GetFloat32s(n int) []float32 { return g.world.GetFloat32s(n) }

// PutFloat32s releases to the underlying rank's pool.
func (g *Group) PutFloat32s(s []float32) { g.world.PutFloat32s(s) }

// GetInt32s draws from the underlying rank's pool.
func (g *Group) GetInt32s(n int) []int32 { return g.world.GetInt32s(n) }

// PutInt32s releases to the underlying rank's pool.
func (g *Group) PutInt32s(s []int32) { g.world.PutInt32s(s) }

// GetChunks draws from the underlying rank's pool.
func (g *Group) GetChunks(n int) []Chunk { return g.world.GetChunks(n) }

// PutChunks releases to the underlying rank's pool.
func (g *Group) PutChunks(s []Chunk) { g.world.PutChunks(s) }

// DrainSends waits for the send NIC to go idle.
func (g *Group) DrainSends() { g.world.DrainSends() }

// Barrier synchronizes the group with a dissemination barrier: ⌈log₂S⌉
// rounds of token exchanges within the group, all costed by the network
// model. Alternating between two tag blocks by sequence parity keeps
// successive barriers' tokens apart without minting a fresh (src, tag)
// stream — and thus a fresh mailbox queue — per barrier.
func (g *Group) Barrier() {
	p := g.Size()
	if p == 1 {
		return
	}
	g.barSeq++
	base := (13 << 20) + (g.barSeq&1)*64
	steps := bits.Len(uint(p - 1))
	for s := 0; s < steps; s++ {
		dist := 1 << s
		dst := (g.myRank + dist) % p
		src := (g.myRank - dist + p) % p
		g.Send(dst, base+s, nil, 1)
		g.Recv(src, base+s)
	}
}
