package collectives

import "repro/internal/cluster"

// This file adds the hierarchical collective a multi-GPU-per-node
// deployment needs (Piz Daint has one GPU per node, so the paper's
// evaluation is flat; a general library is not): a two-level allreduce
// that reduces within node-local groups first and exchanges only one
// contribution per node across the network.

// HierarchicalAllreduce sums x across all ranks using a two-level
// schedule with nodeSize ranks per node: (1) intra-node reduce onto the
// node leader, (2) inter-node allreduce among leaders, (3) intra-node
// broadcast. With cheap intra-node links this moves only ≈2n(N−1)/N
// words across the network for N nodes instead of 2n(P−1)/P messages
// among all P ranks. The node layout matches netmodel.Topology.Node
// (rank/nodeSize, ragged last node allowed), so on a hierarchical
// topology steps (1) and (3) ride the cheap intra-node links, and the
// leader exchange — provably the node's only rail user — declares
// exclusive rail occupancy via Clock.SetRailUsers, dodging the static
// sharing penalty every flat collective pays.
func HierarchicalAllreduce(cm *cluster.Comm, x []float64, nodeSize int) {
	NewHierarchy(cm, nodeSize).Allreduce(x)
}

// Hierarchy is one rank's groups for the two-level schedule: its
// node's group and, on a node leader, the leaders' group. A caller
// that reduces every iteration builds it once per world communicator
// and node size (Fits) instead of once per call.
type Hierarchy struct {
	world    *cluster.Comm
	nodeSize int
	// intra is nil when nodeSize or P is 1, where the schedule is the
	// flat Allreduce; inter is nil off the leaders.
	intra, inter *cluster.Group
}

// NewHierarchy builds cm's groups for nodes of nodeSize ranks.
func NewHierarchy(cm *cluster.Comm, nodeSize int) *Hierarchy {
	if nodeSize <= 0 {
		panic("collectives: nodeSize must be positive")
	}
	h := &Hierarchy{world: cm, nodeSize: nodeSize}
	p, rank := cm.Size(), cm.Rank()
	if nodeSize == 1 || p == 1 {
		return h
	}
	// Intra-node group (tag space by node id; the last node may be
	// ragged when nodeSize does not divide P).
	node := rank / nodeSize
	lo, hi := node*nodeSize, min((node+1)*nodeSize, p)
	nodeRanks := make([]int, hi-lo)
	for i := range nodeRanks {
		nodeRanks[i] = lo + i
	}
	h.intra = cluster.NewGroup(cm, nodeRanks, 100+node)
	if rank%nodeSize == 0 {
		leaderRanks := make([]int, (p+nodeSize-1)/nodeSize)
		for i := range leaderRanks {
			leaderRanks[i] = i * nodeSize
		}
		h.inter = cluster.NewGroup(cm, leaderRanks, 99)
	}
	return h
}

// Fits reports whether h holds cm's groups for nodes of nodeSize.
func (h *Hierarchy) Fits(cm *cluster.Comm, nodeSize int) bool {
	return h != nil && h.world == cm && h.nodeSize == nodeSize
}

// Allreduce sums x across all ranks with the two-level schedule.
func (h *Hierarchy) Allreduce(x []float64) {
	if h.intra == nil {
		Allreduce(h.world, x)
		return
	}
	// (1) Reduce within the node onto local leader 0.
	Reduce(h.intra, 0, x)

	// (2) Leaders allreduce across nodes. While it runs, each leader is
	// the only rank of its node touching the inter-node rail.
	if h.inter != nil {
		// Link pricing happens at post time, so restoring the
		// declaration right after the collective returns is safe.
		prev := h.world.Clock().SetRailUsers(1)
		Allreduce(h.inter, x)
		h.world.Clock().SetRailUsers(prev)
	}

	// (3) Broadcast the result within the node. Non-leaders receive a
	// pooled hop buffer they own; fold it into x and release it.
	res := Bcast(h.intra, 0, x)
	if h.intra.Rank() != 0 {
		copy(x, res)
		h.intra.PutFloats(res)
	}
}
