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
	p := cm.Size()
	if nodeSize <= 0 {
		panic("collectives: nodeSize must be positive")
	}
	if nodeSize == 1 || p == 1 {
		Allreduce(cm, x)
		return
	}
	rank := cm.Rank()
	node := rank / nodeSize
	local := rank % nodeSize

	// Intra-node group (tag space by node id; the last node may be
	// ragged when nodeSize does not divide P).
	lo, hi := node*nodeSize, (node+1)*nodeSize
	if hi > p {
		hi = p
	}
	nodeRanks := make([]int, hi-lo)
	for i := range nodeRanks {
		nodeRanks[i] = lo + i
	}
	intra := cluster.NewGroup(cm, nodeRanks, 100+node)

	// (1) Reduce within the node onto local leader 0.
	Reduce(intra, 0, x)

	// (2) Leaders allreduce across nodes. While it runs, each leader is
	// the only rank of its node touching the inter-node rail.
	if local == 0 {
		nNodes := (p + nodeSize - 1) / nodeSize
		leaderRanks := make([]int, nNodes)
		for i := range leaderRanks {
			leaderRanks[i] = i * nodeSize
		}
		inter := cluster.NewGroup(cm, leaderRanks, 99)
		// Link pricing happens at post time, so restoring the
		// declaration right after the collective returns is safe.
		prev := cm.Clock().SetRailUsers(1)
		Allreduce(inter, x)
		cm.Clock().SetRailUsers(prev)
	}

	// (3) Broadcast the result within the node. Non-leaders receive a
	// pooled hop buffer they own; fold it into x and release it.
	res := Bcast(intra, 0, x)
	if local != 0 {
		copy(x, res)
		intra.PutFloats(res)
	}
}
