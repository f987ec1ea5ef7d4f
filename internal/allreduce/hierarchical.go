package allreduce

import (
	"repro/internal/cluster"
	"repro/internal/collectives"
	"repro/internal/netmodel"
	"repro/internal/tensor"
)

// HierDense is the dense baseline run through the two-level
// node-aware schedule (collectives.HierarchicalAllreduce): intra-node
// reduce, leader allreduce, intra-node broadcast. On the flat network
// it moves slightly more data than Dense; on a hierarchical topology
// the intra-node hops ride the cheap links and the leader exchange is
// the node's sole rail user, which is where it earns its keep — the
// topo scenario runner exists to show exactly when that trade flips.
type HierDense struct {
	nodeSize int
	sum      []float64
	groups   *collectives.Hierarchy // rebuilt when the world or node size changes
}

// NewHierDense returns the hierarchical dense baseline with the given
// node size (ranks per node). 0 defers to the cluster topology's node
// size at Reduce time, falling back to 4 on the flat network; 1
// degrades to the flat Allreduce.
func NewHierDense(nodeSize int) *HierDense {
	return &HierDense{nodeSize: nodeSize}
}

// nodeSizeFor resolves the schedule's node size against the clock's
// topology so the algorithm's grouping matches the machine's by
// default.
func (d *HierDense) nodeSizeFor(cm cluster.Endpoint) int {
	if d.nodeSize > 0 {
		return d.nodeSize
	}
	if n := cm.Clock().Params().Topo.NodeSize; n > 1 {
		return n
	}
	return 4
}

func (*HierDense) Name() string           { return "Hierarchical" }
func (*HierDense) OverlapsBackward() bool { return false }

// Reduce sums acc across all ranks via the two-level schedule. It needs
// the world communicator (the schedule builds node-local groups, kept
// across calls), so it must not itself run inside a Group.
func (d *HierDense) Reduce(cm cluster.Endpoint, acc []float64, t int) Result {
	world, ok := cm.(*cluster.Comm)
	if !ok {
		panic("allreduce: HierDense needs the world communicator")
	}
	cm.Clock().SetPhase(netmodel.PhaseComm)
	sum := tensor.Ensure(d.sum, len(acc))
	d.sum = sum
	copy(sum, acc)
	if ns := d.nodeSizeFor(cm); !d.groups.Fits(world, ns) {
		d.groups = collectives.NewHierarchy(world, ns)
	}
	d.groups.Allreduce(sum)
	cm.Clock().SetPhase(netmodel.PhaseCompute)
	return Result{Update: sum, All: true, LocalK: len(acc), GlobalK: len(acc)}
}
