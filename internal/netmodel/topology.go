package netmodel

import "fmt"

// Topology extends the flat α-β-γ model with the three non-uniformities
// real clusters exhibit and the paper's evaluation abstracts away:
//
//   - HIERARCHY: ranks are grouped into nodes of NodeSize; transfers
//     between ranks on the same node use the intra-node link
//     (α·IntraAlphaFrac, β·IntraBetaFrac — an NVLink/shared-memory hop),
//     while transfers between nodes pay the full inter-node α/β.
//   - CONTENTION: all ranks of a node share one inter-node rail. A
//     transfer that shares the rail with k other users streams at an
//     effective β·(1+Share·k) — the documented sharing model (see
//     DESIGN.md "Topology model"). Collectives that know only one rank
//     per node touches the rail (the leader phase of
//     HierarchicalAllreduce) declare it via Clock.SetRailUsers.
//   - STRAGGLERS/JITTER: a deterministic per-rank hash of the topology
//     seed marks ⌊StragglerFrac·P⌋-expectation ranks as stragglers whose
//     local compute runs StragglerSlow× slower; Jitter adds per-(rank,
//     step) multiplicative noise. Both are pure functions of
//     (Seed, rank, step) — no shared state — so modeled clocks are
//     bit-identical across scheduler parallelism, tensor worker counts,
//     and transport backends.
//
// The zero Topology is the flat network: none of the three applies, and
// every Clock prices every link at the plain α and β and every compute
// charge at the plain γ (TestGoldenFlatTopology pins that output).
type Topology struct {
	// NodeSize is the number of ranks per node; 0 or 1 means no
	// hierarchy (every rank is its own node, all links inter-node).
	NodeSize int
	// IntraAlphaFrac scales α for intra-node transfers (0 means 1.0,
	// i.e. no discount).
	IntraAlphaFrac float64
	// IntraBetaFrac scales β for intra-node transfers (0 means 1.0).
	IntraBetaFrac float64
	// Share is the rail-sharing penalty σ: an inter-node transfer
	// sharing its rail with k other users streams at β·(1+σ·k).
	Share float64
	// StragglerFrac is the probability any given rank is a straggler.
	StragglerFrac float64
	// StragglerSlow is the compute slowdown multiplier for straggler
	// ranks (values ≤ 1 mean no slowdown).
	StragglerSlow float64
	// Jitter is the amplitude of per-(rank, step) multiplicative
	// compute noise: the multiplier is 1 + Jitter·u with u uniform in
	// [0,1) hashed from (Seed, rank, step).
	Jitter float64
	// Seed drives straggler selection and jitter; derive it with
	// experiments.SeedFor so distinct configs get distinct noise.
	Seed int64
}

// Active reports whether the topology differs from the flat network.
func (t Topology) Active() bool {
	return t.NodeSize > 1 || t.StragglerFrac > 0 || t.Jitter > 0
}

// Node returns the node index hosting rank (ragged last node allowed).
func (t Topology) Node(rank int) int {
	if t.NodeSize <= 1 {
		return rank
	}
	return rank / t.NodeSize
}

// SameNode reports whether two ranks share a node (and therefore an
// intra-node link).
func (t Topology) SameNode(a, b int) bool {
	return t.NodeSize > 1 && t.Node(a) == t.Node(b)
}

func frac(f float64) float64 {
	if f <= 0 {
		return 1
	}
	return f
}

// intraAlpha / intraBeta return the effective intra-node constants.
func (t Topology) intraAlpha(base float64) float64 { return base * frac(t.IntraAlphaFrac) }
func (t Topology) intraBeta(base float64) float64  { return base * frac(t.IntraBetaFrac) }

// sharedBeta prices an inter-node transfer sharing its rail with k
// other users: β·(1+σ·k). σ=0 or k=0 degrades to the flat β, and the
// cost is monotone in k — more sharers never make a transfer faster.
func (t Topology) sharedBeta(base float64, sharers int) float64 {
	if sharers <= 0 || t.Share <= 0 {
		return base
	}
	return base * (1 + t.Share*float64(sharers))
}

// Deterministic noise: FNV-1a over the little-endian bytes of the mixed
// words, folded to a uniform in [0,1). Pure functions of their inputs —
// the only state is the seed carried inside the topology — so every
// backend computes identical noise for identical (seed, rank, step).
const (
	saltStraggler = 0x5354524147 // "STRAG"
	saltJitter    = 0x4a495454   // "JITT"
)

func hashWords(vals ...uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range vals {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * uint(i))) & 0xff
			h *= 1099511628211
		}
	}
	return h
}

// unit maps hashed words to a uniform float64 in [0,1).
func unit(vals ...uint64) float64 {
	return float64(hashWords(vals...)>>11) / (1 << 53)
}

// IsStraggler reports whether rank is a straggler under this topology:
// a pure hash of (Seed, rank) compared against StragglerFrac.
func (t Topology) IsStraggler(rank int) bool {
	if t.StragglerFrac <= 0 {
		return false
	}
	return unit(uint64(t.Seed), uint64(rank), saltStraggler) < t.StragglerFrac
}

// JitterU returns the uniform [0,1) jitter draw for (rank, step).
func (t Topology) JitterU(rank, step int) float64 {
	return unit(uint64(t.Seed), uint64(rank), uint64(step), saltJitter)
}

// BuildTopology resolves a named preset into a Topology:
//
//	flat     — the uniform network of the paper (straggler knobs still
//	           apply, so "flat + stragglers" is expressible);
//	fattree  — commodity fat-tree: intra-node links 4× better in both
//	           α and β, full rail sharing (σ=1);
//	nvlink   — NVLink island: intra-node α 10× lower, β 12× higher
//	           bandwidth, full rail sharing (σ=1).
//
// nodeSize ≤ 0 selects the preset default (4 for hierarchical presets,
// none for flat). straggler ≥ 0 is a severity s mapped to
// StragglerFrac=0.125, StragglerSlow=1+s, Jitter=0.1·s; zero disables
// injection. seed drives the deterministic noise.
func BuildTopology(preset string, nodeSize int, straggler float64, seed int64) (Topology, error) {
	var t Topology
	switch preset {
	case "", "flat":
		if nodeSize > 1 {
			return t, fmt.Errorf("netmodel: flat topology takes no node size (got %d)", nodeSize)
		}
	case "fattree":
		t.IntraAlphaFrac = 0.25
		t.IntraBetaFrac = 0.25
		t.Share = 1
		t.NodeSize = 4
	case "nvlink":
		t.IntraAlphaFrac = 0.1
		t.IntraBetaFrac = 1.0 / 12
		t.Share = 1
		t.NodeSize = 4
	default:
		return t, fmt.Errorf("netmodel: unknown topology %q (want flat, fattree, or nvlink)", preset)
	}
	if nodeSize > 0 && t.NodeSize > 0 {
		t.NodeSize = nodeSize
	}
	if straggler < 0 {
		return t, fmt.Errorf("netmodel: negative straggler severity %g", straggler)
	}
	if straggler > 0 {
		t.StragglerFrac = 0.125
		t.StragglerSlow = 1 + straggler
		t.Jitter = 0.1 * straggler
		t.Seed = seed
	}
	return t, nil
}
