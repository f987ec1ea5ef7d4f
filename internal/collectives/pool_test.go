package collectives

import (
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/cluster"
)

// poolMisses returns how many of the buffers pooled on c's ranks are
// not in seen, and adds them to seen. A round that draws pieces and
// releases every one of them adds a buffer to the pools exactly when a
// draw missed and allocated it, so comparing the pooled backing arrays
// before and after a round counts that round's misses. Unlike a malloc
// count, which includes every goroutine in the process, it depends on
// nothing but the round itself.
func poolMisses(c *cluster.Cluster, p int, seen map[unsafe.Pointer]bool) int {
	n := 0
	note := func(ptr unsafe.Pointer) {
		if !seen[ptr] {
			seen[ptr] = true
			n++
		}
	}
	for r := 0; r < p; r++ {
		floats, floats32, ints := c.PooledBuffers(r)
		for _, b := range floats {
			note(unsafe.Pointer(unsafe.SliceData(b)))
		}
		for _, b := range floats32 {
			note(unsafe.Pointer(unsafe.SliceData(b)))
		}
		for _, b := range ints {
			note(unsafe.Pointer(unsafe.SliceData(b)))
		}
	}
	return n
}

// TestWireChunkPoolsStopCreeping sends 200 point-to-point pieces whose
// length drifts from 1000 up to 1500 and releases each into the same
// rank's pool, as a split phase whose pieces grow from one call to the
// next does. Drawn at a PieceClass, a round misses only when the length
// outgrows the class, in the rounds that enter 1024 and 2048, and the
// pool keeps one value and one index buffer per class. Drawn at exact
// lengths, every longer piece would miss, allocate and leave the
// shorter buffer pooled.
func TestWireChunkPoolsStopCreeping(t *testing.T) {
	for _, wire := range []cluster.Wire{cluster.WireF64, cluster.WireF32} {
		t.Run(fmt.Sprintf("wire=%s", wire), func(t *testing.T) {
			const rounds, classes = 200, 2 // 1024, 2048
			c := cluster.NewWire(1, testParams(), wire)
			cm := c.Comm(0)
			idx, vals := make([]int32, 1500), make([]float64, 1500)
			var pc PieceClass
			seen := map[unsafe.Pointer]bool{}
			missing := 0
			for i := 0; i < rounds; i++ {
				n := 1000 + 500*i/(rounds-1)
				Release(cm, pc.Chunk(cm, idx[:n], vals[:n]))
				if poolMisses(c, 1, seen) > 0 {
					missing++
				}
			}
			if missing > classes {
				t.Errorf("%d of %d rounds miss the pool, want at most %d", missing, rounds, classes)
			}
			floats, floats32, ints := c.PooledBuffers(0)
			if n := len(floats) + len(floats32); n > classes || len(ints) > classes {
				t.Errorf("the pool holds %d value and %d index buffers, want at most %d each", n, len(ints), classes)
			}
		})
	}
}

// TestPieceClassStopsNetSenderMisses runs the exchange pattern of
// Ok-Topk's split phase at P = 4: each round every rank sends a piece
// to every other, and each receiver releases what it got into its own
// pool. Rank 0's pieces are always longer than the others', and a
// power-of-two class longer (2100–2200 against 1000–1100). Drawn at the
// class of its own pieces alone, each rank keeps receiving buffers of
// the other class, and later rounds still miss, each miss a buffer that
// stays pooled somewhere. With PieceClass.Received
// raising each rank's class to what it receives, the ranks agree on
// one class during the second round, and no later round misses.
func TestPieceClassStopsNetSenderMisses(t *testing.T) {
	const p, rounds = 4, 100
	c := cluster.New(p, testParams())
	idx, vals := make([]int32, 2200), make([]float64, 2200)
	pcs := make([]PieceClass, p)
	inbox := make([][]Chunk, p)
	seen := map[unsafe.Pointer]bool{}
	missing := 0
	for i := 0; i < rounds; i++ {
		for r := 0; r < p; r++ {
			for s := 1; s < p; s++ {
				n := 1000 + (i*7+s*31)%101
				if r == 0 {
					n += 1100
				}
				dst := (r + s) % p
				inbox[dst] = append(inbox[dst], pcs[r].Chunk(c.Comm(r), idx[:n], vals[:n]))
			}
		}
		for r := 0; r < p; r++ {
			for _, ch := range inbox[r] {
				pcs[r].Received(ch)
				Release(c.Comm(r), ch)
			}
			inbox[r] = inbox[r][:0]
		}
		if poolMisses(c, p, seen) > 0 && i > 1 {
			missing++
		}
	}
	if missing > 0 {
		t.Errorf("%d of rounds 3-%d miss the pools, want none", missing, rounds)
	}
}

// TestDenseAllreduceKeepsExactPools pins the dense draws: a Rabenseifner
// allreduce of n = 1M on the f32 wire at P = 4 leaves each rank's pool
// with exactly one half-vector and one quarter-vector f32 buffer, the
// same after one call as after four. Rounding dense draws up to a size
// class would add up to 1/8 to each.
func TestDenseAllreduceKeepsExactPools(t *testing.T) {
	const p, n = 4, 1_000_000
	c := cluster.NewWire(p, testParams(), cluster.WireF32)
	xs := make([][]float64, p)
	for r := range xs {
		xs[r] = make([]float64, n)
	}
	want := []int{n / 4, n / 2}
	for call := 1; call <= 4; call++ {
		if err := c.Run(func(cm *cluster.Comm) error {
			Allreduce(cm, xs[cm.Rank()])
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < p; r++ {
			floats, floats32, ints := c.PooledBuffers(r)
			caps := make([]int, len(floats32))
			for i, b := range floats32 {
				caps[i] = cap(b)
			}
			slices.Sort(caps)
			if !slices.Equal(caps, want) || len(floats) != 0 || len(ints) != 0 {
				t.Fatalf("call %d: rank %d pools f32 %v, f64 %d and int32 %d buffers; want f32 %v and nothing else",
					call, r, caps, len(floats), len(ints), want)
			}
		}
	}
}
