package collectives

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/cluster"
)

// TestSizeClass pins the rounding: exact below 16, then eight classes
// per power of two, never more than 1/8 above the length.
func TestSizeClass(t *testing.T) {
	for n, want := range map[int]int{0: 0, 1: 1, 15: 15, 16: 16, 17: 18, 31: 32, 1000: 1024, 1025: 1152, 1500: 1536} {
		if got := sizeClass(n); got != want {
			t.Errorf("sizeClass(%d) = %d, want %d", n, got, want)
		}
	}
	for n := 1; n < 1<<16; n++ {
		if c := sizeClass(n); c < n || 8*(c-n) > n {
			t.Fatalf("sizeClass(%d) = %d: below the length or more than 1/8 above it", n, c)
		}
	}
}

// TestWireChunkPoolsStopCreeping sends 200 WireChunks whose length
// drifts from 1000 up to 1500 and releases each into the same rank's
// pool, as a split phase whose pieces grow from one call to the next
// does. Drawn by size class, a round allocates only when the length
// enters a class no pooled buffer covers, five times in all, and the
// pool keeps one buffer per class. Drawn at exact lengths, every longer
// piece would miss, allocate and leave the shorter buffer pooled.
func TestWireChunkPoolsStopCreeping(t *testing.T) {
	for _, wire := range []cluster.Wire{cluster.WireF64, cluster.WireF32} {
		t.Run(fmt.Sprintf("wire=%s", wire), func(t *testing.T) {
			const rounds, classes = 200, 5 // 1024, 1152, 1280, 1408, 1536
			c := cluster.NewWire(1, testParams(), wire)
			cm := c.Comm(0)
			idx, vals := make([]int32, 1500), make([]float64, 1500)
			allocating := 0
			var before, after runtime.MemStats
			for i := 0; i < rounds; i++ {
				n := 1000 + 500*i/(rounds-1)
				runtime.ReadMemStats(&before)
				Release(cm, WireChunk(cm, idx[:n], vals[:n]))
				runtime.ReadMemStats(&after)
				if after.Mallocs != before.Mallocs {
					allocating++
				}
			}
			if allocating > classes {
				t.Errorf("%d of %d rounds allocate, want at most %d", allocating, rounds, classes)
			}
			floats, floats32, ints := c.PooledBuffers(0)
			if n := len(floats) + len(floats32); n > classes || len(ints) > classes {
				t.Errorf("the pool holds %d value and %d index buffers, want at most %d each", n, len(ints), classes)
			}
		})
	}
}

// TestWireChunkAtLeastStopsNetSenderMisses runs the exchange pattern of
// Ok-Topk's split phase at P = 4: each round every rank sends a piece to
// every other, and each receiver releases what it got into its own
// pool. Rank 0's pieces are always longer than the others' (1400–1500
// against 1000–1100). With WireChunk, rank 0 mostly receives buffers
// too short for its next sends, and 7 of rounds 3–100 allocate, each
// allocation a buffer that stays pooled somewhere. With
// WireChunkAtLeast at the largest capacity each rank has sent or
// received, the ranks agree on one class after the first round, and no
// later round allocates.
func TestWireChunkAtLeastStopsNetSenderMisses(t *testing.T) {
	const p, rounds = 4, 100
	c := cluster.New(p, testParams())
	idx, vals := make([]int32, 1500), make([]float64, 1500)
	caps := make([]int, p)
	inbox := make([][]Chunk, p)
	allocating := 0
	var before, after runtime.MemStats
	for i := 0; i < rounds; i++ {
		runtime.ReadMemStats(&before)
		for r := 0; r < p; r++ {
			for s := 1; s < p; s++ {
				n := 1000 + (i*7+s*31)%101
				if r == 0 {
					n += 400
				}
				ch := WireChunkAtLeast(c.Comm(r), idx[:n], vals[:n], caps[r])
				caps[r] = cap(ch.Aux)
				dst := (r + s) % p
				inbox[dst] = append(inbox[dst], ch)
			}
		}
		for r := 0; r < p; r++ {
			for _, ch := range inbox[r] {
				caps[r] = max(caps[r], cap(ch.Aux))
				Release(c.Comm(r), ch)
			}
			inbox[r] = inbox[r][:0]
		}
		runtime.ReadMemStats(&after)
		if i > 1 && after.Mallocs != before.Mallocs {
			allocating++
		}
	}
	if allocating > 0 {
		t.Errorf("%d of rounds 3-%d allocate, want none", allocating, rounds)
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
