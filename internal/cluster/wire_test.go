package cluster

import (
	"math"
	"testing"

	"repro/internal/netmodel"
)

func TestWireParseAndString(t *testing.T) {
	for _, tc := range []struct {
		s string
		w Wire
	}{{"f64", WireF64}, {"f32", WireF32}} {
		w, err := ParseWire(tc.s)
		if err != nil || w != tc.w {
			t.Errorf("ParseWire(%q) = %v, %v", tc.s, w, err)
		}
		if w.String() != tc.s {
			t.Errorf("%v.String() = %q, want %q", w, w.String(), tc.s)
		}
	}
	if _, err := ParseWire("f16"); err == nil {
		t.Error("ParseWire accepted f16")
	}
}

func TestWireWords(t *testing.T) {
	for _, tc := range []struct {
		w        Wire
		elems, n int
	}{
		{WireF64, 0, 0}, {WireF64, 7, 7},
		{WireF32, 0, 0}, {WireF32, 1, 1}, {WireF32, 2, 1}, {WireF32, 7, 4},
	} {
		if got := tc.w.Words(tc.elems); got != tc.n {
			t.Errorf("%v.Words(%d) = %d, want %d", tc.w, tc.elems, got, tc.n)
		}
	}
}

func TestWireRound(t *testing.T) {
	x := []float64{1.0 / 3.0, -math.Pi, 42}
	y := append([]float64(nil), x...)
	WireF64.Round(y)
	for i := range x {
		if y[i] != x[i] {
			t.Fatalf("f64 Round changed element %d", i)
		}
	}
	WireF32.Round(y)
	for i := range x {
		if want := float64(float32(x[i])); y[i] != want {
			t.Errorf("f32 Round[%d] = %v, want %v", i, y[i], want)
		}
	}
	if y[0] == x[0] {
		t.Error("f32 Round left 1/3 unrounded")
	}
}

// TestFloat32PayloadRoundtrip: SendFloat32s/RecvFloat32 transfer pooled
// buffers between ranks with the declared word accounting, and the f32
// chunk accounting covers values plus indexes at half-word each.
func TestFloat32PayloadRoundtrip(t *testing.T) {
	c := NewWire(2, netmodel.Params{Alpha: 1e-6, Beta: 1e-9}, WireF32)
	if c.wire != WireF32 {
		t.Fatal("cluster wire mode lost")
	}
	err := c.Run(func(cm *Comm) error {
		if cm.Wire() != WireF32 {
			t.Error("comm wire mode lost")
		}
		if cm.Rank() == 0 {
			buf := cm.GetFloat32s(3)
			buf[0], buf[1], buf[2] = 1.5, -2.5, 3.25
			cm.SendFloat32s(1, 7, buf, WireF32.Words(3))
			ch := Chunk{Data32: cm.GetFloat32s(2), Aux: cm.GetInt32s(2)}
			ch.Data32[0], ch.Data32[1] = 0.5, 0.75
			ch.Aux[0], ch.Aux[1] = 10, 20
			if ch.Words() != 2 { // 4 elements at half a word each
				t.Errorf("f32 chunk words = %d, want 2", ch.Words())
			}
			cm.SendChunk(1, 8, ch, ch.Words())
		} else {
			got := cm.RecvFloat32(0, 7)
			if len(got) != 3 || got[0] != 1.5 || got[1] != -2.5 || got[2] != 3.25 {
				t.Errorf("RecvFloat32 = %v", got)
			}
			cm.PutFloat32s(got)
			ch := cm.RecvChunk(0, 8)
			if ch.NumValues() != 2 || ch.AppendValues(nil)[0] != 0.5 || ch.AppendValues(nil)[1] != 0.75 {
				t.Errorf("f32 chunk values = %v", ch.Data32)
			}
			if vs := ch.AppendValues(nil); len(vs) != 2 || vs[1] != 0.75 {
				t.Errorf("AppendValues = %v", vs)
			}
			cm.PutFloat32s(ch.Data32)
			cm.PutInt32s(ch.Aux)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	stats := c.Stats()
	if stats[0].SentWords != 2+2 {
		t.Errorf("rank 0 sent %d words, want 4", stats[0].SentWords)
	}
}

// TestGroupForwardsWire: group endpoints expose the world's wire mode
// and forward the f32 payload paths.
func TestGroupForwardsWire(t *testing.T) {
	c := NewWire(4, netmodel.Params{Alpha: 1e-6, Beta: 1e-9}, WireF32)
	err := c.Run(func(cm *Comm) error {
		if cm.Rank() >= 2 {
			return nil
		}
		g := NewGroup(cm, []int{0, 1}, 5)
		if g.Wire() != WireF32 {
			t.Error("group wire mode lost")
		}
		if g.Rank() == 0 {
			buf := g.GetFloat32s(1)
			buf[0] = 9
			g.SendFloat32s(1, 3, buf, 1)
		} else {
			got := g.RecvFloat32(0, 3)
			if len(got) != 1 || got[0] != 9 {
				t.Errorf("group RecvFloat32 = %v", got)
			}
			g.PutFloat32s(got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
