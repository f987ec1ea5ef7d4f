package tensor

import (
	"fmt"
	"testing"
)

// BenchmarkMatMul measures the parallel GEMM at model-shaped sizes
// (square, LSTM-gate-shaped, attention-projection-shaped). Throughput
// is bytes of A+B+C per op. Numbers are tracked in BENCH_kernels.json.
func BenchmarkMatMul(b *testing.B) {
	sizes := [][3]int{{128, 128, 128}, {512, 64, 256}, {1024, 40, 512}}
	for _, d := range sizes {
		m, k, n := d[0], d[1], d[2]
		b.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(b *testing.B) {
			r := RNG(1)
			a, bm, c := NewMat(m, k), NewMat(k, n), NewMat(m, n)
			RandN(r, a.Data, 1)
			RandN(r, bm.Data, 1)
			b.SetBytes(int64(8 * (m*k + k*n + m*n)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMul(a, bm, c)
			}
		})
	}
}

// BenchmarkConvBackward runs the two backward GEMMs of each VGG conv
// layer at the training workload's shapes (batch 4), with the output
// gradient's zero fraction as measured along its trajectory: dW is
// GemmTA(col, dout, gw), dx is MatMulTB(dout, w, dcol).
func BenchmarkConvBackward(b *testing.B) {
	layers := []struct {
		name              string
		pixels, taps, out int
		zeros             float64
	}{
		{"conv1", 4 * 32 * 32, 3 * 9, 16, 0.8},
		{"conv2", 4 * 16 * 16, 16 * 9, 32, 0.97},
		{"conv3", 4 * 8 * 8, 32 * 9, 64, 0.88},
	}
	for _, l := range layers {
		r := RNG(3)
		col, w, dout := NewMat(l.pixels, l.taps), NewMat(l.taps, l.out), NewMat(l.pixels, l.out)
		RandN(r, col.Data, 1)
		RandN(r, w.Data, 1)
		RandN(r, dout.Data, 1)
		for i := range dout.Data {
			if r.Float64() < l.zeros {
				dout.Data[i] = 0
			}
		}
		gw, dcol := NewMat(l.taps, l.out), NewMat(l.pixels, l.taps)
		b.Run(l.name+"/dW", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				GemmTA(col, dout, gw)
			}
		})
		b.Run(l.name+"/dx", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MatMulTB(dout, w, dcol)
			}
		})
	}
}

// BenchmarkGemmTB measures the dense dot-product kernel. No layer calls
// GemmTB (backward passes use MatMulTB, which skips zeros); it is the
// dense baseline behind the benchmark's tensor.gemmtb_gflops row.
func BenchmarkGemmTB(b *testing.B) {
	m, k, n := 256, 128, 256
	r := RNG(2)
	a, bm, c := NewMat(m, k), NewMat(n, k), NewMat(m, n)
	RandN(r, a.Data, 1)
	RandN(r, bm.Data, 1)
	b.SetBytes(int64(8 * (m*k + n*k + m*n)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(c.Data)
		GemmTB(a, bm, c)
	}
}
