package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// Conv2D is a 3×3, stride-1, pad-1 convolution over CHW-packed images
// stored one per matrix row. It lowers to a matrix multiply via im2col,
// the standard trick the VGG substrate relies on. All intermediate
// matrices (im2col buffer, GEMM output, repacked activations and
// gradients) are per-instance scratch reused across steps, and the
// per-image loops run on the tensor worker pool (each image's rows are
// owned by one worker, so results are worker-count independent).
type Conv2D struct {
	InC, OutC, H, W int
	w, gw           []float64 // (InC*9) × OutC
	b, gb           []float64 // OutC
	wMat, gwMat     *tensor.Mat
	colCache        *tensor.Mat
	batch           int

	out, y, dout, dcol, dx *tensor.Mat
}

// Conv2DSize returns the parameter count.
func Conv2DSize(inC, outC int) int { return inC*9*outC + outC }

func (c *Conv2D) bind(s *Store) {
	c.w, c.gw = s.Take(c.InC * 9 * c.OutC)
	c.b, c.gb = s.Take(c.OutC)
	c.wMat = view(c.wMat, c.InC*9, c.OutC, c.w)
	c.gwMat = view(c.gwMat, c.InC*9, c.OutC, c.gw)
}

// init draws the kernel Xavier-uniform; the bias starts at zero.
func (c *Conv2D) init(r *rand.Rand) { tensor.XavierInit(r, c.w, c.InC*9, c.OutC) }

// im2col lowers x (B rows of InC*H*W) into a (B*H*W) × (InC*9) matrix
// where each row collects the 3×3 receptive field of one output pixel.
// Every element of the target row is written (out-of-bounds taps get an
// explicit zero), so the scratch needs no zeroing pass.
func (c *Conv2D) im2col(x *tensor.Mat) *tensor.Mat {
	b, h, w := x.Rows, c.H, c.W
	c.colCache = tensor.EnsureMatUninit(c.colCache, b*h*w, c.InC*9)
	col := c.colCache
	tensor.ParallelFor(b, 1, func(blo, bhi int) {
		for bi := blo; bi < bhi; bi++ {
			img := x.Row(bi)
			for oy := 0; oy < h; oy++ {
				for ox := 0; ox < w; ox++ {
					row := col.Row((bi*h+oy)*w + ox)
					for ic := 0; ic < c.InC; ic++ {
						for ky := -1; ky <= 1; ky++ {
							iy := oy + ky
							for kx := -1; kx <= 1; kx++ {
								ix := ox + kx
								ci := ic*9 + (ky+1)*3 + (kx + 1)
								if iy >= 0 && iy < h && ix >= 0 && ix < w {
									row[ci] = img[(ic*h+iy)*w+ix]
								} else {
									row[ci] = 0
								}
							}
						}
					}
				}
			}
		}
	})
	return col
}

// Forward computes the convolution; output rows pack OutC*H*W.
func (c *Conv2D) Forward(x *tensor.Mat) *tensor.Mat {
	if x.Cols != c.InC*c.H*c.W {
		panic(fmt.Sprintf("nn: conv input %d != %d", x.Cols, c.InC*c.H*c.W))
	}
	c.batch = x.Rows
	col := c.im2col(x)
	c.out = tensor.EnsureMatUninit(c.out, col.Rows, c.OutC) // (B*H*W) × OutC
	tensor.MatMul(col, c.wMat, c.out)
	// Repack to B rows of OutC*H*W, adding bias.
	c.y = tensor.EnsureMatUninit(c.y, c.batch, c.OutC*c.H*c.W)
	out, y := c.out, c.y
	hw := c.H * c.W
	tensor.ParallelFor(c.batch, 1, func(blo, bhi int) {
		for bi := blo; bi < bhi; bi++ {
			yrow := y.Row(bi)
			for pix := 0; pix < hw; pix++ {
				orow := out.Row(bi*hw + pix)
				for oc := 0; oc < c.OutC; oc++ {
					yrow[oc*hw+pix] = orow[oc] + c.b[oc]
				}
			}
		}
	})
	return c.y
}

// Backward accumulates kernel/bias gradients and returns dx.
func (c *Conv2D) Backward(dy *tensor.Mat) *tensor.Mat {
	c.backwardParams(dy)
	return c.backwardInput()
}

// backwardParams is the half of Backward that accumulates the kernel and
// bias gradients; it leaves dy repacked in c.dout for backwardInput. A
// first layer, whose input gradient nobody reads, calls only this half.
func (c *Conv2D) backwardParams(dy *tensor.Mat) {
	hw := c.H * c.W
	// Repack dy (B × OutC*H*W) into (B*H*W) × OutC in parallel, then
	// accumulate the bias gradient serially so its summation order is
	// fixed regardless of worker count.
	c.dout = tensor.EnsureMatUninit(c.dout, c.batch*hw, c.OutC)
	dout := c.dout
	tensor.ParallelFor(c.batch, 1, func(blo, bhi int) {
		for bi := blo; bi < bhi; bi++ {
			dyrow := dy.Row(bi)
			for pix := 0; pix < hw; pix++ {
				drow := dout.Row(bi*hw + pix)
				for oc := 0; oc < c.OutC; oc++ {
					drow[oc] = dyrow[oc*hw+pix]
				}
			}
		}
	})
	for i := 0; i < dout.Rows; i++ {
		drow := dout.Row(i)
		for oc, v := range drow {
			c.gb[oc] += v
		}
	}
	tensor.GemmTA(c.colCache, dout, c.gwMat)
}

// backwardInput is the other half of Backward: dcol = dout · Wᵀ, then
// col2im scatters back to dx (per-image scatter regions are disjoint,
// so images parallelize).
func (c *Conv2D) backwardInput() *tensor.Mat {
	c.dcol = tensor.EnsureMatUninit(c.dcol, c.batch*c.H*c.W, c.InC*9)
	tensor.MatMulTB(c.dout, c.wMat, c.dcol)
	c.dx = tensor.EnsureMatUninit(c.dx, c.batch, c.InC*c.H*c.W)
	dcol, dx := c.dcol, c.dx
	tensor.ParallelFor(c.batch, 1, func(blo, bhi int) {
		for bi := blo; bi < bhi; bi++ {
			dimg := dx.Row(bi)
			clear(dimg)
			for oy := 0; oy < c.H; oy++ {
				for ox := 0; ox < c.W; ox++ {
					row := dcol.Row((bi*c.H+oy)*c.W + ox)
					for ic := 0; ic < c.InC; ic++ {
						for ky := -1; ky <= 1; ky++ {
							iy := oy + ky
							for kx := -1; kx <= 1; kx++ {
								ix := ox + kx
								if iy >= 0 && iy < c.H && ix >= 0 && ix < c.W {
									dimg[(ic*c.H+iy)*c.W+ix] += row[ic*9+(ky+1)*3+(kx+1)]
								}
							}
						}
					}
				}
			}
		}
	})
	return c.dx
}

// MaxPool2 is a 2×2, stride-2 max pool over CHW-packed rows.
type MaxPool2 struct {
	C, H, W int // input geometry; output is C × H/2 × W/2
	argmax  []int
	batch   int
	y, dx   *tensor.Mat
}

// NewMaxPool2 returns a pool layer for the given input geometry (H and W
// must be even).
func NewMaxPool2(c, h, w int) *MaxPool2 {
	if h%2 != 0 || w%2 != 0 {
		panic("nn: maxpool needs even dimensions")
	}
	return &MaxPool2{C: c, H: h, W: w}
}

// Forward downsamples by taking 2×2 maxima.
func (p *MaxPool2) Forward(x *tensor.Mat) *tensor.Mat {
	oh, ow := p.H/2, p.W/2
	p.batch = x.Rows
	p.y = tensor.EnsureMatUninit(p.y, x.Rows, p.C*oh*ow)
	if cap(p.argmax) < len(p.y.Data) {
		p.argmax = make([]int, len(p.y.Data))
	}
	p.argmax = p.argmax[:len(p.y.Data)]
	y, argmax := p.y, p.argmax
	tensor.ParallelFor(x.Rows, 1, func(blo, bhi int) {
		for bi := blo; bi < bhi; bi++ {
			img := x.Row(bi)
			yrow := y.Row(bi)
			for ch := 0; ch < p.C; ch++ {
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						best := -1
						bestV := 0.0
						for dy := 0; dy < 2; dy++ {
							for dx := 0; dx < 2; dx++ {
								idx := (ch*p.H+2*oy+dy)*p.W + 2*ox + dx
								if best == -1 || img[idx] > bestV {
									best, bestV = idx, img[idx]
								}
							}
						}
						oidx := (ch*oh+oy)*ow + ox
						yrow[oidx] = bestV
						argmax[bi*len(yrow)+oidx] = best
					}
				}
			}
		}
	})
	return p.y
}

// Backward routes gradients to the argmax positions.
func (p *MaxPool2) Backward(dy *tensor.Mat) *tensor.Mat {
	p.dx = tensor.EnsureMatUninit(p.dx, p.batch, p.C*p.H*p.W)
	dx, argmax := p.dx, p.argmax
	tensor.ParallelFor(p.batch, 1, func(blo, bhi int) {
		for bi := blo; bi < bhi; bi++ {
			drow := dy.Row(bi)
			dimg := dx.Row(bi)
			clear(dimg)
			for oidx, v := range drow {
				dimg[argmax[bi*len(drow)+oidx]] += v
			}
		}
	})
	return p.dx
}
