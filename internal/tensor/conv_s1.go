package tensor

// Direct (im2col-free) stride-1 convolution.
//
// The im2col lowering copies every input pixel kh·kw times into a
// (C·KH·KW)×(OH·OW) column panel, and its backward scatters a panel of
// the same size back through Col2Im. At the 4–16 channel widths the
// victim trains at, those copies cost more than the GEMMs they feed.
// The kernels here read a zero-padded copy of one image instead. With
// the padded row stride wp = w+2·pad, output position s' = oy·wp+ox
// and tap t = (ch,ky,kx), the column row of tap t is the contiguous
// slice starting at offs[t] = ch·hp·wp + ky·wp + kx. Positions with
// ox ≥ ow (kw−1 per row) are computed and discarded.
//
// Every output element is the same float32 operation sequence the
// im2col path computes for that shape, so results are byte-identical
// and no caller needs to know which path ran:
//
//   - forward W·col (gemmAxpyB): an FMA chain from +0 over taps in
//     (ch,ky,kx) order;
//   - input gradient Wᵀ·g then Col2Im: each tap's gemmAxpyB chain over
//     output channels, added into the input gradient with a separate
//     rounding in Col2Im's per-element tap order;
//   - weight gradient g·colᵀ, on either gemmDotABT (dotKernel1x4Asm's
//     two accumulators split by s mod 16 and its horizontal reduce) or
//     the packed kernel (one FMA chain over s per KC-deep slab, the
//     slabs added onto +0 in order).
//
// NewConvS1 accepts a geometry only when the GEMM branches im2col would
// take are ones these kernels mirror (gemmBranchFor), so the gate is a
// function of the shape and the CPU, never of the worker count.

// convS1Available records whether the AVX2 kernels were selected.
var convS1Available bool

// ConvS1 is a direct-convolution plan for one stride-1 geometry. The
// methods that take images are safe for concurrent use once the
// weights are packed.
type ConvS1 struct {
	inC, outC, h, w, kh, kw, pad int
	oh, ow, wp, plane            int
	kk, ckk                      int

	offs  []int // per tap (ch,ky,kx): start of its column row in the padded image
	oLen  int   // padded-row-stride output length per channel (multiple of 16)
	inLen int   // PadLen

	// Input gradient: the output gradient is spread into planes of
	// gPlane floats with gMargin zeros in front, so gOffs[t] (per
	// (ky,kx)) reads the positions tap t scatters onto; dLen is the
	// per-channel length of the padded-row-stride result.
	gOffs        []int
	gMargin      int
	gPlane, dLen int

	dotWGrad bool
	segs     []int // dot weight gradient: padded position of each dense 8-block
	slabRows int   // sequential weight gradient: output rows per KC slab

	wFwd, wBwd []float32 // PackWeights layouts
}

// NewConvS1 returns a direct plan for an inC→outC, kh×kw, stride-1 conv
// with zero padding pad over h×w images, or nil when the geometry must
// take the Im2Col + GEMM path: the CPU lacks AVX2/FMA, or a GEMM of the
// lowering would run a branch (or a tail) the direct kernels do not
// reproduce bit for bit. Stride-2 convolutions never get a plan.
func NewConvS1(inC, outC, h, w, kh, kw, pad int) *ConvS1 {
	if !convS1Available || inC <= 0 || outC <= 0 || kh <= 0 || kw <= 0 || pad < 0 {
		return nil
	}
	oh, ow := h+2*pad-kh+1, w+2*pad-kw+1
	if oh <= 0 || ow <= 0 {
		return nil
	}
	ckk, n := inC*kh*kw, oh*ow
	if outC*ckk*n < gemmMinFlops {
		return nil // MatMul*Into would run the naive kernels
	}
	// Forward W·col: gemmAxpyB with no scalar n tail; 4-channel tiles.
	if gemmBranchFor(outC, n, ckk, 1, n, 1) != gemmBranchAxpy || n%32 != 0 || outC%4 != 0 {
		return nil
	}
	// Input gradient Wᵀ·g (MatMulATBInto): gemmAxpyB; 4-channel tiles.
	if gemmBranchFor(ckk, n, outC, ckk, n, 1) != gemmBranchAxpy || inC%4 != 0 {
		return nil
	}
	p := &ConvS1{
		inC: inC, outC: outC, h: h, w: w, kh: kh, kw: kw, pad: pad,
		oh: oh, ow: ow, wp: w + 2*pad, kk: kh * kw, ckk: ckk,
	}
	p.plane = (h + 2*pad) * p.wp
	// Weight gradient g·colᵀ (MatMulABTInto).
	switch gemmBranchFor(outC, ckk, n, 1, 1, n) {
	case gemmBranchDot:
		// No k tail (n%16) or column-group tail (ckk%4, implied by
		// inC%4); 8-position segments must not straddle rows.
		if n%16 != 0 || ow%8 != 0 {
			return nil
		}
		p.dotWGrad = true
		p.segs = make([]int, n/8)
		for b := range p.segs {
			p.segs[b] = (8*b/ow)*p.wp + 8*b%ow
		}
	case gemmBranchPacked:
		// Slabs of gemmKC positions must be whole output rows.
		switch {
		case n <= gemmKC:
			p.slabRows = oh
		case gemmKC%ow == 0:
			p.slabRows = gemmKC / ow
		default:
			return nil
		}
	default:
		return nil
	}

	p.offs = make([]int, ckk)
	for ch := 0; ch < inC; ch++ {
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				p.offs[(ch*kh+ky)*kw+kx] = ch*p.plane + ky*p.wp + kx
			}
		}
	}
	p.oLen = roundUp16(oh * p.wp)
	p.inLen = max(inC*p.plane, p.offs[ckk-1]+p.oLen)

	p.gMargin = kh*p.wp + kw
	p.dLen = roundUp16(h * p.wp)
	p.gPlane = p.gMargin + max(oh*p.wp, pad*p.wp+p.dLen)
	p.gOffs = make([]int, p.kk)
	for ky := 0; ky < kh; ky++ {
		for kx := 0; kx < kw; kx++ {
			p.gOffs[ky*kw+kx] = p.gMargin + pad*p.wp - ky*p.wp - kx
		}
	}
	p.wFwd = make([]float32, outC*ckk)
	p.wBwd = make([]float32, outC*ckk)
	return p
}

func roundUp16(n int) int { return (n + 15) &^ 15 }

// PadLen is the length of the buffer PadInput fills.
func (p *ConvS1) PadLen() int { return p.inLen }

// PadInput writes img (inC×h×w) into dst (PadLen floats) as zero-padded
// planes of (h+2·pad)×(w+2·pad), followed by zeros.
func (p *ConvS1) PadInput(img, dst []float32) {
	dst = dst[:p.inLen]
	hw := p.h * p.w
	for ch := 0; ch < p.inC; ch++ {
		spreadRows(dst[ch*p.plane:(ch+1)*p.plane], p.pad*p.wp+p.pad, img[ch*hw:(ch+1)*hw], p.h, p.w, p.wp)
	}
	clear(dst[p.inC*p.plane:])
}

// spreadRows writes the rows×w matrix src into dst with row stride ld,
// starting at dst[at], and zeroes every other element of dst.
func spreadRows(dst []float32, at int, src []float32, rows, w, ld int) {
	clear(dst[:at])
	for y := 0; y < rows; y++ {
		o := at + y*ld
		copy(dst[o:o+w], src[y*w:(y+1)*w])
		clear(dst[o+w : min(o+ld, len(dst))])
	}
	if end := at + rows*ld; end < len(dst) {
		clear(dst[end:])
	}
}

// gatherRows is the inverse of spreadRows: it copies rows of w elements
// at row stride ld from src into the dense matrix dst.
func gatherRows(dst, src []float32, rows, w, ld int) {
	for y := 0; y < rows; y++ {
		copy(dst[y*w:(y+1)*w], src[y*ld:y*ld+w])
	}
}

// PackWeights stages w (outC×inC×kh×kw) in the layouts the kernels
// stream: per 4-output-channel group [tap][4] for the forward, and per
// 4-input-channel group [(ky,kx)][outC][4] for the input gradient. Call
// it whenever the weights change, before Forward or InputGrad.
func (p *ConvS1) PackWeights(w []float32) {
	ckk, kk, outC := p.ckk, p.kk, p.outC
	w = w[:outC*ckk]
	f := p.wFwd
	for g := 0; g < outC; g += 4 {
		for t := 0; t < ckk; t++ {
			for r := 0; r < 4; r++ {
				f[g*ckk+4*t+r] = w[(g+r)*ckk+t]
			}
		}
	}
	b := p.wBwd
	idx := 0
	for cg := 0; cg < p.inC; cg += 4 {
		for t := 0; t < kk; t++ {
			for oc := 0; oc < outC; oc++ {
				for r := 0; r < 4; r++ {
					b[idx] = w[oc*ckk+(cg+r)*kk+t]
					idx++
				}
			}
		}
	}
}

// Forward writes the convolution of the padded image pimg into out
// (outC×oh×ow), bit-identical to Im2Col followed by MatMulInto.
func (p *ConvS1) Forward(pimg, out []float32) {
	oLen, n := p.oLen, p.oh*p.ow
	pimg = pimg[:p.inLen]
	tmp := GetF32(p.outC * oLen)
	for g := 0; g < p.outC; g += 4 {
		convFwdAsm(oLen/16, p.ckk, &p.offs[0], &pimg[0], &p.wFwd[g*p.ckk], &tmp[g*oLen], oLen)
	}
	out = out[:p.outC*n]
	for oc := 0; oc < p.outC; oc++ {
		gatherRows(out[oc*n:(oc+1)*n], tmp[oc*oLen:(oc+1)*oLen], p.oh, p.ow, p.wp)
	}
	PutF32(tmp)
}

// InputGrad writes the input gradient of the output gradient g
// (outC×oh×ow) into dst (inC×h×w), bit-identical to MatMulATBInto of
// the weights and g followed by Col2Im into a zeroed dst.
func (p *ConvS1) InputGrad(g, dst []float32) {
	n, hw := p.oh*p.ow, p.h*p.w
	gp := GetF32(p.outC * p.gPlane)
	for oc := 0; oc < p.outC; oc++ {
		spreadRows(gp[oc*p.gPlane:(oc+1)*p.gPlane], p.gMargin, g[oc*n:(oc+1)*n], p.oh, p.ow, p.wp)
	}
	dp := GetF32Zeroed(p.inC * p.dLen)
	grp := p.kk * p.outC * 4
	for cg := 0; cg < p.inC; cg += 4 {
		convBwdDataAsm(p.dLen/16, p.kk, p.outC, &p.gOffs[0], &gp[0], p.gPlane,
			&p.wBwd[(cg/4)*grp], &dp[cg*p.dLen], p.dLen)
	}
	dst = dst[:p.inC*hw]
	for ch := 0; ch < p.inC; ch++ {
		gatherRows(dst[ch*hw:(ch+1)*hw], dp[ch*p.dLen+p.pad:(ch+1)*p.dLen], p.h, p.w, p.wp)
	}
	PutF32(dp)
	PutF32(gp)
}

// WeightGrad writes g·colᵀ for one image into dw (outC×inC·kh·kw),
// bit-identical to Im2Col followed by MatMulABTInto: g is the output
// gradient (outC×oh×ow) and pimg the PadInput copy of the image.
func (p *ConvS1) WeightGrad(g, pimg, dw []float32) {
	n, ckk := p.oh*p.ow, p.ckk
	pimg = pimg[:p.inLen]
	dw = dw[:p.outC*ckk]
	if p.dotWGrad {
		var acc [4]float32
		for oc := 0; oc < p.outC; oc += 4 {
			for t := 0; t < ckk; t++ {
				convWGradDotAsm(n/16, &p.segs[0], &pimg[p.offs[t]], &g[oc*n], n, &acc[0])
				dw[oc*ckk+t] = acc[0]
				dw[(oc+1)*ckk+t] = acc[1]
				dw[(oc+2)*ckk+t] = acc[2]
				dw[(oc+3)*ckk+t] = acc[3]
			}
		}
		return
	}

	// Packed-kernel order: gemm zeroes C, then adds each gemmKC slab's
	// single FMA chain in slab order. Lanes are 16 output channels of
	// the transposed gradient gt[s][16], broadcasts are 6 taps.
	clear(dw)
	gt := GetF32(n * 16)
	var offs [6]int
	var tile [6 * 16]float32
	for og := 0; og < p.outC; og += 16 {
		lanes := min(16, p.outC-og)
		for s := 0; s < n; s++ {
			row := gt[s*16 : s*16+16]
			for j := 0; j < lanes; j++ {
				row[j] = g[(og+j)*n+s]
			}
			clear(row[lanes:])
		}
		for t0 := 0; t0 < ckk; t0 += 6 {
			taps := min(6, ckk-t0)
			for r := range offs {
				offs[r] = p.offs[t0+min(r, taps-1)]
			}
			for y0 := 0; y0 < p.oh; y0 += p.slabRows {
				rows := min(p.slabRows, p.oh-y0)
				convWGradSeqAsm(rows, p.ow, p.wp-p.ow, &pimg[y0*p.wp], &offs, &gt[y0*p.ow*16], &tile[0])
				for r := 0; r < taps; r++ {
					for j := 0; j < lanes; j++ {
						dw[(og+j)*ckk+t0+r] += tile[r*16+j]
					}
				}
			}
		}
	}
	PutF32(gt)
}
