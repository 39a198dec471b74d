package nn

import (
	"rowhammer/internal/tensor"
)

// im2colCacheBudget bounds the batch of Im2Col panels a training
// forward on the Im2Col path keeps for the backward weight gradient (in
// bytes). The direct stride-1 path needs no panels. On the victim's
// Im2Col shapes (the 3-channel stem and the stride-2 convs) keeping
// the panels measured faster than lowering every image twice.
const im2colCacheBudget = 16 << 20

// convBwdChunks returns the fixed chunk count for the backward batch
// partition. It depends only on the batch size — never on the worker
// count — so the per-chunk gradient slots and their fixed-order tree
// reduction give bit-identical results at any parallelism level.
func convBwdChunks(n int) int {
	c := n / 2
	if c > 8 {
		c = 8
	}
	if c < 1 {
		c = 1
	}
	return c
}

// Conv2D is a 2-D convolution with square-independent kernel size,
// stride and zero padding. The weight layout is (OutC, InC, KH, KW),
// matching the PyTorch state-dict layout the paper's weight files use.
type Conv2D struct {
	Weight *Param
	Bias   *Param // nil when the layer is bias-free (ResNet convs)

	inC, outC          int
	kh, kw             int
	stride, pad        int
	lastInput          *tensor.Tensor
	lastH, lastW       int
	lastOutH, lastOutW int

	// Steady-state buffers: the output and input-gradient tensors are
	// grow-only per-layer caches (training-mode only for the output, so
	// inference callers may hold results across calls), and the weight
	// matrix views are built once.
	outBuf    *tensor.Tensor
	gradInBuf *tensor.Tensor
	wMat      *tensor.Tensor
	gWMat     *tensor.Tensor

	// direct is the direct stride-1 plan for planH×planW inputs, nil
	// when that geometry takes the Im2Col + GEMM path.
	direct       *tensor.ConvS1
	planH, planW int

	// colCache holds the last training forward's Im2Col panels on the
	// fallback path when the batch fits im2colCacheBudget.
	colCache  []float32
	colCached bool

	fwd *convFwdScratch
	bwd *convBwdScratch
}

// convFwdScratch caches the per-chunk forward tensor headers of the
// Im2Col path (column panel view and output view), rebuilt when the
// batch geometry changes.
type convFwdScratch struct {
	n, h, w int
	colT    []*tensor.Tensor
	dst     []*tensor.Tensor
}

// convBwdScratch caches the per-chunk backward working set — the slot
// buffers the chunk gradients accumulate into and the tensor headers
// the chunk loop rebinds onto pooled storage each call — so a
// steady-state Backward allocates nothing. It is rebuilt whenever the
// batch geometry changes.
type convBwdScratch struct {
	n, h, w  int
	slotBuf  []float32
	biasSlot []float32
	slots    [][]float32
	colT     []*tensor.Tensor
	gradCol  []*tensor.Tensor
	tmpGW    []*tensor.Tensor
	localGW  []*tensor.Tensor
	g        []*tensor.Tensor
}

// biasSlotOf returns chunk idx's bias-gradient slot, nil for a
// bias-free layer.
func (sc *convBwdScratch) biasSlotOf(idx, outC int) []float32 {
	if sc.biasSlot == nil {
		return nil
	}
	return sc.biasSlot[idx*outC : (idx+1)*outC]
}

// bindMat points a cached header at data, creating it on first use.
// Geometry is fixed for a given scratch, so a later call only rebinds
// the storage.
func bindMat(slot **tensor.Tensor, data []float32, r, c int) *tensor.Tensor {
	if *slot == nil {
		*slot = tensor.FromSlice(data, r, c)
	} else {
		(*slot).Rebind(data)
	}
	return *slot
}

var _ Layer = (*Conv2D)(nil)

// NewConv2D constructs a convolution layer with Kaiming-initialized
// weights. Set withBias to false for convolutions followed by batch
// norm.
func NewConv2D(name string, rng *tensor.RNG, inC, outC, k, stride, pad int, withBias bool) *Conv2D {
	w := tensor.New(outC, inC, k, k)
	rng.KaimingNormal(w, inC*k*k)
	c := &Conv2D{
		Weight: NewParam(name+".weight", w),
		inC:    inC, outC: outC,
		kh: k, kw: k,
		stride: stride, pad: pad,
	}
	if withBias {
		c.Bias = NewParam(name+".bias", tensor.New(outC))
	}
	return c
}

// OutSize returns the spatial output size for an input of h×w.
func (c *Conv2D) OutSize(h, w int) (oh, ow int) {
	return (h+2*c.pad-c.kh)/c.stride + 1, (w+2*c.pad-c.kw)/c.stride + 1
}

// weightViews returns the (OutC, InC·KH·KW) matrix views of the weight
// and its gradient, built once (the parameter storage never moves).
func (c *Conv2D) weightViews() (wMat, gWMat *tensor.Tensor) {
	ckk := c.inC * c.kh * c.kw
	if c.wMat == nil {
		c.wMat = c.Weight.W.Reshape(c.outC, ckk)
		c.gWMat = c.Weight.G.Reshape(c.outC, ckk)
	}
	return c.wMat, c.gWMat
}

// plan returns the direct stride-1 plan for h×w inputs, or nil when the
// geometry takes the Im2Col + GEMM path.
func (c *Conv2D) plan(h, w int) *tensor.ConvS1 {
	if c.planH != h || c.planW != w {
		c.planH, c.planW, c.direct = h, w, nil
		if c.stride == 1 {
			c.direct = tensor.NewConvS1(c.inC, c.outC, h, w, c.kh, c.kw, c.pad)
		}
	}
	return c.direct
}

// addBias adds the per-channel bias to one image's output (outC rows
// of hw).
func (c *Conv2D) addBias(out []float32, hw int) {
	if c.Bias == nil {
		return
	}
	for oc, b := range c.Bias.W.Data() {
		row := out[oc*hw : (oc+1)*hw]
		for j := range row {
			row[j] += b
		}
	}
}

// accBiasGrad adds one image's per-channel gradient sums into gb.
func (c *Conv2D) accBiasGrad(gb, g []float32, hw int) {
	if c.Bias == nil {
		return
	}
	for oc := range gb {
		var s float32
		for _, v := range g[oc*hw : (oc+1)*hw] {
			s += v
		}
		gb[oc] += s
	}
}

// Forward implements Layer for input (N, InC, H, W). Stride-1 shapes the
// direct kernels cover convolve a zero-padded copy of each image;
// everything else is lowered image by image through Im2Col and a GEMM.
// Both give the same bytes for the shapes they share.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	oh, ow := c.OutSize(h, w)
	c.lastInput, c.lastH, c.lastW, c.lastOutH, c.lastOutW = x, h, w, oh, ow

	var out *tensor.Tensor
	if train {
		c.outBuf = tensor.Ensure(c.outBuf, n, c.outC, oh, ow)
		out = c.outBuf
	} else {
		out = tensor.New(n, c.outC, oh, ow)
	}
	imgLen := c.inC * h * w
	outLen := c.outC * oh * ow
	chunks := convBwdChunks(n)

	if p := c.plan(h, w); p != nil {
		p.PackWeights(c.Weight.W.Data())
		tensor.ParallelChunksIndexed(n, chunks, tensor.MaxWorkers(), func(_, lo, hi int) {
			pimg := tensor.GetF32(p.PadLen())
			for i := lo; i < hi; i++ {
				od := out.Data()[i*outLen : (i+1)*outLen]
				p.PadInput(x.Data()[i*imgLen:(i+1)*imgLen], pimg)
				p.Forward(pimg, od)
				c.addBias(od, oh*ow)
			}
			tensor.PutF32(pimg)
		})
		return out
	}

	wMat, _ := c.weightViews()
	colLen := tensor.ColBufLen(c.inC, h, w, c.kh, c.kw, c.stride, c.pad)
	c.colCached = train && n*colLen*4 <= im2colCacheBudget
	if c.colCached {
		if cap(c.colCache) < n*colLen {
			c.colCache = make([]float32, n*colLen)
		}
		c.colCache = c.colCache[:n*colLen]
	}
	fs := c.fwd
	if fs == nil || fs.n != n || fs.h != h || fs.w != w {
		fs = &convFwdScratch{
			n: n, h: h, w: w,
			colT: make([]*tensor.Tensor, chunks),
			dst:  make([]*tensor.Tensor, chunks),
		}
		c.fwd = fs
	}
	tensor.ParallelChunksIndexed(n, chunks, tensor.MaxWorkers(), func(idx, lo, hi int) {
		var col []float32
		if !c.colCached {
			col = tensor.GetF32(colLen)
		}
		colT := bindMat(&fs.colT[idx], c.panel(col, lo, colLen), c.inC*c.kh*c.kw, oh*ow)
		dst := bindMat(&fs.dst[idx], out.Data()[lo*outLen:(lo+1)*outLen], c.outC, oh*ow)
		for i := lo; i < hi; i++ {
			img := x.Data()[i*imgLen : (i+1)*imgLen]
			colT.Rebind(c.panel(col, i, colLen))
			tensor.Im2Col(img, c.inC, h, w, c.kh, c.kw, c.stride, c.pad, colT.Data())
			dst.Rebind(out.Data()[i*outLen : (i+1)*outLen])
			tensor.MatMulInto(dst, wMat, colT)
			c.addBias(dst.Data(), oh*ow)
		}
		tensor.PutF32(col)
	})
	return out
}

// panel returns image i's Im2Col panel: its slice of the batch cache
// when the forward kept one, else the pooled per-chunk buffer col.
func (c *Conv2D) panel(col []float32, i, colLen int) []float32 {
	if c.colCached {
		return c.colCache[i*colLen : (i+1)*colLen]
	}
	return col
}

// Backward implements Layer. The batch is partitioned into a fixed
// number of chunks (a function of the batch size only); each chunk
// accumulates its weight-gradient contribution into a private slot and
// the slots are tree-reduced in fixed order, so the result is
// bit-identical at any worker count. Scratch is pooled or layer-cached,
// so the steady state allocates nothing.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	x := c.lastInput
	n, h, w := x.Dim(0), c.lastH, c.lastW
	oh, ow := c.lastOutH, c.lastOutW
	imgLen := c.inC * h * w
	outLen := c.outC * oh * ow
	ckk := c.inC * c.kh * c.kw

	c.gradInBuf = tensor.Ensure(c.gradInBuf, n, c.inC, h, w)
	gradIn := c.gradInBuf
	wMat, gWMat := c.weightViews()

	chunks := convBwdChunks(n)
	slotLen := c.outC * ckk
	sc := c.bwd
	if sc == nil || sc.n != n || sc.h != h || sc.w != w {
		sc = &convBwdScratch{
			n: n, h: h, w: w,
			slotBuf: make([]float32, chunks*slotLen),
			slots:   make([][]float32, chunks),
			colT:    make([]*tensor.Tensor, chunks),
			gradCol: make([]*tensor.Tensor, chunks),
			tmpGW:   make([]*tensor.Tensor, chunks),
			localGW: make([]*tensor.Tensor, chunks),
			g:       make([]*tensor.Tensor, chunks),
		}
		if c.Bias != nil {
			sc.biasSlot = make([]float32, chunks*c.outC)
		}
		c.bwd = sc
	}
	slotBuf := sc.slotBuf
	clear(slotBuf)
	biasSlots := sc.biasSlot
	clear(biasSlots)

	if p := c.plan(h, w); p != nil {
		p.PackWeights(c.Weight.W.Data())
		tensor.ParallelChunksIndexed(n, chunks, tensor.MaxWorkers(), func(idx, lo, hi int) {
			pimg := tensor.GetF32(p.PadLen())
			tmpGW := tensor.GetF32(slotLen)
			localGW := slotBuf[idx*slotLen : (idx+1)*slotLen]
			localGB := sc.biasSlotOf(idx, c.outC)
			for i := lo; i < hi; i++ {
				g := grad.Data()[i*outLen : (i+1)*outLen]
				p.PadInput(x.Data()[i*imgLen:(i+1)*imgLen], pimg)
				// dW_slot += g · colᵀ; the first item writes straight
				// into the slot, later items go via scratch.
				if i == lo {
					p.WeightGrad(g, pimg, localGW)
				} else {
					p.WeightGrad(g, pimg, tmpGW)
					for j, v := range tmpGW {
						localGW[j] += v
					}
				}
				p.InputGrad(g, gradIn.Data()[i*imgLen:(i+1)*imgLen])
				c.accBiasGrad(localGB, g, oh*ow)
			}
			tensor.PutF32(tmpGW)
			tensor.PutF32(pimg)
		})
	} else {
		colLen := tensor.ColBufLen(c.inC, h, w, c.kh, c.kw, c.stride, c.pad)
		tensor.ParallelChunksIndexed(n, chunks, tensor.MaxWorkers(), func(idx, lo, hi int) {
			var col []float32
			if !c.colCached {
				col = tensor.GetF32(colLen)
			}
			colT := bindMat(&sc.colT[idx], c.panel(col, lo, colLen), ckk, oh*ow)
			gradColData := tensor.GetF32(ckk * oh * ow)
			gradCol := bindMat(&sc.gradCol[idx], gradColData, ckk, oh*ow)
			tmpGWData := tensor.GetF32(slotLen)
			tmpGW := bindMat(&sc.tmpGW[idx], tmpGWData, c.outC, ckk)
			localGW := bindMat(&sc.localGW[idx], slotBuf[idx*slotLen:(idx+1)*slotLen], c.outC, ckk)
			g := bindMat(&sc.g[idx], grad.Data()[lo*outLen:(lo+1)*outLen], c.outC, oh*ow)
			localGB := sc.biasSlotOf(idx, c.outC)
			for i := lo; i < hi; i++ {
				colT.Rebind(c.panel(col, i, colLen))
				if !c.colCached {
					img := x.Data()[i*imgLen : (i+1)*imgLen]
					tensor.Im2Col(img, c.inC, h, w, c.kh, c.kw, c.stride, c.pad, col)
				}
				g.Rebind(grad.Data()[i*outLen : (i+1)*outLen])

				// dW_slot += g · colᵀ, as in the direct branch.
				if i == lo {
					tensor.MatMulABTInto(localGW, g, colT)
				} else {
					tensor.MatMulABTInto(tmpGW, g, colT)
					localGW.AddScaled(tmpGW, 1)
				}

				// dCol = Wᵀ · g, scattered back to the input image.
				tensor.MatMulATBInto(gradCol, wMat, g)
				dst := gradIn.Data()[i*imgLen : (i+1)*imgLen]
				clear(dst)
				tensor.Col2Im(gradCol.Data(), c.inC, h, w, c.kh, c.kw, c.stride, c.pad, dst)
				c.accBiasGrad(localGB, g.Data(), oh*ow)
			}
			tensor.PutF32(col)
			tensor.PutF32(gradColData)
			tensor.PutF32(tmpGWData)
		})
	}

	// Fixed-order tree reduction of the chunk slots into the parameter
	// gradients — deterministic regardless of scheduling.
	slots := sc.slots
	for s := range slots {
		slots[s] = slotBuf[s*slotLen : (s+1)*slotLen]
	}
	tensor.TreeReduceInto(gWMat.Data(), slots)
	if c.Bias != nil {
		for s := range slots {
			slots[s] = biasSlots[s*c.outC : (s+1)*c.outC]
		}
		tensor.TreeReduceInto(c.Bias.G.Data(), slots)
	}
	return gradIn
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param {
	if c.Bias != nil {
		return []*Param{c.Weight, c.Bias}
	}
	return []*Param{c.Bias, c.Weight}[1:]
}
