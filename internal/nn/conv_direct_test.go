package nn

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"rowhammer/internal/tensor"
)

// convIm2ColRef runs one forward+backward of c through the Im2Col + GEMM
// lowering, with the layer's chunked weight-gradient accumulation (first
// image straight into the chunk slot, later ones added via scratch,
// slots tree-reduced in index order). It returns the output, the input
// gradient and fresh weight and bias gradients.
func convIm2ColRef(c *Conv2D, x, grad *tensor.Tensor) (out, gin, gw, gb []float32) {
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	oh, ow := c.OutSize(h, w)
	ckk, hw := c.inC*c.kh*c.kw, oh*ow
	imgLen, outLen := c.inC*h*w, c.outC*hw
	wMat := c.Weight.W.Reshape(c.outC, ckk)

	col := tensor.New(ckk, hw)
	cols := make([]*tensor.Tensor, n)
	out = make([]float32, n*outLen)
	for i := 0; i < n; i++ {
		tensor.Im2Col(x.Data()[i*imgLen:(i+1)*imgLen], c.inC, h, w, c.kh, c.kw, c.stride, c.pad, col.Data())
		cols[i] = col.Clone()
		o := tensor.FromSlice(out[i*outLen:(i+1)*outLen], c.outC, hw)
		tensor.MatMulInto(o, wMat, col)
		c.addBias(o.Data(), hw)
	}

	chunks := convBwdChunks(n)
	slots := make([][]float32, chunks)
	bslots := make([][]float32, chunks)
	gin = make([]float32, n*imgLen)
	gradCol := tensor.New(ckk, hw)
	tmp := tensor.New(c.outC, ckk)
	for idx := 0; idx < chunks; idx++ {
		lo, hi := idx*n/chunks, (idx+1)*n/chunks
		slot := tensor.New(c.outC, ckk)
		bslots[idx] = make([]float32, c.outC)
		for i := lo; i < hi; i++ {
			g := tensor.FromSlice(grad.Data()[i*outLen:(i+1)*outLen], c.outC, hw)
			if i == lo {
				tensor.MatMulABTInto(slot, g, cols[i])
			} else {
				tensor.MatMulABTInto(tmp, g, cols[i])
				slot.AddScaled(tmp, 1)
			}
			tensor.MatMulATBInto(gradCol, wMat, g)
			tensor.Col2Im(gradCol.Data(), c.inC, h, w, c.kh, c.kw, c.stride, c.pad, gin[i*imgLen:(i+1)*imgLen])
			c.accBiasGrad(bslots[idx], g.Data(), hw)
		}
		slots[idx] = slot.Data()
	}
	gw = make([]float32, c.outC*ckk)
	tensor.TreeReduceInto(gw, slots)
	if c.Bias != nil {
		gb = make([]float32, c.outC)
		tensor.TreeReduceInto(gb, bslots)
	}
	return out, gin, gw, gb
}

func requireSameBits(t *testing.T, label string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: elem %d = %v (%#08x), im2col reference %v (%#08x)", label, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// convTestData fills x and grad with normal values, sprinkling in
// signed zeros, products small enough to underflow, and large values
// every few elements: with magnitudes that far apart, any change to
// the order taps or chunks are summed in changes the rounded result.
func convTestData(rng *tensor.RNG, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	rng.FillNormal(t, 0, 1)
	d := t.Data()
	for i := range d {
		switch i % 11 {
		case 2:
			d[i] = float32(math.Copysign(0, float64(d[i])))
		case 5:
			d[i] *= 1e-25
		case 8:
			d[i] *= 1e6
		}
	}
	return t
}

// checkConvAgainstIm2Col runs one fresh layer's forward and backward at
// each worker bound and byte-compares every result with the im2col
// reference. wantDirect asserts which path the layer takes.
func checkConvAgainstIm2Col(t *testing.T, inC, outC, hw, batch int, bias, wantDirect bool, workers []int) {
	t.Helper()
	label := fmt.Sprintf("in%d out%d %dx%d n%d bias=%v", inC, outC, hw, hw, batch, bias)
	rng := tensor.NewRNG(int64(inC*1000 + outC*100 + hw*10 + batch))
	c := NewConv2D("t", rng, inC, outC, 3, 1, 1, bias)
	if bias {
		rng.FillNormal(c.Bias.W, 0, 1)
	}
	if direct := c.plan(hw, hw) != nil; direct != wantDirect {
		t.Fatalf("%s: direct plan %v, want %v", label, direct, wantDirect)
	}
	x := convTestData(rng, batch, inC, hw, hw)
	grad := convTestData(rng, batch, outC, hw, hw)
	wantOut, wantGin, wantGW, wantGB := convIm2ColRef(c, x, grad)
	for _, wk := range workers {
		prev := tensor.SetMaxWorkers(wk)
		c.Weight.G.Zero()
		if bias {
			c.Bias.G.Zero()
		}
		out := c.Forward(x, true)
		gin := c.Backward(grad)
		tensor.SetMaxWorkers(prev)
		l := fmt.Sprintf("%s workers=%d", label, wk)
		requireSameBits(t, l+" forward", out.Data(), wantOut)
		requireSameBits(t, l+" gradIn", gin.Data(), wantGin)
		requireSameBits(t, l+" Weight.G", c.Weight.G.Data(), wantGW)
		if bias {
			requireSameBits(t, l+" Bias.G", c.Bias.G.Data(), wantGB)
		}
	}
}

// TestConv2DDirectMatchesIm2Col is the bit-exactness contract of the
// direct stride-1 path: on every gated shape — the victim ResNet-20's
// stage shapes and their neighbours — the forward output, input
// gradient and parameter gradients equal the Im2Col + GEMM lowering's
// bit for bit, at 1, 2 and 4 workers.
func TestConv2DDirectMatchesIm2Col(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	direct := tensor.NewConvS1(4, 4, 8, 8, 3, 3, 1) != nil
	if !direct {
		t.Log("no AVX2/FMA: every shape takes the Im2Col path")
	}
	chans := []int{4, 8, 12, 16}
	batches := []int{1, 3, 32}
	if testing.Short() {
		batches = []int{3}
	}
	for _, inC := range chans {
		for _, outC := range chans {
			for _, hw := range []int{8, 16, 32} {
				for _, batch := range batches {
					bias := (inC+outC+hw+batch)%2 == 0
					checkConvAgainstIm2Col(t, inC, outC, hw, batch, bias, direct, []int{1, 2, 4})
					checkConvAgainstIm2Col(t, inC, outC, hw, batch, !bias, direct, []int{2})
				}
			}
		}
	}
}

// TestConv2DPortableMatchesIm2Col forces the portable kernels: no shape
// gets a direct plan, and the layer still matches the lowering computed
// on the same portable GEMM.
func TestConv2DPortableMatchesIm2Col(t *testing.T) {
	defer tensor.ForcePortable()()
	for _, s := range [][3]int{{4, 4, 32}, {8, 8, 16}, {16, 16, 8}, {12, 4, 16}} {
		checkConvAgainstIm2Col(t, s[0], s[1], s[2], 3, s[0] == 12, false, []int{1, 2})
	}
}
