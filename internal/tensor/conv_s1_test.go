package tensor

import (
	"fmt"
	"math"
	"testing"
)

// convS1Ref computes one image's forward output, input gradient and
// weight gradient through the Im2Col + GEMM lowering the direct plan
// replaces.
func convS1Ref(img, wts, g []float32, inC, outC, h, w, k, pad int) (out, gin, gw []float32) {
	ckk := inC * k * k
	col := New(ckk, h*w)
	Im2Col(img, inC, h, w, k, k, 1, pad, col.data)
	wm := FromSlice(wts, outC, ckk)
	o := New(outC, h*w)
	MatMulInto(o, wm, col)
	gm := FromSlice(g, outC, h*w)
	gc := New(ckk, h*w)
	MatMulATBInto(gc, wm, gm)
	gin = make([]float32, inC*h*w)
	Col2Im(gc.data, inC, h, w, k, k, 1, pad, gin)
	dw := New(outC, ckk)
	MatMulABTInto(dw, gm, col)
	return o.data, gin, dw.data
}

func sameBits(t *testing.T, label string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d != %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: elem %d: direct %v (%#08x) vs im2col %v (%#08x)", label, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// TestConvS1MatchesIm2Col byte-compares the direct kernels against the
// lowering on every gated ResNet-20-style shape, covering both weight-
// gradient branches (dot product for outC ≤ 8, packed chains beyond)
// and a packed case with several KC slabs. The inputs mix in signed
// zeros and products that underflow to −0, whose rounding depends on
// exactly which additions happen.
func TestConvS1MatchesIm2Col(t *testing.T) {
	if !convS1Available {
		t.Skip("no AVX2/FMA: direct convolution disabled")
	}
	rng := NewRNG(11)
	fill := func(n int, scale float32) []float32 {
		x := New(n)
		rng.FillNormal(x, 0, 1)
		d := x.Data()
		for i := range d {
			switch i % 13 {
			case 3:
				d[i] = float32(math.Copysign(0, float64(d[i])))
			case 7:
				d[i] *= 1e-30
			}
			d[i] *= scale
		}
		return d
	}
	shapes := [][5]int{ // inC, outC, h, k, pad
		{4, 4, 32, 3, 1}, {8, 8, 16, 3, 1}, {16, 16, 8, 3, 1}, {4, 8, 16, 3, 1},
		{8, 16, 8, 3, 1}, {12, 12, 16, 3, 1}, {16, 8, 16, 3, 1}, {16, 16, 32, 3, 1},
		{4, 12, 8, 3, 1}, {16, 32, 8, 1, 0}, {4, 4, 16, 5, 2},
	}
	for _, s := range shapes {
		inC, outC, h, k, pad := s[0], s[1], s[2], s[3], s[4]
		p := NewConvS1(inC, outC, h, h, k, k, pad)
		if p == nil {
			t.Fatalf("%v: no direct plan", s)
		}
		label := fmt.Sprintf("in%d out%d %dx%d k%d dot=%v", inC, outC, h, h, k, p.dotWGrad)
		img := fill(inC*h*h, 1)
		wts := fill(outC*inC*k*k, 0.3)
		g := fill(outC*h*h, 1)
		wantOut, wantGin, wantGW := convS1Ref(img, wts, g, inC, outC, h, h, k, pad)

		p.PackWeights(wts)
		pimg := make([]float32, p.PadLen())
		p.PadInput(img, pimg)
		out := make([]float32, outC*h*h)
		p.Forward(pimg, out)
		sameBits(t, label+" forward", out, wantOut)
		gin := make([]float32, inC*h*h)
		p.InputGrad(g, gin)
		sameBits(t, label+" gradIn", gin, wantGin)
		gw := make([]float32, outC*inC*k*k)
		p.WeightGrad(g, pimg, gw)
		sameBits(t, label+" gradW", gw, wantGW)
	}
}

// TestConvS1Gate pins which shapes get a direct plan.
func TestConvS1Gate(t *testing.T) {
	if !convS1Available {
		if NewConvS1(4, 4, 32, 32, 3, 3, 1) != nil {
			t.Fatal("direct plan without AVX2")
		}
		t.Skip("no AVX2/FMA: direct convolution disabled")
	}
	cases := []struct {
		inC, outC, h, k, pad int
		want                 bool
	}{
		{4, 4, 32, 3, 1, true},
		{16, 16, 8, 3, 1, true},
		{3, 4, 32, 3, 1, false},  // conv1: inC not a multiple of 4
		{4, 6, 32, 3, 1, false},  // outC not a multiple of 4
		{4, 4, 4, 3, 1, false},   // too small: the naive kernels run
		{4, 4, 12, 3, 1, false},  // 144 positions: gemmAxpyB scalar tail
		{32, 32, 8, 3, 1, false}, // forward leaves gemmAxpyB (m, k > 16)
		{4, 16, 24, 3, 1, false}, // packed weight gradient, KC slabs not whole rows
		{16, 32, 8, 1, 0, true},  // 1×1 stride 1 qualifies as well
	}
	for _, c := range cases {
		got := NewConvS1(c.inC, c.outC, c.h, c.h, c.k, c.k, c.pad) != nil
		if got != c.want {
			t.Errorf("NewConvS1(in %d, out %d, %dx%d, k%d pad%d) plan=%v, want %v",
				c.inC, c.outC, c.h, c.h, c.k, c.pad, got, c.want)
		}
	}
}
