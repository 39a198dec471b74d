package main

import (
	"fmt"
	"time"

	"rowhammer/internal/data"
	"rowhammer/internal/models"
	"rowhammer/internal/nn"
	"rowhammer/internal/quant"
	"rowhammer/internal/tensor"
)

const (
	probeBatch = 32 // the victim's training batch size
	probeSteps = 12
	probeWarm  = 2
)

// layerClock accumulates forward and backward time per layer kind over
// one training step.
type layerClock struct {
	fwd, bwd map[string]time.Duration
	convs    []convShape
}

type convShape struct{ inC, outC, k, stride, pad, h, w int }

// timedLayer wraps one leaf layer of the probe model and charges its
// Forward and Backward time to its kind.
type timedLayer struct {
	inner nn.Layer
	kind  string
	clock *layerClock
	seen  bool
}

func (l *timedLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if c, ok := l.inner.(*nn.Conv2D); ok && !l.seen {
		inC, outC, kh, _, stride, pad := c.Geom()
		l.clock.convs = append(l.clock.convs, convShape{inC, outC, kh, stride, pad, x.Dim(2), x.Dim(3)})
		l.seen = true
	}
	t0 := time.Now()
	y := l.inner.Forward(x, train)
	l.clock.fwd[l.kind] += time.Since(t0)
	return y
}

func (l *timedLayer) Backward(g *tensor.Tensor) *tensor.Tensor {
	t0 := time.Now()
	y := l.inner.Backward(g)
	l.clock.bwd[l.kind] += time.Since(t0)
	return y
}

func (l *timedLayer) Params() []*nn.Param { return l.inner.Params() }

func kindOf(l nn.Layer) string {
	switch l.(type) {
	case *nn.Conv2D:
		return "conv"
	case *nn.BatchNorm2D:
		return "bn"
	case *nn.ReLU:
		return "relu"
	case *nn.Linear:
		return "linear"
	}
	return ""
}

// wrapLeaves replaces every conv, batch-norm, ReLU and linear leaf of
// the graph with a timedLayer. The ReLU inside each residual join is
// not a leaf and stays untimed.
func wrapLeaves(l nn.Layer, clock *layerClock) {
	switch v := l.(type) {
	case *nn.Sequential:
		ls := v.Layers()
		for i, c := range ls {
			if k := kindOf(c); k != "" {
				ls[i] = &timedLayer{inner: c, kind: k, clock: clock}
			} else {
				wrapLeaves(c, clock)
			}
		}
	case *nn.Residual:
		wrapLeaves(v.Main, clock)
		if v.Shortcut != nil {
			wrapLeaves(v.Shortcut, clock)
		}
	}
}

// probeLayers measures, per training step at the victim's shapes, the
// trainer step, each nn layer kind's forward and backward, and the
// tensor kernels a conv step calls, plus the int8 batch forward. Each
// figure is the median over probeSteps steps after probeWarm warm-up
// steps. The probe inputs come from the seed.
func probeLayers(seed int64, qm *quant.QModel, test *data.Dataset, res *result) error {
	ds := data.Synthesize(data.SynthCIFAR(probeBatch, seed), seed)
	x, labels := batchOf(ds, probeBatch)
	mcfg := models.Config{Arch: victimArch, Classes: 10, WidthMult: victimWidth, Seed: seed}

	m, err := models.Build(mcfg)
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	trainer := nn.NewTrainer(m, 0)
	opt := nn.NewSGD(m.Params(), 0.05, 0.9, 0)
	var steps []float64
	for i := 0; i < probeWarm+probeSteps; i++ {
		t0 := time.Now()
		m.ZeroGrad()
		trainer.ForwardBackward(x, labels, 1)
		opt.Step()
		if i >= probeWarm {
			steps = append(steps, ms(time.Since(t0)))
		}
	}
	res.set("nn.step_ms", median(steps))

	wm, err := models.Build(mcfg)
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	clock := &layerClock{}
	wrapLeaves(wm.Root, clock)
	per := map[string][]float64{}
	for i := 0; i < probeWarm+probeSteps; i++ {
		clock.fwd, clock.bwd = map[string]time.Duration{}, map[string]time.Duration{}
		wm.ZeroGrad()
		logits := wm.Forward(x, true)
		_, grad := nn.CrossEntropy(logits, labels, 1)
		wm.Backward(grad)
		if i < probeWarm {
			continue
		}
		for _, k := range []string{"conv", "bn", "relu", "linear"} {
			per["nn."+k+".fwd_ms"] = append(per["nn."+k+".fwd_ms"], ms(clock.fwd[k]))
			per["nn."+k+".bwd_ms"] = append(per["nn."+k+".bwd_ms"], ms(clock.bwd[k]))
		}
	}
	for name, v := range per {
		res.set(name, median(v))
	}

	im2col, col2im, gemm := probeConvKernels(clock.convs, seed)
	res.set("tensor.im2col_ms", im2col)
	res.set("tensor.col2im_ms", col2im)
	res.set("tensor.gemm_ms", gemm)

	qx, _ := batchOf(test, probeBatch)
	var fw []float64
	for i := 0; i < probeWarm+3*probeSteps; i++ {
		t0 := time.Now()
		qm.Forward(qx)
		if i >= probeWarm {
			fw = append(fw, ms(time.Since(t0)))
		}
	}
	res.set("quant.forward_ms_b32", median(fw))
	return nil
}

// probeConvKernels times, per training step of probeBatch images, the
// public tensor kernels a conv layer's forward and backward call at
// every conv shape of the victim: Im2Col, the forward GEMM W·col, the
// weight-gradient GEMM grad·colᵀ, the input-gradient GEMM Wᵀ·grad, and
// Col2Im. It returns the medians in ms.
func probeConvKernels(convs []convShape, seed int64) (im2col, col2im, gemm float64) {
	rng := tensor.NewRNG(seed)
	fill := func(t *tensor.Tensor) *tensor.Tensor {
		d := t.Data()
		for i := range d {
			d[i] = float32(rng.NormFloat64())
		}
		return t
	}
	type bufs struct {
		img, col, w, out, gw, gcol, gimg *tensor.Tensor
		s                                convShape
		oh, ow                           int
	}
	var bs []bufs
	for _, s := range convs {
		oh := (s.h+2*s.pad-s.k)/s.stride + 1
		ow := (s.w+2*s.pad-s.k)/s.stride + 1
		kk := s.inC * s.k * s.k
		bs = append(bs, bufs{
			img:  fill(tensor.New(s.inC, s.h, s.w)),
			col:  tensor.New(kk, oh*ow),
			w:    fill(tensor.New(s.outC, kk)),
			out:  fill(tensor.New(s.outC, oh*ow)),
			gw:   tensor.New(s.outC, kk),
			gcol: tensor.New(kk, oh*ow),
			gimg: tensor.New(s.inC, s.h, s.w),
			s:    s, oh: oh, ow: ow,
		})
	}
	var ti, tc, tg []float64
	for step := 0; step < probeWarm+probeSteps; step++ {
		var di, dc, dg time.Duration
		for _, b := range bs {
			s := b.s
			for n := 0; n < probeBatch; n++ {
				t0 := time.Now()
				tensor.Im2Col(b.img.Data(), s.inC, s.h, s.w, s.k, s.k, s.stride, s.pad, b.col.Data())
				t1 := time.Now()
				tensor.MatMulInto(b.out, b.w, b.col)
				tensor.MatMulABTInto(b.gw, b.out, b.col)
				tensor.MatMulATBInto(b.gcol, b.w, b.out)
				t2 := time.Now()
				tensor.Col2Im(b.gcol.Data(), s.inC, s.h, s.w, s.k, s.k, s.stride, s.pad, b.gimg.Data())
				t3 := time.Now()
				di += t1.Sub(t0)
				dg += t2.Sub(t1)
				dc += t3.Sub(t2)
			}
		}
		if step >= probeWarm {
			ti, tc, tg = append(ti, ms(di)), append(tc, ms(dc)), append(tg, ms(dg))
		}
	}
	return median(ti), median(tc), median(tg)
}
