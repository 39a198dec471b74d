package nn

import (
	"math"

	"rowhammer/internal/tensor"
)

// ReLU is the rectified-linear activation.
type ReLU struct {
	outBuf *tensor.Tensor
}

var _ Layer = (*ReLU)(nil)

// NewReLU returns a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	var out *tensor.Tensor
	if train {
		r.outBuf = tensor.Ensure(r.outBuf, x.Shape()...)
		out = r.outBuf
	} else {
		out = tensor.New(x.Shape()...)
	}
	xd := x.Data()
	od := out.Data()[:len(xd)]
	for i, v := range xd {
		// Select on the bits so the compiler emits a conditional move:
		// activation signs are close to random, and a branch here
		// mispredicts about half the time.
		b := math.Float32bits(v)
		if !(v > 0) {
			b = 0
		}
		od[i] = math.Float32frombits(b)
	}
	return out
}

// Backward implements Layer. The gradient is zeroed wherever the last
// training output is not positive: that output is v where v > 0 and +0
// everywhere else (−0 and NaN included), so "output > 0" is exactly the
// forward's "v > 0" and no separate mask is kept. It is applied in
// place — every producer upstream hands this layer a buffer it owns and
// overwrites on its next backward, so the fused zero-allocation form is
// safe (Tap snapshots its gradient precisely because of this).
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	gd := grad.Data()
	for i, v := range r.outBuf.Data()[:len(gd)] {
		b := math.Float32bits(gd[i])
		if !(v > 0) {
			b = 0
		}
		gd[i] = math.Float32frombits(b)
	}
	return grad
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Flatten reshapes (N, C, H, W) to (N, C*H*W).
type Flatten struct {
	lastShape []int
}

var _ Layer = (*Flatten)(nil)

// NewFlatten returns a flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	f.lastShape = append(f.lastShape[:0], x.Shape()...)
	n := x.Dim(0)
	return x.Reshape(n, x.Len()/n)
}

// Backward implements Layer.
func (f *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return grad.Reshape(f.lastShape...)
}

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }
