package nn

import (
	"testing"

	"rowhammer/internal/tensor"
)

// Conv2D hot-path benchmarks at ResNet-20-representative geometry. Run
// with -benchmem: the headline number next to ns/op is allocs/op —
// the pooled scratch buffers (im2col columns, gradient panels) must
// keep steady-state allocation near zero.
//
//	go test -bench Conv2D -benchmem ./internal/nn/...

func benchConvSetup(b *testing.B) (*Conv2D, *tensor.Tensor) {
	rng := tensor.NewRNG(3)
	conv := NewConv2D("bench", rng, 16, 16, 3, 1, 1, false)
	x := tensor.New(8, 16, 32, 32)
	rng.FillNormal(x, 0, 1)
	return conv, x
}

func BenchmarkConv2DForward(b *testing.B) {
	conv, x := benchConvSetup(b)
	defer tensor.SetMaxWorkers(tensor.SetMaxWorkers(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.Forward(x, true)
	}
}

func BenchmarkConv2DBackward(b *testing.B) {
	conv, x := benchConvSetup(b)
	defer tensor.SetMaxWorkers(tensor.SetMaxWorkers(1))
	out := conv.Forward(x, true)
	grad := out.Clone()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.Weight.G.Zero()
		conv.Backward(grad)
	}
}

func BenchmarkLinearForwardBackward(b *testing.B) {
	rng := tensor.NewRNG(3)
	lin := NewLinear("bench", rng, 256, 10)
	x := tensor.New(32, 256)
	rng.FillNormal(x, 0, 1)
	prev := tensor.SetMaxWorkers(1)
	defer tensor.SetMaxWorkers(prev)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		y := lin.Forward(x, true)
		lin.Backward(y)
	}
}
