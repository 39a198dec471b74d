package nn

import (
	"runtime"
	"testing"

	"rowhammer/internal/tensor"
)

// trainerGradients runs one trainer step at the given worker count and
// returns the flattened master gradients, the loss, and a copy of the
// input gradient.
func trainerGradients(t *testing.T, seed int64, shards, workers int) ([]float32, float32, []float32) {
	t.Helper()
	defer tensor.SetMaxWorkers(tensor.SetMaxWorkers(workers))

	m := cloneTestModel(seed)
	FreezeBatchNorm(m.Root)
	tr := NewTrainer(m, shards)

	rng := tensor.NewRNG(seed + 100)
	x := tensor.New(8, 2, 8, 8)
	rng.FillNormal(x, 0, 1)
	labels := []int{0, 1, 2, 0, 1, 2, 0, 1}

	m.ZeroGrad()
	loss, inGrad := tr.ForwardBackward(x, labels, 1)

	var grads []float32
	for _, p := range m.Params() {
		grads = append(grads, p.G.Data()...)
	}
	return grads, loss, append([]float32(nil), inGrad.Data()...)
}

// TestTrainerGradientsBitIdenticalAcrossWorkers is the determinism
// contract: with a fixed shard count, the worker count must not change
// a single bit of the accumulated gradients, the loss, or the input
// gradient. This is what makes attack results reproducible across
// machines with different core counts. Raising GOMAXPROCS makes the
// multi-worker runs genuinely concurrent even on a single-CPU machine
// (MaxWorkers clamps to GOMAXPROCS).
func TestTrainerGradientsBitIdenticalAcrossWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	refGrads, refLoss, refIn := trainerGradients(t, 41, 4, 1)
	for _, workers := range []int{2, 4} {
		grads, loss, inGrad := trainerGradients(t, 41, 4, workers)
		if loss != refLoss {
			t.Fatalf("workers=%d: loss %v != %v at 1 worker", workers, loss, refLoss)
		}
		for i := range refGrads {
			if grads[i] != refGrads[i] {
				t.Fatalf("workers=%d: gradient %d differs bitwise (%v vs %v)", workers, i, grads[i], refGrads[i])
			}
		}
		for i := range refIn {
			if inGrad[i] != refIn[i] {
				t.Fatalf("workers=%d: input gradient %d differs bitwise", workers, i)
			}
		}
	}
}

// TestTrainerSingleShardMatchesDirectPath pins the trainer's numerics
// to the plain Model.Forward/CrossEntropy/Model.Backward path: with one
// shard the whole batch runs on one replica in the same order, so every
// result must agree bit for bit.
func TestTrainerSingleShardMatchesDirectPath(t *testing.T) {
	seed := int64(43)
	m := cloneTestModel(seed)
	FreezeBatchNorm(m.Root)
	rng := tensor.NewRNG(seed + 100)
	x := tensor.New(6, 2, 8, 8)
	rng.FillNormal(x, 0, 1)
	labels := []int{2, 1, 0, 2, 1, 0}

	direct := m.Clone()
	direct.ZeroGrad()
	out := direct.Forward(x, true)
	dLoss, grad := CrossEntropy(out, labels, 0.5)
	dIn := direct.Backward(grad)

	tr := NewTrainer(m, 1)
	m.ZeroGrad()
	tLoss, tIn := tr.ForwardBackward(x, labels, 0.5)

	if dLoss != tLoss {
		t.Fatalf("loss %v (direct) != %v (trainer)", dLoss, tLoss)
	}
	dp, tp := direct.Params(), m.Params()
	for i := range dp {
		dg, tg := dp[i].G.Data(), tp[i].G.Data()
		for j := range dg {
			if dg[j] != tg[j] {
				t.Fatalf("param %q grad %d: direct %v != trainer %v", dp[i].Name, j, dg[j], tg[j])
			}
		}
	}
	for i := range dIn.Data() {
		if dIn.Data()[i] != tIn.Data()[i] {
			t.Fatalf("input gradient %d differs bitwise", i)
		}
	}
}

// TestTrainerAccumulatesLikeDirectBackward verifies the two-call
// pattern the attack loop uses (clean term then triggered term without
// an intervening ZeroGrad) sums gradients the same way.
func TestTrainerAccumulatesLikeDirectBackward(t *testing.T) {
	m := cloneTestModel(45)
	FreezeBatchNorm(m.Root)
	tr := NewTrainer(m, 1)
	rng := tensor.NewRNG(46)
	x := tensor.New(4, 2, 8, 8)
	rng.FillNormal(x, 0, 1)
	labels := []int{0, 1, 2, 0}
	target := []int{1, 1, 1, 1}

	direct := m.Clone()
	direct.ZeroGrad()
	out := direct.Forward(x, true)
	_, g1 := CrossEntropy(out, labels, 0.5)
	direct.Backward(g1)
	out = direct.Forward(x, true)
	_, g2 := CrossEntropy(out, target, 0.5)
	direct.Backward(g2)

	m.ZeroGrad()
	tr.ForwardBackward(x, labels, 0.5)
	tr.ForwardBackward(x, target, 0.5)

	dp, tp := direct.Params(), m.Params()
	for i := range dp {
		dg, tg := dp[i].G.Data(), tp[i].G.Data()
		for j := range dg {
			if dg[j] != tg[j] {
				t.Fatalf("param %q accumulated grad %d differs", dp[i].Name, j)
			}
		}
	}
}

// TestTrainerTrainsUnfrozenModel sanity-checks the ghost-batch-norm
// path: sharded training with live batch statistics still learns.
func TestTrainerTrainsUnfrozenModel(t *testing.T) {
	rng := tensor.NewRNG(47)
	net := NewSequential(
		NewConv2D("c", rng, 1, 4, 3, 1, 1, false),
		NewBatchNorm2D("bn", 4),
		NewReLU(),
		NewGlobalAvgPool(),
		NewLinear("fc", rng, 4, 2),
	)
	m := NewModel("tiny", net, 2, [3]int{1, 6, 6})
	tr := NewTrainer(m, 2)
	opt := NewSGD(m.Params(), 0.1, 0.9, 0)

	x := tensor.New(8, 1, 6, 6)
	labels := make([]int, 8)
	for i := 0; i < 8; i++ {
		labels[i] = i % 2
		base := i * 36
		for j := 0; j < 36; j++ {
			if labels[i] == 1 {
				x.Data()[base+j] = float32(j % 3)
			} else {
				x.Data()[base+j] = -float32(j % 2)
			}
		}
	}
	m.ZeroGrad()
	first, _ := tr.ForwardBackward(x, labels, 1)
	opt.Step()
	loss := first
	for i := 0; i < 25; i++ {
		m.ZeroGrad()
		loss, _ = tr.ForwardBackward(x, labels, 1)
		opt.Step()
	}
	if loss >= first {
		t.Fatalf("trainer did not reduce loss: %v -> %v", first, loss)
	}
}

// TestTrainerResyncsAfterWeightMutation mutates master weights between
// steps (as the masked sign-SGD update does) and checks the next step
// sees them.
func TestTrainerResyncsAfterWeightMutation(t *testing.T) {
	m := cloneTestModel(49)
	FreezeBatchNorm(m.Root)
	tr := NewTrainer(m, 2)
	rng := tensor.NewRNG(50)
	x := tensor.New(4, 2, 8, 8)
	rng.FillNormal(x, 0, 1)
	labels := []int{0, 1, 2, 0}

	m.ZeroGrad()
	tr.ForwardBackward(x, labels, 1)

	// An equivalent fresh model with the mutated weights must produce
	// the same gradients as the long-lived trainer after mutation.
	for _, p := range m.Params() {
		p.W.Data()[0] *= 1.5
	}
	m2 := m.Clone()
	tr2 := NewTrainer(m2, 2)
	m2.ZeroGrad()
	loss2, _ := tr2.ForwardBackward(x, labels, 1)

	m.ZeroGrad()
	loss1, _ := tr.ForwardBackward(x, labels, 1)
	if loss1 != loss2 {
		t.Fatalf("stale replica weights: loss %v != fresh-trainer loss %v", loss1, loss2)
	}
	p1, p2 := m.Params(), m2.Params()
	for i := range p1 {
		for j := range p1[i].G.Data() {
			if p1[i].G.Data()[j] != p2[i].G.Data()[j] {
				t.Fatalf("param %q grad differs after weight mutation", p1[i].Name)
			}
		}
	}
}
