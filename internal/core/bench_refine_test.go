package core

import (
	"testing"

	"rowhammer/internal/data"
	"rowhammer/internal/models"
	"rowhammer/internal/nn"
	"rowhammer/internal/quant"
	"rowhammer/internal/tensor"
)

// driftVictim perturbs a deterministic pseudo-random subset of the
// model's float weights off the quantization grid, simulating the
// accumulated masked sign-SGD drift enforceConstraints sees at an
// enforcement step.
func driftVictim(q *quant.Quantizer, model *nn.Model, n int) {
	params := model.Params()
	offs := paramOffsets(params)
	nw := q.NumWeights()
	for k := 0; k < n; k++ {
		idx := int(uint32(k*2654435761+12345) % uint32(nw))
		pi := 0
		for pi < len(offs)-1 && offs[pi+1] <= idx {
			pi++
		}
		p := params[pi]
		inner := idx - offs[pi]
		step := float32(1+k%3) * q.Scale(pi)
		if k%2 == 0 {
			p.W.Data()[inner] += step
		} else {
			p.W.Data()[inner] -= step
		}
	}
}

// refineFixture assembles the enforcement-step workload shared by the
// full-forward and suffix-scorer benchmark variants: a quantized
// resnet20 victim, a 16-image refinement batch with stamped trigger, and
// the blended lossFn on the int8 engine. The drift fixture and batch
// match the committed pre-PR baseline (BenchmarkRefinementPrePR in
// BENCH_offline_baseline.json) so the before/after numbers compare the
// same logical work.
type refineFixture struct {
	m       *nn.Model
	q       *quant.Quantizer
	qm      *quant.QModel
	orig    []int8
	groups  [][2]int
	cfg     Config
	lossFn  func() float32
	targets []int
	batch   *tensorBatch
}

func newRefineFixture(b *testing.B) *refineFixture {
	b.Helper()
	m, err := models.Build(models.Config{Arch: "resnet20", Classes: 10, WidthMult: 0.25, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	nn.FreezeBatchNorm(m.Root)
	q := quant.NewQuantizer(m)
	qm := quant.NewQModel(q)

	dcfg := data.SynthCIFAR(0, 21)
	dcfg.Samples = 16
	set := data.Synthesize(dcfg, 42)
	imgs := set.Batches(16)[0]
	batch := &tensorBatch{
		clean:  imgs.Images,
		trig:   imgs.Images.Clone(),
		labels: imgs.Labels,
	}
	batch.stamp(data.NewSquareTrigger(3, 32, 32, 10))
	targets := make([]int, 16)
	for i := range targets {
		targets[i] = 2
	}

	// One group per 4 KB page: the w0.25 weight file spans 5 pages, so
	// NFlip=5 yields the same 5-group partition the pre-PR baseline
	// measured (its NFlip=8 was clamped to the page count by the old
	// geometry).
	cfg := DefaultConfig(5, 2)
	cfg.RefineCandidates = 3
	groups, err := groupBounds(q.NumWeights(), cfg.NFlip)
	if err != nil {
		b.Fatal(err)
	}

	fwd := func(x *tensor.Tensor) *tensor.Tensor { return qm.Forward(x) }
	lossFn := func() float32 {
		return blendedLoss(fwd, batch, targets, cfg.Alpha)
	}
	return &refineFixture{
		m: m, q: q, qm: qm,
		orig:    q.Codes(),
		groups:  groups,
		cfg:     cfg,
		lossFn:  lossFn,
		targets: targets,
		batch:   batch,
	}
}

// BenchmarkRefinement measures one constraint-enforcement step
// (Requantize + Bit Reduction + greedy coordinate descent over the
// groups): "full" scores every option with full forward passes, the
// pre-PR behavior; "suffix" runs the incremental suffix scorer at
// several worker bounds. Byte-identical outputs, different wall-clock.
func BenchmarkRefinement(b *testing.B) {
	b.Run("full", func(b *testing.B) {
		f := newRefineFixture(b)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			driftVictim(f.q, f.m, 64)
			b.StartTimer()
			enforceConstraints(f.q, f.orig, f.groups, f.cfg, f.lossFn, nil)
		}
	})
	for _, w := range []int{1, 4} {
		w := w
		b.Run("suffix/workers"+string(rune('0'+w)), func(b *testing.B) {
			f := newRefineFixture(b)
			defer tensor.SetMaxWorkers(tensor.SetMaxWorkers(w))
			scorer := quant.NewScorer(f.qm, f.batch.clean, f.batch.trig,
				f.batch.labels, f.targets, f.cfg.Alpha)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				driftVictim(f.q, f.m, 64)
				b.StartTimer()
				enforceConstraints(f.q, f.orig, f.groups, f.cfg, f.lossFn, scorer)
			}
		})
	}
}
