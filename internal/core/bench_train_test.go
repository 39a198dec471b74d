package core

import (
	"fmt"
	"testing"

	"rowhammer/internal/data"
	"rowhammer/internal/models"
	"rowhammer/internal/nn"
	"rowhammer/internal/tensor"
)

// BenchmarkTrainStep measures one batch-32 ResNet-20 forward+backward —
// the unit of work Algorithm 1 repeats hundreds of times — on the
// direct single-graph path and on the data-parallel trainer at one and
// four workers. Allocation counts are the headline: the trainer path
// reuses every buffer after warmup.
func BenchmarkTrainStep(b *testing.B) {
	x := tensor.New(32, 3, 32, 32)
	tensor.NewRNG(1).FillNormal(x, 0, 1)
	labels := make([]int, 32)

	buildVictim := func() *nn.Model {
		m, err := models.Build(models.Config{Arch: "resnet20", Classes: 10, WidthMult: 0.25, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		nn.FreezeBatchNorm(m.Root)
		return m
	}

	b.Run("direct", func(b *testing.B) {
		m := buildVictim()
		// Two warmup steps populate the layer scratch caches so short
		// runs report steady-state allocations, not first-call setup.
		for i := 0; i < 2; i++ {
			m.ZeroGrad()
			out := m.Forward(x, true)
			_, grad := nn.CrossEntropy(out, labels, 1)
			m.Backward(grad)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.ZeroGrad()
			out := m.Forward(x, true)
			_, grad := nn.CrossEntropy(out, labels, 1)
			m.Backward(grad)
		}
	})

	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("trainer_workers%d", workers), func(b *testing.B) {
			m := buildVictim()
			defer tensor.SetMaxWorkers(tensor.SetMaxWorkers(workers))
			tr := nn.NewTrainer(m, 4)
			for i := 0; i < 2; i++ {
				m.ZeroGrad()
				tr.ForwardBackward(x, labels, 1)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.ZeroGrad()
				tr.ForwardBackward(x, labels, 1)
			}
		})
	}
}

// BenchmarkOfflineAttack is the full RunOffline wall-clock at the
// reference settings (w0.25 ResNet-20, 100 iterations, 64 attack
// images) — the number EXPERIMENTS.md quotes. One op is one complete
// attack, so the benchmark self-terminates after a single iteration at
// the default -benchtime.
func BenchmarkOfflineAttack(b *testing.B) {
	dcfg := data.SynthCIFAR(0, 21)
	dcfg.Samples = 64
	attackSet := data.Synthesize(dcfg, 42)

	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("w025_workers%d", workers), func(b *testing.B) {
			cfg := DefaultConfig(5, 2)
			cfg.Iterations = 100
			cfg.TrainShards = 4
			defer tensor.SetMaxWorkers(tensor.SetMaxWorkers(workers))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m, err := models.Build(models.Config{Arch: "resnet20", Classes: 10, WidthMult: 0.25, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := RunOffline(m, attackSet, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
