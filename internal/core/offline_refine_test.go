package core

import (
	"runtime"
	"testing"

	"rowhammer/internal/data"
	"rowhammer/internal/models"
	"rowhammer/internal/tensor"
)

// runOfflineRefine executes a short RunOffline with the given refinement
// knobs (mutate adjusts the config before the run) against a fixed
// victim and attack set, for byte-comparing refinement variants.
func runOfflineRefine(t *testing.T, mutate func(*Config)) *Result {
	t.Helper()
	m, err := models.Build(models.Config{Arch: "resnet20", Classes: 10, WidthMult: 0.25, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	dcfg := data.SynthCIFAR(0, 21)
	dcfg.Samples = 16
	attackSet := data.Synthesize(dcfg, 99)

	cfg := DefaultConfig(3, 2)
	cfg.Iterations = 4
	cfg.BitReduceEvery = 2
	cfg.RefineBatch = 8
	cfg.TrainShards = 4
	if mutate != nil {
		mutate(&cfg)
	}
	out, err := RunOffline(m, attackSet, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func compareResults(t *testing.T, label string, base, out *Result) {
	t.Helper()
	if out.NFlip != base.NFlip {
		t.Fatalf("%s: NFlip %d != %d", label, out.NFlip, base.NFlip)
	}
	if len(out.BackdooredCodes) != len(base.BackdooredCodes) {
		t.Fatalf("%s: code vector length mismatch", label)
	}
	for i := range out.BackdooredCodes {
		if out.BackdooredCodes[i] != base.BackdooredCodes[i] {
			t.Fatalf("%s: code %d differs: %d != %d", label, i, out.BackdooredCodes[i], base.BackdooredCodes[i])
		}
	}
	if len(out.LossHistory) != len(base.LossHistory) {
		t.Fatalf("%s: loss history length mismatch", label)
	}
	for i := range out.LossHistory {
		if out.LossHistory[i] != base.LossHistory[i] {
			t.Fatalf("%s: loss[%d] %v != %v", label, i, out.LossHistory[i], base.LossHistory[i])
		}
	}
}

// TestRefinementSuffixMatchesFullForward pins the suffix scorer's
// end-to-end contract: the attack output with incremental suffix scoring
// must be byte-identical to the FullForwardRefine reference path at any
// kernel parallelism bound. Raising GOMAXPROCS makes the multi-worker
// runs genuinely concurrent even on a single-CPU machine.
func TestRefinementSuffixMatchesFullForward(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	ref := runOfflineRefine(t, func(c *Config) { c.FullForwardRefine = true })
	if ref.NFlip == 0 {
		t.Fatal("fixture applied no flips; the comparison would be vacuous")
	}
	for _, w := range []int{1, 2, 4} {
		prev := tensor.SetMaxWorkers(w)
		out := runOfflineRefine(t, nil)
		tensor.SetMaxWorkers(prev)
		compareResults(t, "suffix workers="+string(rune('0'+w)), ref, out)
	}
}

// TestRefinementSuffixWithForbiddenMask repeats the reference/suffix
// comparison with the RADAR-adaptive MSB mask, which routes every
// candidate through BitReduceMasked and shifts the kept codes.
func TestRefinementSuffixWithForbiddenMask(t *testing.T) {
	ref := runOfflineRefine(t, func(c *Config) {
		c.FullForwardRefine = true
		c.ForbiddenBitMask = 0x80
	})
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	defer tensor.SetMaxWorkers(tensor.SetMaxWorkers(2))
	out := runOfflineRefine(t, func(c *Config) { c.ForbiddenBitMask = 0x80 })
	compareResults(t, "masked suffix", ref, out)
}
