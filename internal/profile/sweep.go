package profile

import (
	"fmt"

	"rowhammer/internal/memsys"
	"rowhammer/internal/tensor"
)

// SweepTarget names one attacker buffer to template: the system that
// owns the DRAM, the attacker process, and the buffer's base/length.
// Targets must not share mutable state — in practice each target is its
// own module (a multi-DIMM templating campaign), which is what makes
// the sweep embarrassingly parallel.
type SweepTarget struct {
	Sys      *memsys.System
	Attacker *memsys.Process
	BufBase  int
	BufPages int
}

// ProfileSweep templates every target, sharding the phase-colored
// engine one level up: targets fan out across the worker pool, and each
// target's own experiments fan out again through ProfileBuffer's
// phase-colored scheduling (tensor.ParallelChunks nests cooperatively,
// so the two levels share one pool instead of oversubscribing).
//
// Results are assembled in canonical target order and each per-target
// profile is worker-count-independent, so the sweep output is
// byte-identical at any worker count — the same determinism contract
// ProfileBuffer gives for a single buffer. The first error in canonical
// target order is returned, independent of scheduling.
func ProfileSweep(targets []SweepTarget, cfg Config) ([]*Profile, error) {
	profiles := make([]*Profile, len(targets))
	errs := make([]error, len(targets))
	tensor.ParallelChunks(len(targets), tensor.MaxWorkers(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			t := targets[i]
			profiles[i], errs[i] = ProfileBuffer(t.Sys, t.Attacker, t.BufBase, t.BufPages, cfg)
		}
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("profile: sweep target %d: %w", i, err)
		}
	}
	return profiles, nil
}
