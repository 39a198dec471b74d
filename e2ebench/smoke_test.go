package main

import "testing"

// heldOutSeed is a seed the benchmark was not tuned on.
const heldOutSeed = 20261017

// TestHeldOutSeedSmoke runs fleet-sweep and serve-under-fire untraced
// and attack-e2e traced, which runs the whole layer suite beside the
// public attack, once on a held-out seed, and
// requires every correctness check to pass and every metric of each run
// to be measured.
func TestHeldOutSeedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a victim twice (about two minutes)")
	}
	for _, c := range []struct {
		wl      string
		seconds float64
		trace   bool
	}{
		{wFleet, 2, false},
		{wServe, 14, false},
		{wAttack, 1, true}, // the public attack too: TrainVictim memoizes, so only once
	} {
		opts := options{seed: heldOutSeed, seconds: c.seconds, trace: c.trace}
		var res *result
		var err error
		if c.trace {
			opts.tr = newTracer()
			res, err = runLayers(opts, c.wl)
		} else {
			for _, w := range workloads {
				if w.name == c.wl {
					res, err = w.run(opts)
				}
			}
		}
		if err != nil {
			t.Fatalf("%s: %v", c.wl, err)
		}
		for _, ch := range res.checks {
			if !ch.ok {
				t.Errorf("%s (trace %v): check %q failed: %s", c.wl, c.trace, ch.name, ch.info)
			}
		}
		if res.attempted < 1 || res.failed != 0 {
			t.Errorf("%s: attempted %d, failed %d", c.wl, res.attempted, res.failed)
		}
		if !c.trace {
			res.set("peak_rss_mb", peakRSSMB())
		}
		for _, m := range wantMetrics(c.trace) {
			if _, ok := res.metrics[m.Name]; !ok {
				t.Errorf("%s (trace %v): metric %s not measured", c.wl, c.trace, m.Name)
			}
		}
	}
}
