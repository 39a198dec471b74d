package main

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"time"

	"rowhammer/internal/data"
	"rowhammer/internal/models"
	"rowhammer/internal/quant"
	"rowhammer/internal/serve"
	"rowhammer/internal/tensor"
)

// Fixed serving parameters, never re-derived per run, so runs on
// different builds offer the same load. On a 2-vCPU Intel Xeon the
// engine at public defaults saturates at about 1300 single-image
// requests/s (a batch of 32 costs ~25 ms; a batch of one ~0.9 ms). The
// rates sit at about 15% and 27% of that: at 450/s the p50 spread
// between runs reached 0.19, at 700/s the p99 spread passed 0.5, and
// 1000/s shed requests.
const (
	serveRateLow   = 200.0 // requests/s
	serveRateHigh  = 350.0 // requests/s
	serveOKLimit   = 50 * time.Millisecond
	stormPeriod    = 4 * time.Millisecond
	stormJitter    = 1 * time.Millisecond
	serveSetups    = 25
	servePoolSize  = 256
	serveProbeReps = 50
	// serveLayerWindow is the length of each rate window in the layer
	// suite: long enough for one 1100-sample chunk at the low rate, so
	// its p99 is supported.
	serveLayerWindow = 6 * time.Second
)

// serveRig is one server over a freshly built, quantized victim-shaped
// engine.
type serveRig struct {
	q     *quant.Quantizer
	qm    *quant.QModel
	srv   *serve.Server
	clean []byte
	pool  [][]float32
	ref   *tensor.Tensor // a pool batch
	refY  []float32      // its clean logits
}

// newServeRig builds the attack-e2e architecture from the seed,
// quantizes it, starts serve.NewServer at public defaults (BatchMax 32,
// Workers 1) and records the clean reference outputs. Training is
// skipped: it does not change the int8 engine's cost.
func newServeRig(seed int64) (*serveRig, error) {
	m, err := models.Build(models.Config{Arch: victimArch, Classes: 10, WidthMult: victimWidth, Seed: seed})
	if err != nil {
		return nil, err
	}
	q := quant.NewQuantizer(m)
	qm := quant.NewQModel(q)
	srv, err := serve.NewServer(qm, serve.Config{Shape: []int{3, 32, 32}})
	if err != nil {
		return nil, err
	}
	ds := data.Synthesize(data.SynthCIFAR(servePoolSize, seed), seed+1)
	rig := &serveRig{q: q, qm: qm, srv: srv, clean: append([]byte(nil), q.WeightFileBytes()...)}
	for i := 0; i < ds.Len(); i++ {
		rig.pool = append(rig.pool, ds.Image(i))
	}
	rig.ref, _ = batchOf(ds, probeBatch)
	rig.refY = append([]float32(nil), qm.Forward(rig.ref).Data()...)
	return rig, nil
}

// servePhase is one fixed-rate open-loop window.
type servePhase struct {
	name    string
	rate    float64
	sent    int
	served  int
	shed    int
	errored int
	lat     []float64 // ms from due time, served requests only
	late    []float64 // generator lateness, ms
	ok      int       // served within serveOKLimit
}

// stormStats records the flip storm's writes.
type stormStats struct {
	writes     int
	dueLat     []float64 // ms from due time until published
	swapMs     []float64 // duration of the Swap call itself
	liveMax    int64
	badSwap    error
	endedClean bool
}

func serveParams(res *result, phaseDur time.Duration) {
	res.param("serve-under-fire: open-loop Poisson, rates low %.0f/s and high %.0f/s for %v each, BatchMax 32, Workers 1, ok limit %v, flip storm every %v±%v alternating apply/revert",
		serveRateLow, serveRateHigh, phaseDur, serveOKLimit, stormPeriod, stormJitter)
}

func runServe(opts options) (*result, error) {
	res := &result{}
	phaseDur := time.Duration(opts.seconds * 0.45 * float64(time.Second))
	serveParams(res, phaseDur)

	var rig *serveRig
	var setups []float64
	for i := 0; i < serveSetups; i++ {
		if rig != nil {
			rig.srv.Close()
		}
		t0 := time.Now()
		var err error
		rig, err = newServeRig(opts.seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.set("setup_s", median(setups))

	phases, storm := serveWindows(rig, opts.seed, phaseDur, nil)
	rig.srv.Close()
	checkServe(res, rig, phases, storm)
	low, high := phases[0], phases[1]
	res.set("op_ms", median(low.lat))
	res.set("outcome_pct", 100*float64(low.ok+high.ok)/float64(low.sent+high.sent))
	return res, nil
}

// checkServe checks a server's windows and storm once it is closed:
// every request accounted for, the storm left the model clean, and no
// epoch leaked.
func checkServe(res *result, rig *serveRig, phases []*servePhase, storms ...*stormStats) {
	for _, ps := range phases {
		res.attempted += ps.sent
		res.failed += ps.shed + ps.errored
		res.checkf(ps.name+": sent = served + shed + failed", ps.sent == ps.served+ps.shed+ps.errored,
			"sent %d, served %d, shed %d, failed %d", ps.sent, ps.served, ps.shed, ps.errored)
		p99, chunks := chunkedP99(ps.lat)
		fmt.Printf("%s: rate %.0f/s sent %d served %d shed %d failed %d p50 %.3fms (n=%d, supports up to p%g) p99 %.3fms (median of %d chunks of %d) gen-late p99 %.3fms\n",
			ps.name, ps.rate, ps.sent, ps.served, ps.shed, ps.errored, median(ps.lat), len(ps.lat), 100*highestSupported(len(ps.lat)),
			p99, chunks, len(ps.lat)/chunks, percentile(ps.late, 0.99))
	}
	for _, st := range storms {
		res.checkf("flip storm: every swap published", st.badSwap == nil, "%d writes, error %v", st.writes, st.badSwap)
		res.checkf("flip storm ended on a revert", st.endedClean, "%d writes", st.writes)
		p99, chunks := chunkedP99(st.dueLat)
		fmt.Printf("storm: %d writes, publish p99 %.3fms from due (median of %d chunks), Swap p50 %.3fms p99 %.3fms, live epochs max %d\n",
			st.writes, p99, chunks, median(st.swapMs), percentile(st.swapMs, 0.99), st.liveMax)
	}
	res.checkf("live epochs back to 1", rig.qm.LiveEpochs() == 1, "LiveEpochs() = %d", rig.qm.LiveEpochs())
	res.checkf("final weight bytes equal the clean file", bytes.Equal(rig.q.WeightFileBytes(), rig.clean), "%d bytes", len(rig.clean))
	after := rig.qm.Forward(rig.ref).Data()
	same := len(after) == len(rig.refY)
	for i := range after {
		if same && math.Float32bits(after[i]) != math.Float32bits(rig.refY[i]) {
			same = false
		}
	}
	res.checkf("post-storm logits bit-identical to clean", same, "%d logits", len(after))
}

// checkTailSupport requires enough samples for each reported p99.
func checkTailSupport(res *result, label string, xs []float64) {
	_, chunks := chunkedP99(xs)
	res.checkf(label+": sample count supports p99", supports(len(xs)/chunks, 0.99),
		"%d samples in %d chunks (p99 needs %d per chunk)", len(xs), chunks, int(math.Ceil(minSamplesBeyond/0.01)))
}

// serveLayers is the serving part of the layer suite: the int8 batch-1
// probe, then untraced and traced windows of fixed length on one
// server. The tails come from the untraced windows, the server and
// storm counters from the traced ones. It returns the traced windows'
// pooled p50 overhead over the untraced ones, in percent.
func serveLayers(opts options, res *result) (float64, error) {
	serveParams(res, serveLayerWindow)
	rig, err := newServeRig(opts.seed)
	if err != nil {
		return 0, fmt.Errorf("set-up: %w", err)
	}
	probe := tensor.New(1, 3, 32, 32)
	copy(probe.Data(), rig.pool[0])
	var fw []float64
	for i := 0; i < serveProbeReps; i++ {
		t0 := time.Now()
		rig.qm.Forward(probe)
		fw = append(fw, ms(time.Since(t0)))
	}
	res.set("quant.forward_ms_b1", median(fw))

	phases, storm := serveWindows(rig, opts.seed, serveLayerWindow, nil)
	snap0 := rig.srv.Stats().Snapshot()
	tphases, tstorm := serveWindows(rig, opts.seed, serveLayerWindow, opts.tr)
	snap1 := rig.srv.Stats().Snapshot()
	rig.srv.Close()
	checkServe(res, rig, append(append([]*servePhase(nil), phases...), tphases...), storm, tstorm)

	low, high := phases[0], phases[1]
	for _, ps := range phases {
		checkTailSupport(res, ps.name, ps.lat)
	}
	checkTailSupport(res, "flip storm", storm.dueLat)
	lowP99, _ := chunkedP99(low.lat)
	highP99, _ := chunkedP99(high.lat)
	swapP99, _ := chunkedP99(storm.dueLat)
	res.set("serve_p50_ms_low", median(low.lat))
	res.set("serve_p50_ms_high", median(high.lat))
	res.set("serve_p99_ms_low", lowP99)
	res.set("serve_p99_ms_high", highP99)
	res.set("swap_p99_ms", swapP99)
	var late []float64
	for _, ps := range tphases {
		late = append(late, ps.late...)
	}
	batches := snap1.Batches - snap0.Batches
	res.set("serve.batches", float64(batches))
	res.set("serve.mean_batch", float64(snap1.Served-snap0.Served)/float64(batches))
	res.set("serve.shed", float64(snap1.Shed-snap0.Shed))
	res.set("serve.gen_late_ms_p99", percentile(late, 0.99))
	res.set("quant.swap_ms_p50", median(tstorm.swapMs))
	res.set("quant.swap_ms_p99", percentile(tstorm.swapMs, 0.99))
	res.set("quant.live_epochs_max", float64(tstorm.liveMax))
	pooled := func(ps []*servePhase) float64 {
		return median(append(append([]float64(nil), ps[0].lat...), ps[1].lat...))
	}
	u, t := pooled(phases), pooled(tphases)
	return 100 * (t - u) / u, nil
}

// serveWindows runs the low-rate then the high-rate window back to back
// while the flip storm writes on its own schedule throughout.
func serveWindows(rig *serveRig, seed int64, phaseDur time.Duration, tr *tracer) ([]*servePhase, *stormStats) {
	stop := make(chan struct{})
	stormDone := make(chan *stormStats)
	go func() { stormDone <- flipStorm(rig, seed, 2*phaseDur, tr, stop) }()
	var phases []*servePhase
	for i, p := range []struct {
		name string
		rate float64
	}{{"low", serveRateLow}, {"high", serveRateHigh}} {
		phases = append(phases, openLoop(rig, seed*1000+int64(i), p.name, p.rate, phaseDur, tr))
	}
	close(stop)
	return phases, <-stormDone
}

// openLoop sends single-image requests on a seeded Poisson schedule,
// each in its own goroutine so a slow reply never delays the next send,
// and times every request from its due time.
func openLoop(rig *serveRig, seed int64, name string, rate float64, dur time.Duration, tr *tracer) *servePhase {
	sched := poissonSchedule(seed, rate, dur)
	ps := &servePhase{name: name, rate: rate, sent: len(sched), late: make([]float64, len(sched))}
	lat := make([]float64, len(sched))
	outcome := make([]int8, len(sched)) // 0 served, 1 shed, 2 failed
	var wg sync.WaitGroup
	start := time.Now()
	for i, off := range sched {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		ps.late[i] = ms(time.Since(due))
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			sp := tr.startAt("request "+name, nil, tr.newOp(), due)
			r := rig.srv.TrySubmit(rig.pool[i%len(rig.pool)])
			done := time.Now()
			sp.endAt(done)
			lat[i] = ms(done.Sub(due))
			switch {
			case r.Err == serve.ErrOverloaded:
				outcome[i] = 1
			case r.Err != nil || r.Pred < 0 || r.Pred >= 10 || len(r.Logits) != 10:
				outcome[i] = 2
			}
		}(i, due)
	}
	wg.Wait()
	for i, o := range outcome {
		switch o {
		case 0:
			ps.served++
			ps.lat = append(ps.lat, lat[i])
			if lat[i] <= ms(serveOKLimit) {
				ps.ok++
			}
		case 1:
			ps.shed++
		default:
			ps.errored++
		}
	}
	return ps
}

// flipStorm publishes one single-bit weight flip through Server.Swap
// every stormPeriod±stormJitter, alternating apply and revert of the
// same bit, until stop closes and its last write was a revert.
func flipStorm(rig *serveRig, seed int64, dur time.Duration, tr *tracer, stop <-chan struct{}) *stormStats {
	st := &stormStats{}
	sched := periodicSchedule(seed+7, stormPeriod, stormJitter, 2*dur)
	pick := tensor.NewRNG(seed + 11)
	nw := rig.q.NumWeights()
	var idx int
	var bit uint
	start := time.Now()
	for k, off := range sched {
		apply := k%2 == 0
		if apply {
			select {
			case <-stop:
				st.endedClean = true
				return st
			default:
			}
			idx, bit = pick.Intn(nw), uint(pick.Intn(8))
		}
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		op := tr.newOp()
		sp := tr.startAt("storm write", nil, op, due)
		inner := tr.start("Server.Swap", sp, 0)
		t0 := time.Now()
		err := rig.srv.Swap(func() { rig.q.FlipBit(idx, bit) })
		pub := time.Now()
		inner.endAt(pub)
		sp.endAt(pub)
		if err != nil && st.badSwap == nil {
			st.badSwap = err
		}
		st.writes++
		st.dueLat = append(st.dueLat, ms(pub.Sub(due)))
		st.swapMs = append(st.swapMs, ms(pub.Sub(t0)))
		if l := rig.qm.LiveEpochs(); l > st.liveMax {
			st.liveMax = l
		}
	}
	// The schedule outlasts the windows; reaching its end means the
	// windows overran it badly.
	st.endedClean = len(sched)%2 == 0
	<-stop
	return st
}
