package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"rowhammer"
	"rowhammer/internal/campaign"
	"rowhammer/internal/campaign/server"
	"rowhammer/internal/core"
	"rowhammer/internal/dram"
	"rowhammer/internal/memsys"
	"rowhammer/internal/profile"
)

// The fleet shape: 24 campaigns of 192 MB modules at the default
// 32768-page templating buffer, over four SKUs, where every module
// identity appears twice so half the campaigns are profile-cache hits.
// The weight file carries one single-bit requirement per 7 pages, the
// public default density.
const (
	fleetIdentitiesPerSKU = 3
	fleetRepeats          = 2
	fleetFilePages        = 64
	fleetPagesPerReq      = 7
	fleetModuleMB         = 192
	fleetMinReps          = 3
)

var fleetSKUs = []struct {
	device string // "" is the paper's DDR3 module
	sides  int
}{
	{"", 2},   // paper DDR3, double-sided
	{"K1", 7}, // DDR4, 7-sided
	{"B1", 2}, // light DDR3 (1.05 flips/page)
	{"M1", 7}, // light DDR4 (2.04 flips/page)
}

func fleetCampaigns() int { return len(fleetSKUs) * fleetIdentitiesPerSKU * fleetRepeats }

// fleetSpec generates the fleet from the seed: a random weight file,
// its requirements through core.RequirementsFromCodes, and a job list
// in which each module identity appears fleetRepeats times.
func fleetSpec(seed int64) server.FleetSpec {
	rng := rand.New(rand.NewSource(seed))
	orig := make([]int8, fleetFilePages*memsys.PageSize)
	for i := range orig {
		orig[i] = int8(rng.Intn(256) - 128)
	}
	back := append([]int8(nil), orig...)
	for p := 0; p < fleetFilePages; p += fleetPagesPerReq {
		w := p*memsys.PageSize + rng.Intn(memsys.PageSize)
		back[w] ^= int8(1 << rng.Intn(8))
	}
	reqs := core.RequirementsFromCodes(orig, back)
	file := make([]byte, len(orig))
	for i, c := range orig {
		file[i] = byte(c)
	}

	// Every identity's first campaign comes before any repeat, SKUs
	// interleaved, so the repeats take the cache-hit path without waiting
	// on an in-flight leader; a shuffled order made the fleet's wall time
	// depend on which pairs happened to overlap.
	var idents []server.JobSpec
	for k := 0; k < fleetIdentitiesPerSKU; k++ {
		for _, sku := range fleetSKUs {
			idents = append(idents, server.JobSpec{
				WeightFile: file,
				Reqs:       reqs,
				Module:     server.ModuleSpec{Device: sku.device, SizeMB: fleetModuleMB, Seed: 1 + rng.Int63n(1<<40)},
				Online:     server.OnlineSpec{Sides: sku.sides},
			})
		}
	}
	var jobs []server.JobSpec
	for r := 0; r < fleetRepeats; r++ {
		jobs = append(jobs, idents...)
	}
	for i := range jobs {
		jobs[i].Name = fmt.Sprintf("c%02d", i)
	}
	return server.FleetSpec{Name: fmt.Sprintf("e2ebench-seed%d", seed), Jobs: jobs}
}

// fleetRun is one daemon fleet: submit over one connection, read every
// result over a second, streaming one.
type fleetRun struct {
	setupS   float64
	submitMs float64
	wallS    float64 // submit until the last result has streamed
	peakMB   float64 // process peak RSS during the fleet
	results  []campaign.Result
	status   server.FleetStatus
}

func fleetParams(res *result, workers int) {
	res.param("fleet-sweep: %d campaigns = %d SKUs x %d identities x %d repeats, %d MB modules, %d-page weight file, 1 req per %d pages, workers %d, loopback HTTP, 1 submit + 1 stream connection",
		fleetCampaigns(), len(fleetSKUs), fleetIdentitiesPerSKU, fleetRepeats, fleetModuleMB, fleetFilePages, fleetPagesPerReq, workers)
}

func runFleet(opts options) (*result, error) {
	res := &result{}
	workers := runtime.NumCPU()
	n := fleetCampaigns()
	fleetParams(res, workers)

	var runs []fleetRun
	start := time.Now()
	for len(runs) < fleetMinReps || time.Since(start).Seconds() < opts.seconds {
		fr, err := measuredFleet(opts.seed, workers, nil, len(runs))
		if err != nil {
			return nil, err
		}
		runs = append(runs, fr)
	}
	ref, err := fleetReference(opts.seed, workers, nil, res)
	if err != nil {
		return nil, err
	}

	// The first daemon fleet of a process is a warm-up: it pays first-touch
	// costs of module arenas that later fleets do not. It is checked like
	// every other, but not timed.
	var setups, perCampaign, rmatch, peaks []float64
	for i, fr := range runs {
		rm := checkFleetRun(res, fmt.Sprintf("daemon fleet %d", i), fr, ref)
		setups = append(setups, fr.setupS)
		if i > 0 {
			perCampaign = append(perCampaign, 1000*fr.wallS/float64(n))
			rmatch = append(rmatch, rm)
			peaks = append(peaks, fr.peakMB)
		}
	}
	res.set("setup_s", median(setups))
	res.set("op_ms", median(perCampaign))
	res.set("outcome_pct", median(rmatch))
	res.set("peak_rss_mb", median(peaks))
	return res, nil
}

// measuredFleet runs one daemon fleet from a collected heap with the
// high-water mark reset, so its peak RSS covers that fleet alone. The
// heap is not returned to the OS: re-faulting it every repetition made
// the fleet's wall time swing with the host's page-fault cost.
func measuredFleet(seed int64, workers int, tr *tracer, rep int) (fleetRun, error) {
	runtime.GC()
	if err := resetPeakRSS(); err != nil {
		return fleetRun{}, fmt.Errorf("resetting peak RSS: %w", err)
	}
	fr, err := fleetOnce(seed, workers, tr, rep)
	if err != nil {
		return fr, err
	}
	fr.peakMB = peakRSSMB()
	fmt.Printf("fleet %d: setup %.3fs submit %.2fms wall %.3fs (%.3f campaigns/s) peak RSS %.1f MB\n",
		rep, fr.setupS, fr.submitMs, fr.wallS, float64(len(fr.results))/fr.wallS, fr.peakMB)
	return fr, nil
}

// fleetRef is the engine-only run of the fleet: the reference every
// daemon fleet must match byte for byte.
type fleetRef struct {
	jobs   []campaign.Job
	sum    *campaign.Summary
	cache  *campaign.ProfileCache
	wallS  float64
	engine [][]byte // canonical result per index
	digest string
}

// fleetReference runs campaign.Run over the fleet's resolved jobs and
// checks it.
func fleetReference(seed int64, workers int, tr *tracer, res *result) (*fleetRef, error) {
	jobs, err := fleetSpec(seed).Resolve()
	if err != nil {
		return nil, fmt.Errorf("resolve: %w", err)
	}
	ref := &fleetRef{jobs: jobs, cache: campaign.NewProfileCache()}
	sp := tr.start("campaign.Run", nil, tr.newOp())
	t0 := time.Now()
	ref.sum = campaign.Run(jobs, campaign.Config{Workers: workers, Cache: ref.cache})
	ref.wallS = time.Since(t0).Seconds()
	sp.end()
	fmt.Printf("engine-only fleet: wall %.3fs\n", ref.wallS)
	for _, r := range ref.sum.Results {
		ref.engine = append(ref.engine, scrubbedJSON(r))
	}
	ref.digest = digestOf(ref.engine)
	res.attempted += len(jobs)
	res.failed += ref.sum.Failed
	res.checkf("engine-only fleet: no failed campaign", ref.sum.Failed == 0, "failed %d of %d", ref.sum.Failed, len(ref.sum.Results))
	res.checkf("engine-only fleet: cache hits equal repeated identities", ref.sum.CacheHits == fleetWantHits(),
		"hits %d, repeated identities %d", ref.sum.CacheHits, fleetWantHits())
	return ref, nil
}

func fleetWantHits() int { return fleetCampaigns() - len(fleetSKUs)*fleetIdentitiesPerSKU }

// checkFleetRun checks one daemon fleet against the engine-only run and
// returns its mean r_match.
func checkFleetRun(res *result, label string, fr fleetRun, ref *fleetRef) float64 {
	n, wantHits := fleetCampaigns(), fleetWantHits()
	res.attempted += n
	failed, hits := 0, 0
	same := len(fr.results) == n
	seen := make([]bool, n)
	rm := 0.0
	for _, r := range fr.results {
		if r.Err != nil {
			failed++
		}
		if r.CacheHit {
			hits++
		}
		if r.Index < 0 || r.Index >= n || seen[r.Index] {
			same = false
			continue
		}
		seen[r.Index] = true
		if !bytes.Equal(scrubbedJSON(r), ref.engine[r.Index]) {
			same = false
		}
		if r.Online != nil {
			rm += r.Online.RMatch
		}
	}
	res.failed += failed
	res.checkf(label+": every result streamed once, no failure", len(fr.results) == n && failed == 0 && fr.status.Failed == 0,
		"streamed %d of %d, failed %d (status %d)", len(fr.results), n, failed, fr.status.Failed)
	res.checkf(label+": cache hits equal repeated identities", hits == wantHits && fr.status.CacheHits == wantHits,
		"streamed hits %d, status hits %d, want %d", hits, fr.status.CacheHits, wantHits)
	res.checkf(label+": results byte-identical to engine-only run", same && fr.status.Digest == ref.digest,
		"daemon digest %s, engine digest %s", short(fr.status.Digest), short(ref.digest))
	return rm / float64(n)
}

// fleetLayerPairs is how many untraced and traced daemon fleets the
// layer suite alternates after its warm-up fleet.
const fleetLayerPairs = 3

// fleetLayers is the fleet part of the layer suite: an untimed warm-up
// fleet, fleetLayerPairs untraced and traced daemon fleets in turn, the
// engine-only run and the template sweeps. It returns the traced
// fleets' median wall time over the untraced ones' as an overhead in
// percent.
func fleetLayers(opts options, res *result) (float64, error) {
	workers := runtime.NumCPU()
	fleetParams(res, workers)
	var runs []fleetRun
	var untraced, traced, submitMs []float64
	for rep := 0; rep <= 2*fleetLayerPairs; rep++ {
		tr := opts.tr
		if rep%2 == 0 {
			tr = nil
		}
		fr, err := measuredFleet(opts.seed, workers, tr, rep)
		if err != nil {
			return 0, err
		}
		runs = append(runs, fr)
		switch {
		case tr != nil:
			traced = append(traced, fr.wallS)
			submitMs = append(submitMs, fr.submitMs)
		case rep > 0:
			untraced = append(untraced, fr.wallS)
		}
	}
	ref, err := fleetReference(opts.seed, workers, opts.tr, res)
	if err != nil {
		return 0, err
	}
	for i, fr := range runs {
		checkFleetRun(res, fmt.Sprintf("daemon fleet %d", i), fr, ref)
	}

	var stageNs [6]int64
	rows := 0
	var arenaPeak int64
	for _, r := range ref.sum.Results {
		if r.ArenaBytes > arenaPeak {
			arenaPeak = r.ArenaBytes
		}
		if r.Online == nil || r.Online.Report == nil {
			continue
		}
		t := r.Online.Report.Timing
		for i, v := range []int64{t.ProfileNs, t.PlanNs, t.MassageNs, t.HammerNs, t.VerifyNs, t.RetemplateNs} {
			stageNs[i] += v
		}
		for _, rd := range r.Online.Report.Rounds {
			rows += rd.RowsHammered
		}
	}
	if ref.sum.PeakReservedBytes > arenaPeak {
		arenaPeak = ref.sum.PeakReservedBytes
	}
	templS, err := templateSeconds(ref.jobs, opts.tr)
	if err != nil {
		return 0, err
	}
	res.set("campaign.cache_hit_ratio", float64(ref.sum.CacheHits)/float64(len(ref.sum.Results)))
	res.set("campaign.templates", float64(ref.cache.Entries()))
	// With the template injected, an online result's own ProfileNs only
	// covers re-templating, so profile_s adds the template stage. The
	// busy ratio is stage time over workers × engine wall; a template
	// sweep shards across cores, so it can exceed 1, and it falls when
	// workers wait in the queue or on admission.
	busy := templS
	for i, name := range []string{"profile", "plan", "massage", "hammer", "verify"} {
		v := float64(stageNs[i]) / 1e9
		if name == "profile" {
			v += templS
		}
		res.set("campaign."+name+"_s", v)
	}
	for _, v := range stageNs {
		busy += float64(v) / 1e9
	}
	res.set("campaign.busy_ratio", busy/(float64(workers)*ref.wallS))
	res.set("campaign.arena_peak_mb", float64(arenaPeak)/(1<<20))
	res.set("dram.rows_hammered", float64(rows))
	res.set("campaignd.submit_ms", median(submitMs))
	res.set("campaignd.overhead_s", median(untraced)-ref.wallS)
	return 100 * (median(traced) - median(untraced)) / median(untraced), nil
}

// scrubbedJSON is the canonical form of a result: its wire JSON with the
// schedule-dependent fields (arena high-water mark, stage wall clock)
// zeroed, as campaignd digests it.
func scrubbedJSON(r campaign.Result) []byte {
	if r.Online != nil {
		o := *r.Online
		if o.Report != nil {
			rep := *o.Report
			o.Report = &rep
		}
		r.Online = &o
	}
	r.Scrub()
	b, err := json.Marshal(r)
	if err != nil {
		return []byte(err.Error())
	}
	return b
}

// digestOf is campaignd's fleet digest over canonical results in index
// order.
func digestOf(lines [][]byte) string {
	h := sha256.New()
	for _, l := range lines {
		h.Write(l)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fleetOnce starts a fresh campaignd in its own state directory, so
// every repetition starts with a cold profile cache, and drives one
// fleet through it over loopback HTTP. The set-up it times is building
// the fleet from the seed, encoding it, and starting the service.
func fleetOnce(seed int64, workers int, tr *tracer, rep int) (fleetRun, error) {
	var fr fleetRun
	op := tr.newOp()
	root := tr.start("fleet", nil, op)
	defer root.end()

	s0 := time.Now()
	sp := tr.start("fleet.setup", root, 0)
	body, err := json.Marshal(fleetSpec(seed))
	if err != nil {
		return fr, err
	}
	dir := filepath.Join(runDir, "tmp", fmt.Sprintf("campaignd-%d-%d", os.Getpid(), rep))
	if err := os.RemoveAll(dir); err != nil {
		return fr, err
	}
	defer os.RemoveAll(dir)
	svc, err := rowhammer.StartFleetService(rowhammer.FleetServiceConfig{Dir: dir, Workers: workers})
	if err != nil {
		return fr, fmt.Errorf("StartFleetService: %w", err)
	}
	defer svc.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fr, err
	}
	hs := &http.Server{Handler: svc.Handler()}
	serveDone := make(chan error, 1)
	go func() { serveDone <- hs.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		<-serveDone
	}()
	base := "http://" + ln.Addr().String()
	submitT := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	streamT := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	defer submitT.CloseIdleConnections()
	defer streamT.CloseIdleConnections()
	submit := &http.Client{Transport: submitT, Timeout: 150 * time.Second}
	stream := &http.Client{Transport: streamT, Timeout: 150 * time.Second}
	sp.end()
	fr.setupS = time.Since(s0).Seconds()

	t0 := time.Now()
	sp = tr.start("campaignd.POST /v1/fleets", root, 0)
	resp, err := submit.Post(base+"/v1/fleets", "application/json", bytes.NewReader(body))
	if err != nil {
		return fr, fmt.Errorf("submit: %w", err)
	}
	var ack struct{ ID string }
	err = json.NewDecoder(resp.Body).Decode(&ack)
	resp.Body.Close()
	sp.end()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return fr, fmt.Errorf("submit: status %d: %v", resp.StatusCode, err)
	}
	fr.submitMs = ms(time.Since(t0))

	sp = tr.start("campaignd.GET stream", root, 0)
	resp, err = stream.Get(base + "/v1/fleets/" + ack.ID + "/stream")
	if err != nil {
		return fr, fmt.Errorf("stream: %w", err)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	last := t0
	for sc.Scan() {
		var r campaign.Result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			resp.Body.Close()
			return fr, fmt.Errorf("stream line: %w", err)
		}
		last = time.Now()
		tr.startAt(fmt.Sprintf("campaign %d streamed", r.Index), sp, 0, t0).endAt(last)
		fr.results = append(fr.results, r)
	}
	err = sc.Err()
	resp.Body.Close()
	sp.end()
	if err != nil {
		return fr, fmt.Errorf("stream: %w", err)
	}
	fr.wallS = last.Sub(t0).Seconds()

	resp, err = submit.Get(base + "/v1/fleets/" + ack.ID)
	if err != nil {
		return fr, fmt.Errorf("status: %w", err)
	}
	err = json.NewDecoder(resp.Body).Decode(&fr.status)
	resp.Body.Close()
	if err != nil {
		return fr, fmt.Errorf("status: %w", err)
	}
	return fr, nil
}

// templateSeconds times the engine's template stage, which the engine
// does not time itself: one profile.ProfileBuffer sweep per distinct
// module identity on a pristine module, as campaign's template stage
// runs it. The sweeps run one after another, so the figure is work, not
// wall time.
func templateSeconds(jobs []campaign.Job, tr *tracer) (float64, error) {
	op := tr.newOp()
	seen := map[string]bool{}
	total := 0.0
	for _, j := range jobs {
		if fp := j.Fingerprint(); seen[fp] {
			continue
		} else {
			seen[fp] = true
		}
		mod, err := dram.NewModuleForSize(j.Module.SizeBytes, j.Module.Device, j.Module.Seed)
		if err != nil {
			return 0, fmt.Errorf("template probe: %w", err)
		}
		sys := memsys.NewSystem(mod)
		sys.InjectFaults(j.Module.Fault)
		attacker := sys.NewProcess()
		base, err := attacker.Mmap(j.Online.BufferPages)
		if err != nil {
			return 0, fmt.Errorf("template probe: %w", err)
		}
		sp := tr.start("profile.ProfileBuffer", nil, op)
		t0 := time.Now()
		prof, err := profile.ProfileBuffer(sys, attacker, base, j.Online.BufferPages, profile.Config{
			Sides: j.Online.Sides, Intensity: j.Online.Intensity, MeasureSeed: j.Online.MeasureSeed,
		})
		if err != nil {
			return 0, fmt.Errorf("template probe: %w", err)
		}
		prof.PrimeIndex()
		total += time.Since(t0).Seconds()
		sp.end()
	}
	return total, nil
}
