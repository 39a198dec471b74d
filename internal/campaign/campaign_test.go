package campaign

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"rowhammer/internal/core"
	"rowhammer/internal/dram"
	"rowhammer/internal/memsys"
	"rowhammer/internal/profile"
	"rowhammer/internal/tensor"
)

// syntheticWorkload builds a random weight file and one single-flip
// requirement per eighth page, direction chosen so the flip is
// observable against the stored bit.
func syntheticWorkload(filePages int, seed int64) ([]byte, []profile.PageRequirement) {
	rng := tensor.NewRNG(seed)
	file := make([]byte, filePages*memsys.PageSize)
	for i := range file {
		file[i] = byte(rng.Intn(256))
	}
	var reqs []profile.PageRequirement
	for fp := 0; fp < filePages; fp += 8 {
		off := rng.Intn(memsys.PageSize)
		bit := rng.Intn(8)
		dir := dram.ZeroToOne
		if file[fp*memsys.PageSize+off]&(1<<bit) != 0 {
			dir = dram.OneToZero
		}
		reqs = append(reqs, profile.PageRequirement{
			FilePage: fp,
			Flips:    []profile.CellFlip{{Offset: off, Bit: bit, Dir: dir}},
		})
	}
	return file, reqs
}

// tableIDevice returns the named Table I device profile.
func tableIDevice(t testing.TB, name string) dram.DeviceProfile {
	t.Helper()
	for _, d := range dram.TableIProfiles() {
		if d.Name == name {
			return d
		}
	}
	t.Fatalf("no Table I device %q", name)
	return dram.DeviceProfile{}
}

// testFleet builds a small heterogeneous fleet: two SKUs — a flippy
// DDR3 (F1, double-sided) and a flippy DDR4 with TRR (K1, 7-sided,
// fault-injected) — with three campaigns per SKU sharing one module
// identity, so each SKU templates once and hits twice.
func testFleet(t *testing.T) []Job {
	t.Helper()
	ddr3, ddr4 := tableIDevice(t, "F1"), tableIDevice(t, "K1")
	var jobs []Job
	for i := 0; i < 6; i++ {
		spec := ModuleSpec{Device: ddr3, SizeBytes: 16 << 20, Seed: 77}
		online := core.OnlineConfig{BufferPages: 1024, Sides: 2, Intensity: 1, MeasureSeed: 7}
		if i >= 3 {
			spec = ModuleSpec{Device: ddr4, SizeBytes: 24 << 20, Seed: 78,
				Fault: dram.FaultModel{FlipFailProb: 0.2, Seed: 5}}
			online.BufferPages = 2048
			online.Sides = 7
			online.Rounds = 3
			online.Escalation = 2
		}
		file, reqs := syntheticWorkload(128, int64(100+i))
		jobs = append(jobs, Job{
			Name:       fmt.Sprintf("camp-%d", i),
			WeightFile: file,
			Reqs:       reqs,
			Module:     spec,
			Online:     online,
		})
	}
	return jobs
}

// scrub zeroes the observational fields so results can be compared
// across worker counts and cache states.
func scrub(rs []Result) {
	for i := range rs {
		rs[i].ArenaBytes = 0
		if rs[i].Online != nil && rs[i].Online.Report != nil {
			rs[i].Online.Report.Timing = core.StageTiming{}
		}
	}
}

// TestRunMatchesSerialAtAnyWorkerCount asserts the pipelined engine
// reproduces the serial reference byte for byte at 1, 2 and 4 workers.
func TestRunMatchesSerialAtAnyWorkerCount(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	jobs := testFleet(t)

	want := make([]Result, len(jobs))
	for i, j := range jobs {
		want[i] = RunCampaign(i, j)
		if want[i].Err != nil {
			t.Fatalf("serial campaign %d: %v", i, want[i].Err)
		}
		if want[i].Online.NMatch == 0 {
			t.Fatalf("serial campaign %d matched nothing; identity check would be vacuous", i)
		}
	}
	// The serial reference computes every template itself.
	wantHit := []bool{false, true, true, false, true, true}
	scrub(want)

	for _, workers := range []int{1, 2, 4} {
		sum := Run(jobs, Config{Workers: workers})
		if sum.Failed != 0 {
			t.Fatalf("workers=%d: %d campaigns failed", workers, sum.Failed)
		}
		got := append([]Result(nil), sum.Results...)
		for i := range got {
			if got[i].CacheHit != wantHit[i] {
				t.Fatalf("workers=%d: campaign %d CacheHit = %v, want %v", workers, i, got[i].CacheHit, wantHit[i])
			}
			got[i].CacheHit = false
			if !bytes.Equal(got[i].Online.CorruptedFile, want[i].Online.CorruptedFile) {
				t.Fatalf("workers=%d: campaign %d corrupted file differs from serial reference", workers, i)
			}
		}
		scrub(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: results differ from serial reference", workers)
		}
		if sum.CacheHits != 4 {
			t.Fatalf("workers=%d: CacheHits = %d, want 4", workers, sum.CacheHits)
		}
	}
}

// TestWarmCacheIdentity asserts a fully warm cache — every template
// served without a single sweep — yields byte-identical campaigns, the
// cache-hit plan-identity invariant.
func TestWarmCacheIdentity(t *testing.T) {
	jobs := testFleet(t)
	cache := NewProfileCache()

	cold := Run(jobs, Config{Workers: 2, Cache: cache})
	if cold.Failed != 0 {
		t.Fatalf("cold fleet: %d failed", cold.Failed)
	}
	entries := cache.Entries()
	if entries != 2 {
		t.Fatalf("cold fleet computed %d templates, want 2", entries)
	}

	warm := Run(jobs, Config{Workers: 2, Cache: cache})
	if warm.Failed != 0 {
		t.Fatalf("warm fleet: %d failed", warm.Failed)
	}
	if cache.Entries() != entries {
		t.Fatal("warm fleet re-templated despite a full cache")
	}
	if warm.CacheHits != len(jobs) {
		t.Fatalf("warm fleet CacheHits = %d, want %d", warm.CacheHits, len(jobs))
	}
	cr := append([]Result(nil), cold.Results...)
	wr := append([]Result(nil), warm.Results...)
	scrub(cr)
	scrub(wr)
	for i := range cr {
		cr[i].CacheHit = false
		wr[i].CacheHit = false
	}
	if !reflect.DeepEqual(cr, wr) {
		t.Fatal("warm-cache results differ from cold-cache results")
	}
}

// TestNoFaultCampaignMatchesPlainExecuteOnline pins the engine's
// canonical execution to the pre-existing single-module path: without a
// fault model, the two-stage (template, rewind, attack) flow corrupts
// the file exactly as core.ExecuteOnline does in one pass.
func TestNoFaultCampaignMatchesPlainExecuteOnline(t *testing.T) {
	file, reqs := syntheticWorkload(32, 9)
	job := Job{
		Name:       "pin",
		WeightFile: file,
		Reqs:       reqs,
		Module:     ModuleSpec{Device: dram.PaperDDR3(), SizeBytes: 16 << 20, Seed: 41},
		Online:     core.OnlineConfig{BufferPages: 512, Sides: 2, Intensity: 1, MeasureSeed: 3},
	}
	got := RunCampaign(0, job)
	if got.Err != nil {
		t.Fatal(got.Err)
	}

	mod, err := dram.NewModule(job.Module.geometry(), job.Module.Device, job.Module.Seed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.ExecuteOnline(memsys.NewSystem(mod), file, reqs, job.Online)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Online.CorruptedFile, want.CorruptedFile) {
		t.Fatal("campaign corrupted file differs from plain ExecuteOnline")
	}
	if !reflect.DeepEqual(got.Online.Plan, want.Plan) {
		t.Fatal("campaign plan differs from plain ExecuteOnline")
	}
}

// TestAdmissionCapBoundsAndPreservesResults asserts a tight arena cap
// serializes admission without changing a single byte of output.
func TestAdmissionCapBoundsAndPreservesResults(t *testing.T) {
	jobs := testFleet(t)
	free := Run(jobs, Config{Workers: 4})
	const cap = 4 << 20
	capped := Run(jobs, Config{Workers: 4, MaxArenaBytes: cap})
	if capped.Failed != 0 {
		t.Fatalf("capped fleet: %d failed", capped.Failed)
	}
	if capped.PeakReservedBytes > cap {
		t.Fatalf("peak reservation %d exceeds cap %d", capped.PeakReservedBytes, cap)
	}
	fr := append([]Result(nil), free.Results...)
	cr := append([]Result(nil), capped.Results...)
	scrub(fr)
	scrub(cr)
	if !reflect.DeepEqual(fr, cr) {
		t.Fatal("admission cap changed campaign results")
	}
}

// TestRunStreamsEveryResult asserts OnResult fires once per campaign
// and failures stay contained to their campaign.
func TestRunStreamsEveryResult(t *testing.T) {
	jobs := testFleet(t)[:2]
	jobs = append(jobs, Job{Name: "bad", Module: ModuleSpec{Device: dram.PaperDDR3(), SizeBytes: 16 << 20}})

	seen := make(map[int]bool)
	sum := Run(jobs, Config{Workers: 2, OnResult: func(r Result) { seen[r.Index] = true }})
	if len(seen) != len(jobs) {
		t.Fatalf("OnResult fired for %d campaigns, want %d", len(seen), len(jobs))
	}
	if sum.Failed != 1 {
		t.Fatalf("Failed = %d, want 1", sum.Failed)
	}
	bad := sum.Results[2]
	if bad.Err == nil || !strings.Contains(bad.Err.Error(), "BufferPages") {
		t.Fatalf("invalid job error = %v, want BufferPages validation", bad.Err)
	}
	for _, r := range sum.Results[:2] {
		if r.Err != nil {
			t.Fatalf("healthy campaign %d failed: %v", r.Index, r.Err)
		}
	}
}

// TestJobValidateRejectsRunTimeFailures pins the submit-time checks
// that mirror run-time refusals: an oversized module, a templating
// buffer larger than the module, and negative retry knobs.
func TestJobValidateRejectsRunTimeFailures(t *testing.T) {
	ok := Job{
		Name:   "ok",
		Module: ModuleSpec{Device: dram.PaperDDR3(), SizeBytes: 16 << 20},
		Online: core.OnlineConfig{BufferPages: 4096},
	}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid job rejected: %v", err)
	}
	for name, mutate := range map[string]func(*Job){
		"module above maximum": func(j *Job) { j.Module.SizeBytes = (MaxModuleMB + 1) << 20 },
		"buffer above module":  func(j *Job) { j.Online.BufferPages = 4097 },
		"negative rounds":      func(j *Job) { j.Online.Rounds = -1 },
	} {
		j := ok
		mutate(&j)
		if err := j.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, j.Online)
		}
	}
}

// waitWaiters spins until the semaphore has n queued waiters.
func waitWaiters(t *testing.T, s *byteSem, n int) {
	t.Helper()
	for i := 0; i < 1e7; i++ {
		s.mu.Lock()
		q := len(s.waiters)
		s.mu.Unlock()
		if q == n {
			return
		}
		runtime.Gosched()
	}
	t.Fatalf("semaphore never reached %d waiters", n)
}

// TestByteSemFIFO exercises the admission semaphore directly: clamping,
// strict FIFO (a small request must not jump a blocked large one), and
// peak accounting.
func TestByteSemFIFO(t *testing.T) {
	ctx := context.Background()
	s := newByteSem(100)
	if got, err := s.acquire(ctx, 250); err != nil || got != 100 {
		t.Fatalf("oversized acquire granted %d (err %v), want clamp to 100", got, err)
	}
	done := make(chan int, 2)
	mustAcquire := func(n int64) {
		got, err := s.acquire(ctx, n)
		if err != nil {
			t.Errorf("acquire(%d): %v", n, err)
		}
		done <- int(got)
	}
	go mustAcquire(60)
	waitWaiters(t, s, 1)
	go mustAcquire(1)
	waitWaiters(t, s, 2)

	// Free 59 bytes: the queued 60 still does not fit, and the 1 behind
	// it must not jump the line.
	s.release(59)
	waitWaiters(t, s, 2)
	select {
	case n := <-done:
		t.Fatalf("waiter for %d admitted out of order", n)
	default:
	}

	s.release(41)
	if a, b := <-done, <-done; a+b != 61 {
		t.Fatalf("granted %d and %d, want 60 and 1", a, b)
	}
	if s.peakReserved() != 100 {
		t.Fatalf("peak = %d, want 100", s.peakReserved())
	}
}
