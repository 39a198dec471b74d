// Package server is the campaignd service core: a long-running
// HTTP/JSON front end over the fleet campaign engine with a durable
// job queue, streaming per-campaign results, cross-fleet SKU
// aggregation, and checkpoint/resume.
//
// API:
//
//	POST /v1/fleets             submit a FleetSpec; responds 202 with the id
//	GET  /v1/fleets             list fleet statuses
//	GET  /v1/fleets/{id}        one fleet's status (digest + SKUs once done)
//	GET  /v1/fleets/{id}/stream per-campaign Results as JSON lines, replay + live
//	GET  /v1/fleets/{id}/results completed Results as JSON lines in index
//	                            order (?scrub=1 zeroes observational fields)
//	GET  /v1/skus               cross-fleet per-SKU aggregation
//
// Fleets run FIFO, one at a time, on the daemon's bounded worker pool;
// within a fleet the campaign engine pipelines template/plan/online
// stages across campaigns and deduplicates templates through one
// long-lived, LRU-bounded profile cache shared by every fleet. Each
// completed campaign is fsynced to the fleet's results.jsonl before it
// is streamed, so a killed daemon resumes exactly the campaigns that
// never finished and — by the engine's canonical-order determinism
// invariant — produces byte-identical results to an uninterrupted run.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sync"

	"rowhammer/internal/campaign"
)

// Config configures the daemon core.
type Config struct {
	// Dir is the durable state root (required). The daemon owns it:
	// fleets are checkpointed under it, and a process killed mid-fleet
	// resumes on the next New over the same directory and finishes with
	// byte-identical results.
	Dir string
	// Workers bounds concurrently executing campaigns per fleet (≤0 = 1).
	Workers int
	// MaxArenaMB caps estimated in-flight module state per fleet (0 =
	// uncapped).
	MaxArenaMB int
	// CacheEntries bounds the shared profile cache (0 = unbounded). A
	// daemon that lives for days should bound it so memory tracks the
	// working set, not history.
	CacheEntries int
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// Server is the daemon core. Create with New, mount Handler on an HTTP
// server, Close on shutdown.
type Server struct {
	cfg    Config
	cache  *campaign.ProfileCache
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	wake   chan struct{}

	mu     sync.Mutex
	fleets map[string]*fleetState
	order  []string
	nextID int
}

// fleetState is one fleet's in-memory state; the mutable part mirrors
// the checkpoint on disk.
type fleetState struct {
	id       string
	spec     FleetSpec
	jobs     []campaign.Job
	hits     []bool
	seedKeys []string

	mu        sync.Mutex
	state     string // "queued" | "running" | "done" | "failed"
	results   []*campaign.Result
	completed int
	failed    int
	cacheHits int
	digest    string
	skus      []campaign.SKUStats
	subs      map[chan campaign.Result]struct{}
	done      chan struct{}
}

// New opens (or creates) the state directory, resumes every fleet that
// was submitted but never finished, and starts the run loop.
func New(cfg Config) (*Server, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("campaignd: Config.Dir is required")
	}
	if err := os.MkdirAll(fleetsRoot(cfg.Dir), 0o755); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:    cfg,
		cache:  campaign.NewProfileCacheSize(cfg.CacheEntries),
		ctx:    ctx,
		cancel: cancel,
		wake:   make(chan struct{}, 1),
		fleets: make(map[string]*fleetState),
	}
	if err := s.load(); err != nil {
		cancel()
		return nil, err
	}
	s.wg.Add(1)
	go s.runLoop()
	return s, nil
}

// Close stops the run loop. The in-flight fleet (if any) stops at its
// next stage boundary with its completed campaigns checkpointed; the
// next New on the same directory resumes it.
func (s *Server) Close() error {
	s.cancel()
	s.wg.Wait()
	return nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// load replays the checkpoint directory: done fleets are served from
// disk, unfinished ones re-enter the queue with their completed
// campaigns pre-filled, and unfinished ones whose saved spec no longer
// resolves are marked failed with their completed campaigns kept.
func (s *Server) load() error {
	ids, err := listFleetIDs(s.cfg.Dir)
	if err != nil {
		return err
	}
	for _, id := range ids {
		var pf persistedFleet
		if err := readJSONFile(fleetSpecPath(s.cfg.Dir, id), &pf); err != nil {
			return fmt.Errorf("campaignd: fleet %s: %w", id, err)
		}
		// A spec saved by an older daemon may fail checks added since.
		// It can no longer run, but it must not make the rest of the
		// state directory unreachable: a finished one is still served
		// from disk below, an unfinished one is marked failed.
		jobs, resolveErr := pf.Spec.Resolve()
		f := &fleetState{
			id:       id,
			spec:     pf.Spec,
			jobs:     jobs,
			hits:     campaign.HitAssignment(jobs, pf.SeedKeys),
			seedKeys: pf.SeedKeys,
			state:    "queued",
			results:  make([]*campaign.Result, len(pf.Spec.Jobs)),
			subs:     make(map[chan campaign.Result]struct{}),
			done:     make(chan struct{}),
		}
		loaded, err := loadResults(s.cfg.Dir, id, len(f.results))
		if err != nil {
			return err
		}
		for idx, r := range loaded {
			r := r
			f.results[idx] = &r
			f.completed++
			if r.Err != nil {
				f.failed++
			}
			if r.CacheHit {
				f.cacheHits++
			}
		}
		var st FleetStatus
		if err := readJSONFile(summaryPath(s.cfg.Dir, id), &st); err == nil {
			f.state = "done"
			f.digest = st.Digest
			f.skus = st.SKUs
			close(f.done)
		} else if !os.IsNotExist(err) {
			return fmt.Errorf("campaignd: fleet %s summary: %w", id, err)
		} else if resolveErr != nil {
			s.logf("campaignd: fleet %s no longer resolves, marked failed: %v", id, resolveErr)
			f.state = "failed"
			close(f.done)
		}
		s.fleets[id] = f
		s.order = append(s.order, id)
		var n int
		if _, err := fmt.Sscanf(id, "f%d", &n); err == nil && n >= s.nextID {
			s.nextID = n + 1
		}
		if f.state == "queued" {
			s.logf("campaignd: resuming fleet %s (%d/%d campaigns done)", id, f.completed, len(f.jobs))
		}
	}
	return nil
}

// Submit validates and enqueues a fleet, persisting it before
// acknowledging. It is the programmatic form of POST /v1/fleets.
func (s *Server) Submit(spec FleetSpec) (string, error) {
	jobs, err := spec.Resolve()
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	id := fmt.Sprintf("f%06d", s.nextID)
	s.nextID++
	// Snapshot the cache-key set now: the canonical hit assignment is a
	// pure function of (jobs, snapshot), and persisting the snapshot is
	// what lets a resumed fleet reproduce the exact flags its
	// uninterrupted run would have emitted.
	seedKeys := s.cache.Fingerprints()
	f := &fleetState{
		id:       id,
		spec:     spec,
		jobs:     jobs,
		hits:     campaign.HitAssignment(jobs, seedKeys),
		seedKeys: seedKeys,
		state:    "queued",
		results:  make([]*campaign.Result, len(jobs)),
		subs:     make(map[chan campaign.Result]struct{}),
		done:     make(chan struct{}),
	}
	s.mu.Unlock()

	if err := saveFleet(s.cfg.Dir, persistedFleet{ID: id, Spec: spec, SeedKeys: seedKeys}); err != nil {
		return "", fmt.Errorf("campaignd: persisting fleet: %w", err)
	}

	s.mu.Lock()
	s.fleets[id] = f
	s.order = append(s.order, id)
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
	return id, nil
}

// FleetDone returns a channel closed when the fleet finishes, for
// callers that want to block (the demo mode, tests).
func (s *Server) FleetDone(id string) (<-chan struct{}, bool) {
	s.mu.Lock()
	f := s.fleets[id]
	s.mu.Unlock()
	if f == nil {
		return nil, false
	}
	return f.done, true
}

// runLoop drains the fleet queue FIFO, one fleet at a time.
func (s *Server) runLoop() {
	defer s.wg.Done()
	for {
		f := s.nextQueued()
		if f == nil {
			select {
			case <-s.ctx.Done():
				return
			case <-s.wake:
				continue
			}
		}
		s.runFleet(f)
		if s.ctx.Err() != nil {
			return
		}
	}
}

func (s *Server) nextQueued() *fleetState {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range s.order {
		f := s.fleets[id]
		f.mu.Lock()
		if f.state == "queued" {
			f.state = "running"
			f.mu.Unlock()
			return f
		}
		f.mu.Unlock()
	}
	return nil
}

// runFleet executes a fleet's pending campaigns. Completed campaigns
// (from a previous daemon life) are skipped; the engine receives the
// remainder with their original indices and canonical hit flags.
func (s *Server) runFleet(f *fleetState) {
	var jobsSub []campaign.Job
	var idxSub []int
	var hitsSub []bool
	f.mu.Lock()
	for i := range f.jobs {
		if f.results[i] == nil {
			jobsSub = append(jobsSub, f.jobs[i])
			idxSub = append(idxSub, i)
			hitsSub = append(hitsSub, f.hits[i])
		}
	}
	f.mu.Unlock()

	if len(jobsSub) > 0 {
		log, err := openResultLog(s.cfg.Dir, f.id)
		if err != nil {
			s.logf("campaignd: fleet %s: opening result log: %v", f.id, err)
			f.mu.Lock()
			f.state = "queued"
			f.mu.Unlock()
			return
		}
		workers := f.spec.Workers
		if workers == 0 {
			workers = s.cfg.Workers
		}
		arenaMB := f.spec.MaxArenaMB
		if arenaMB == 0 {
			arenaMB = s.cfg.MaxArenaMB
		}
		campaign.RunContext(s.ctx, jobsSub, campaign.Config{
			Workers:       workers,
			MaxArenaBytes: int64(arenaMB) << 20,
			Cache:         s.cache,
			Indices:       idxSub,
			Hits:          hitsSub,
			OnResult: func(r campaign.Result) {
				// Durability before visibility: the line is fsynced before
				// the result is streamed or counted, so no subscriber ever
				// sees a campaign a resume would re-run.
				if err := log.append(r); err != nil {
					s.logf("campaignd: fleet %s: checkpointing result %d: %v", f.id, r.Index, err)
				}
				f.deliver(r)
			},
		})
		log.Close()
	}

	if s.ctx.Err() != nil {
		// Shutdown mid-fleet: back to the queue; the next daemon life
		// resumes from the checkpoint.
		f.mu.Lock()
		f.state = "queued"
		f.mu.Unlock()
		return
	}
	s.finalize(f)
}

// deliver records one completed campaign and fans it out to stream
// subscribers.
func (f *fleetState) deliver(r campaign.Result) {
	f.mu.Lock()
	defer f.mu.Unlock()
	r2 := r
	f.results[r.Index] = &r2
	f.completed++
	if r.Err != nil {
		f.failed++
	}
	if r.CacheHit {
		f.cacheHits++
	}
	for ch := range f.subs {
		ch <- r // buffered to fleet size; never blocks
	}
}

// finalize computes the canonical digest and SKU aggregation, persists
// the summary, and marks the fleet done.
func (s *Server) finalize(f *fleetState) {
	f.mu.Lock()
	all := make([]campaign.Result, len(f.results))
	for i, r := range f.results {
		all[i] = scrubbedCopy(*r)
	}
	f.mu.Unlock()

	h := sha256.New()
	for i := range all {
		b, err := json.Marshal(all[i])
		if err != nil {
			s.logf("campaignd: fleet %s: digesting result %d: %v", f.id, i, err)
			continue
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	digest := hex.EncodeToString(h.Sum(nil))
	skus := campaign.Summarize(all).SKUs

	f.mu.Lock()
	f.digest = digest
	f.skus = skus
	f.state = "done"
	for ch := range f.subs {
		close(ch)
		delete(f.subs, ch)
	}
	close(f.done)
	st := f.statusLocked()
	f.mu.Unlock()

	if err := writeJSONFile(summaryPath(s.cfg.Dir, f.id), st); err != nil {
		s.logf("campaignd: fleet %s: writing summary: %v", f.id, err)
	}
	s.logf("campaignd: fleet %s done: %d campaigns, %d failed, digest %s",
		f.id, st.Campaigns, st.Failed, st.Digest[:12])
}

// scrubbedCopy returns a deep-enough copy of r with the observational,
// schedule-dependent fields zeroed — the canonical form the digest and
// ?scrub=1 results use. The copy never aliases mutable state of r.
func scrubbedCopy(r campaign.Result) campaign.Result {
	if r.Online != nil {
		o := *r.Online
		if o.Report != nil {
			rep := *o.Report
			o.Report = &rep
		}
		r.Online = &o
	}
	r.Scrub()
	return r
}

func (f *fleetState) statusLocked() FleetStatus {
	return FleetStatus{
		ID:        f.id,
		Name:      f.spec.Name,
		State:     f.state,
		Campaigns: len(f.results),
		Completed: f.completed,
		Failed:    f.failed,
		CacheHits: f.cacheHits,
		Digest:    f.digest,
		SKUs:      f.skus,
	}
}

func (f *fleetState) status() FleetStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.statusLocked()
}

// subscribe atomically snapshots the completed results (index order)
// and registers a live channel, so a streaming client sees every result
// exactly once. The returned channel is closed when the fleet finishes;
// it is nil if the fleet is already done.
func (f *fleetState) subscribe() ([]campaign.Result, chan campaign.Result) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var replay []campaign.Result
	for _, r := range f.results {
		if r != nil {
			replay = append(replay, *r)
		}
	}
	if f.state == "done" || f.state == "failed" {
		return replay, nil
	}
	ch := make(chan campaign.Result, len(f.jobs))
	f.subs[ch] = struct{}{}
	return replay, ch
}

func (f *fleetState) unsubscribe(ch chan campaign.Result) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.subs, ch)
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/fleets", s.handleSubmit)
	mux.HandleFunc("GET /v1/fleets", s.handleList)
	mux.HandleFunc("GET /v1/fleets/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/fleets/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /v1/fleets/{id}/results", s.handleResults)
	mux.HandleFunc("GET /v1/skus", s.handleSKUs)
	return mux
}

func (s *Server) fleet(r *http.Request) (*fleetState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.fleets[r.PathValue("id")]
	return f, ok
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// maxSubmitBytes bounds a POST /v1/fleets body: 1 GiB, two orders of
// magnitude above a realistic submission (24 campaigns over 128-page
// weight files post about 8.5 MB), so one request cannot grow the
// daemon's memory without limit. Larger bodies get 413. It is a
// variable only so tests can reach the limit without a gigabyte body.
var maxSubmitBytes int64 = 1 << 30

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec FleetSpec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes)).Decode(&spec); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(w, fmt.Sprintf("decoding fleet spec: %v", err), code)
		return
	}
	id, err := s.Submit(spec)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, http.StatusAccepted, struct {
		ID        string
		Campaigns int
	}{id, len(spec.Jobs)})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	fleets := make([]*fleetState, 0, len(s.order))
	for _, id := range s.order {
		fleets = append(fleets, s.fleets[id])
	}
	s.mu.Unlock()
	out := make([]FleetStatus, len(fleets))
	for i, f := range fleets {
		out[i] = f.status()
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	f, ok := s.fleet(r)
	if !ok {
		http.Error(w, "no such fleet", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, f.status())
}

// handleStream replays the fleet's completed results and then follows
// it live, one JSON line per campaign, until the fleet finishes or the
// client goes away.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	f, ok := s.fleet(r)
	if !ok {
		http.Error(w, "no such fleet", http.StatusNotFound)
		return
	}
	replay, live := f.subscribe()
	if live != nil {
		defer f.unsubscribe(live)
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for _, res := range replay {
		if enc.Encode(res) != nil {
			return
		}
	}
	if flusher != nil {
		flusher.Flush()
	}
	if live == nil {
		return
	}
	for {
		select {
		case res, ok := <-live:
			if !ok {
				return // fleet done
			}
			if enc.Encode(res) != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		case <-r.Context().Done():
			return
		case <-s.ctx.Done():
			return
		}
	}
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	f, ok := s.fleet(r)
	if !ok {
		http.Error(w, "no such fleet", http.StatusNotFound)
		return
	}
	scrub := r.URL.Query().Get("scrub") == "1"
	f.mu.Lock()
	var out []campaign.Result
	for _, res := range f.results {
		if res == nil {
			continue
		}
		if scrub {
			out = append(out, scrubbedCopy(*res))
		} else {
			out = append(out, *res)
		}
	}
	f.mu.Unlock()
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for _, res := range out {
		if enc.Encode(res) != nil {
			return
		}
	}
}

// handleSKUs aggregates every completed campaign across every fleet per
// stock-keeping unit — the daemon's cross-campaign results store.
func (s *Server) handleSKUs(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	fleets := make([]*fleetState, 0, len(s.order))
	for _, id := range s.order {
		fleets = append(fleets, s.fleets[id])
	}
	s.mu.Unlock()
	var all []campaign.Result
	for _, f := range fleets {
		f.mu.Lock()
		for _, res := range f.results {
			if res != nil {
				all = append(all, *res)
			}
		}
		f.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, campaign.Summarize(all).SKUs)
}
