package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"rowhammer/internal/campaign"
)

// testServer starts a daemon on dir with a real HTTP front end.
func testServer(t *testing.T, dir string, workers int) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Config{Dir: dir, Workers: workers, CacheEntries: 8, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	return s, hs
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d: %s", url, resp.StatusCode, b)
	}
	return b
}

func waitDone(t *testing.T, s *Server, id string) {
	t.Helper()
	done, ok := s.FleetDone(id)
	if !ok {
		t.Fatalf("fleet %s unknown", id)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Minute):
		t.Fatalf("fleet %s never finished", id)
	}
}

func fleetStatus(t *testing.T, s *Server, id string) FleetStatus {
	t.Helper()
	s.mu.Lock()
	f := s.fleets[id]
	s.mu.Unlock()
	if f == nil {
		t.Fatalf("fleet %s unknown", id)
	}
	return f.status()
}

// TestKillResumeDeterminism is the end-to-end checkpoint/resume
// acceptance test: a daemon killed mid-fleet and restarted on the same
// state directory finishes the fleet with the same digest — and the
// same scrubbed result bytes — as an uninterrupted daemon.
func TestKillResumeDeterminism(t *testing.T) {
	spec := DemoFleet(2) // 4 campaigns, 2 template identities

	// Reference: one daemon life, start to finish.
	sA, hsA := testServer(t, t.TempDir(), 2)
	idA, err := sA.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, sA, idA)
	stA := fleetStatus(t, sA, idA)
	bodyA := getBody(t, hsA.URL+"/v1/fleets/"+idA+"/results?scrub=1")
	hsA.Close()
	sA.Close()
	if stA.Failed != 0 || stA.Digest == "" {
		t.Fatalf("reference fleet: failed=%d digest=%q", stA.Failed, stA.Digest)
	}

	// Interrupted: single worker, kill the daemon after the first
	// campaign checkpoints.
	dirB := t.TempDir()
	sB, err := New(Config{Dir: dirB, Workers: 1, CacheEntries: 8, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	idB, err := sB.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Minute)
	for fleetStatus(t, sB, idB).Completed < 1 {
		if time.Now().After(deadline) {
			t.Fatal("first campaign never completed")
		}
		time.Sleep(time.Millisecond)
	}
	sB.Close() // the "kill": cancels the engine, fleet reverts to queued
	interrupted := fleetStatus(t, sB, idB)
	if interrupted.Completed >= interrupted.Campaigns {
		t.Skip("fleet finished before the kill landed; resume path not exercised")
	}
	t.Logf("killed daemon at %d/%d campaigns", interrupted.Completed, interrupted.Campaigns)

	// Second life on the same directory: the fleet must resume, not
	// restart, and converge to the reference digest.
	sB2, hsB2 := testServer(t, dirB, 2)
	defer hsB2.Close()
	defer sB2.Close()
	stResumed := fleetStatus(t, sB2, idB)
	if stResumed.Completed != interrupted.Completed {
		t.Fatalf("resumed daemon loaded %d completed campaigns, checkpoint had %d",
			stResumed.Completed, interrupted.Completed)
	}
	waitDone(t, sB2, idB)
	stB := fleetStatus(t, sB2, idB)
	if stB.Failed != 0 {
		t.Fatalf("resumed fleet failed %d campaigns", stB.Failed)
	}
	if stB.Digest != stA.Digest {
		t.Fatalf("resumed digest %s != uninterrupted digest %s", stB.Digest, stA.Digest)
	}
	if stB.CacheHits != stA.CacheHits {
		t.Fatalf("resumed CacheHits %d != uninterrupted %d", stB.CacheHits, stA.CacheHits)
	}
	bodyB := getBody(t, hsB2.URL+"/v1/fleets/"+idB+"/results?scrub=1")
	if !bytes.Equal(bodyA, bodyB) {
		t.Fatal("scrubbed result bytes differ between interrupted and uninterrupted runs")
	}
}

// TestThirdLifeServesDoneFleet asserts a finished fleet survives yet
// another daemon restart: status, digest and results come back from
// disk with no re-execution.
func TestThirdLifeServesDoneFleet(t *testing.T) {
	dir := t.TempDir()
	s, hs := testServer(t, dir, 2)
	id, err := s.Submit(DemoFleet(1))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, id)
	want := fleetStatus(t, s, id)
	wantBody := getBody(t, hs.URL+"/v1/fleets/"+id+"/results?scrub=1")
	hs.Close()
	s.Close()

	s2, hs2 := testServer(t, dir, 2)
	defer hs2.Close()
	defer s2.Close()
	got := fleetStatus(t, s2, id)
	if got.State != "done" || got.Digest != want.Digest {
		t.Fatalf("reloaded fleet state=%s digest=%s, want done/%s", got.State, got.Digest, want.Digest)
	}
	if !bytes.Equal(wantBody, getBody(t, hs2.URL+"/v1/fleets/"+id+"/results?scrub=1")) {
		t.Fatal("reloaded results differ")
	}
	// A done fleet's stream replays everything and closes.
	lines := bytes.Count(bytes.TrimSpace(getBody(t, hs2.URL+"/v1/fleets/"+id+"/stream")), []byte{'\n'}) + 1
	if lines != got.Campaigns {
		t.Fatalf("stream replayed %d lines, want %d", lines, got.Campaigns)
	}
}

// TestLoadKeepsFleetsThatNoLongerResolve starts a daemon over a state
// directory written by an older daemon that accepted Rounds:-1. That
// spec now fails submission checks; New must still succeed, serve the
// finished fleet from disk, mark the unfinished one failed with its
// checkpointed campaign kept, and go on accepting work.
func TestLoadKeepsFleetsThatNoLongerResolve(t *testing.T) {
	dir := t.TempDir()
	page := base64.StdEncoding.EncodeToString(make([]byte, 4096))
	job := `{"WeightFile":"` + page + `","Online":{"Rounds":-1}}`
	spec := `{"ID":"%s","Spec":{"Jobs":[` + job + `,` + job + `]},"SeedKeys":null}`
	write := func(id, name, body string) {
		t.Helper()
		if err := os.MkdirAll(fleetDir(dir, id), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(fleetDir(dir, id), name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"f000000", "f000001"} {
		write(id, "fleet.json", fmt.Sprintf(spec, id))
		write(id, "results.jsonl", `{"Index":0,"Name":"old-0"}`+"\n")
	}
	write("f000001", "summary.json", `{"ID":"f000001","State":"done","Digest":"abc"}`)

	s, hs := testServer(t, dir, 1)
	defer hs.Close()
	defer s.Close()
	for id, want := range map[string]string{"f000000": "failed", "f000001": "done"} {
		waitDone(t, s, id)
		st := fleetStatus(t, s, id)
		if st.State != want || st.Campaigns != 2 || st.Completed != 1 {
			t.Fatalf("fleet %s: state=%s campaigns=%d completed=%d, want %s/2/1",
				id, st.State, st.Campaigns, st.Completed, want)
		}
		lines := bytes.Count(getBody(t, hs.URL+"/v1/fleets/"+id+"/stream"), []byte{'\n'})
		if lines != 1 {
			t.Fatalf("fleet %s stream replayed %d lines, want 1", id, lines)
		}
	}
	if st := fleetStatus(t, s, "f000001"); st.Digest != "abc" {
		t.Fatalf("done fleet digest %q, want the saved one", st.Digest)
	}
	id, err := s.Submit(DemoFleet(1))
	if err != nil {
		t.Fatal(err)
	}
	if id != "f000002" {
		t.Fatalf("new fleet id %s, want f000002", id)
	}
	waitDone(t, s, id)
	if st := fleetStatus(t, s, id); st.State != "done" || st.Failed != 0 {
		t.Fatalf("new fleet state=%s failed=%d", st.State, st.Failed)
	}
}

// TestStreamDeliversEveryResultOnce subscribes before the fleet runs
// and asserts the stream yields exactly one line per campaign, with
// replay and live delivery never duplicating or dropping.
func TestStreamDeliversEveryResultOnce(t *testing.T) {
	s, hs := testServer(t, t.TempDir(), 2)
	defer hs.Close()
	defer s.Close()
	id, err := s.Submit(DemoFleet(1))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(hs.URL + "/v1/fleets/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body) // blocks until the fleet closes the stream
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]int{}
	dec := json.NewDecoder(bytes.NewReader(body))
	for dec.More() {
		var r campaign.Result
		if err := dec.Decode(&r); err != nil {
			t.Fatal(err)
		}
		seen[r.Index]++
	}
	st := fleetStatus(t, s, id)
	if len(seen) != st.Campaigns {
		t.Fatalf("stream covered %d campaigns, want %d", len(seen), st.Campaigns)
	}
	for idx, n := range seen {
		if n != 1 {
			t.Fatalf("campaign %d streamed %d times", idx, n)
		}
	}
}

// TestSKUAggregationAcrossFleets submits two fleets and asserts
// /v1/skus folds both into one per-SKU view — the daemon's
// cross-campaign results store.
func TestSKUAggregationAcrossFleets(t *testing.T) {
	s, hs := testServer(t, t.TempDir(), 2)
	defer hs.Close()
	defer s.Close()
	for i := 0; i < 2; i++ {
		id, err := s.Submit(DemoFleet(1))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, s, id)
	}
	var skus []campaign.SKUStats
	if err := json.Unmarshal(getBody(t, hs.URL+"/v1/skus"), &skus); err != nil {
		t.Fatal(err)
	}
	if len(skus) != 2 {
		t.Fatalf("aggregated %d SKUs, want 2", len(skus))
	}
	for _, sku := range skus {
		if sku.Campaigns != 2 {
			t.Fatalf("SKU %s aggregates %d campaigns across fleets, want 2", sku.SKU, sku.Campaigns)
		}
	}
}

// badSpecs are submissions the daemon must refuse: malformed JSON,
// empty fleets, unknown devices, misaligned weight files, and online
// knobs or module sizes the engine would reject at run time.
func badSpecs() []string {
	page := base64.StdEncoding.EncodeToString(make([]byte, 4096))
	job := func(fields string) string {
		return `{"Jobs":[{"WeightFile":"` + page + `",` + fields + `}]}`
	}
	return []string{
		`{not json`,
		`{}`,
		`{"Jobs":[{"WeightFile":"aGk=","Module":{"Device":"nope"}}]}`,
		`{"Jobs":[{"WeightFile":"aGk=","Online":{"BufferPages":64}}]}`, // 2 bytes: misaligned
		job(`"Online":{"Rounds":-1}`),
		job(`"Online":{"Escalation":-2}`),
		job(`"Online":{"RetemplatePasses":-1}`),
		job(`"Online":{"MaxBufferPages":-1}`),
		job(`"Module":{"SizeMB":16385}`),                            // above the 16 GB maximum
		job(`"Module":{"SizeMB":-1}`),                               // negative size
		job(`"Module":{"SizeMB":16},"Online":{"BufferPages":8192}`), // buffer larger than the 4096-page module
	}
}

// countFleets returns how many fleets the daemon lists.
func countFleets(t *testing.T, hs *httptest.Server) int {
	t.Helper()
	var fleets []FleetStatus
	if err := json.Unmarshal(getBody(t, hs.URL+"/v1/fleets"), &fleets); err != nil {
		t.Fatal(err)
	}
	return len(fleets)
}

// TestSubmitRejectsBadSpecs exercises validation through the HTTP
// surface: every badSpecs body must 400 without leaving state behind.
func TestSubmitRejectsBadSpecs(t *testing.T) {
	s, hs := testServer(t, t.TempDir(), 1)
	defer hs.Close()
	defer s.Close()
	for _, body := range badSpecs() {
		resp, err := http.Post(hs.URL+"/v1/fleets", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("spec %.80q: HTTP %d, want 400", body, resp.StatusCode)
		}
		t.Logf("rejected: %s", bytes.TrimSpace(msg))
	}
	if n := countFleets(t, hs); n != 0 {
		t.Fatalf("%d fleets exist after rejected submissions, want 0", n)
	}
	if _, err := New(Config{Dir: ""}); err == nil {
		t.Fatal("New accepted an empty state directory")
	}
}

// TestSubmitRejectsOversizedBody lowers the body bound below a real
// fleet spec: the POST must answer 413 and create no fleet.
func TestSubmitRejectsOversizedBody(t *testing.T) {
	defer func(prev int64) { maxSubmitBytes = prev }(maxSubmitBytes)
	maxSubmitBytes = 1 << 10
	s, hs := testServer(t, t.TempDir(), 1)
	defer s.Close()
	defer hs.Close()
	body, err := json.Marshal(DemoFleet(1))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(hs.URL+"/v1/fleets", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("%d-byte spec over a %d-byte bound: HTTP %d, want 413", len(body), maxSubmitBytes, resp.StatusCode)
	}
	if n := countFleets(t, hs); n != 0 {
		t.Fatalf("%d fleets exist after an oversized submission, want 0", n)
	}
}

// TestCloseLeavesNoGoroutines pins daemon teardown: Close on an idle
// and on a busy server must retire the run loop and every engine
// goroutine.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	dir := t.TempDir()
	s, err := New(Config{Dir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(DemoFleet(1)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // let the fleet get going
	s.Close()

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("%d goroutines outlive Close (baseline %d)", n, baseline)
	}
}
