package server

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"rowhammer/internal/campaign"
)

// FuzzFleetSpecResolve feeds arbitrary POST /v1/fleets bodies through
// decode and Resolve, which must never panic. For every accepted spec
// it checks the resume contract: the spec marshalled, decoded and
// resolved again yields the same campaign names and template
// fingerprints as the first resolution.
func FuzzFleetSpecResolve(f *testing.F) {
	demo, err := json.Marshal(DemoFleet(1))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(demo)
	for _, body := range badSpecs() {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec FleetSpec
		if json.Unmarshal(body, &spec) != nil {
			return
		}
		jobs, err := spec.Resolve()
		if err != nil {
			return
		}
		wire, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("marshal accepted spec: %v", err)
		}
		var again FleetSpec
		if err := json.Unmarshal(wire, &again); err != nil {
			t.Fatalf("decode marshalled spec: %v", err)
		}
		jobs2, err := again.Resolve()
		if err != nil {
			t.Fatalf("round-tripped spec rejected: %v", err)
		}
		if len(jobs2) != len(jobs) {
			t.Fatalf("round trip resolved %d jobs, want %d", len(jobs2), len(jobs))
		}
		for i := range jobs {
			if jobs2[i].Name != jobs[i].Name || jobs2[i].Fingerprint() != jobs[i].Fingerprint() {
				t.Fatalf("job %d: round trip gives %q/%s, want %q/%s", i,
					jobs2[i].Name, jobs2[i].Fingerprint(), jobs[i].Name, jobs[i].Fingerprint())
			}
		}
	})
}

// FuzzLoadResults exercises the results.jsonl replay behind resume.
// A log of complete result lines followed by a torn last line (any
// strict prefix of one more line, as a daemon killed mid-append leaves
// it) must replay to exactly the complete lines. A complete line whose
// index is outside the fleet must be an error. Arbitrary trailing
// bytes must never make the replay panic.
func FuzzLoadResults(f *testing.F) {
	f.Add(uint8(3), uint8(4), uint16(17), int16(2), []byte(`{"Index":`))
	f.Add(uint8(0), uint8(1), uint16(0), int16(-1), []byte(nil))
	f.Add(uint8(7), uint8(5), uint16(900), int16(5), []byte("null\n{}\n\n"))
	f.Fuzz(func(t *testing.T, nValid, nCampaigns uint8, cut uint16, extra int16, tail []byte) {
		campaigns := int(nCampaigns)%8 + 1
		sample := func(index, i int) campaign.Result {
			return campaign.Result{
				Index: index, Name: fmt.Sprintf("job-%d", i), SKU: "K1",
				CacheHit: i%2 == 1, ArenaBytes: int64(i) << 20,
			}
		}
		var prefix []byte
		want := map[int]campaign.Result{}
		for i := 0; i < int(nValid)%8; i++ {
			r := sample(i%campaigns, i)
			b, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			prefix = append(append(prefix, b...), '\n')
			want[r.Index] = r
		}
		last, err := json.Marshal(sample(int(extra), 99))
		if err != nil {
			t.Fatal(err)
		}

		dir := t.TempDir()
		const id = "000001"
		if err := os.MkdirAll(fleetDir(dir, id), 0o755); err != nil {
			t.Fatal(err)
		}
		replay := func(log []byte) (map[int]campaign.Result, error) {
			if err := os.WriteFile(resultsPath(dir, id), log, 0o644); err != nil {
				t.Fatal(err)
			}
			return loadResults(dir, id, campaigns)
		}

		torn := last[:int(cut)%len(last)]
		got, err := replay(append(append([]byte(nil), prefix...), torn...))
		if err != nil {
			t.Fatalf("torn tail %q: %v", torn, err)
		}
		if len(want) == 0 && got == nil {
			got = map[int]campaign.Result{}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("torn tail %q replayed %v, want the complete lines %v", torn, got, want)
		}

		full := append(append(append([]byte(nil), prefix...), last...), '\n')
		got, err = replay(full)
		inRange := int(extra) >= 0 && int(extra) < campaigns
		switch {
		case !inRange && err == nil:
			t.Fatalf("index %d of %d campaigns replayed without error", extra, campaigns)
		case inRange && err != nil:
			t.Fatalf("in-range index %d: %v", extra, err)
		case inRange:
			want[int(extra)] = sample(int(extra), 99)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("complete extra line replayed %v, want %v", got, want)
			}
		}

		_, _ = replay(append(append([]byte(nil), prefix...), tail...))
	})
}
