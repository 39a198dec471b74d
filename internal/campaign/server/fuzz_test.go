package server

import (
	"encoding/json"
	"testing"
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
