package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestMetricNames(t *testing.T) {
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range metricDefs {
		if !metricNameRE.MatchString(m.Name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+ starting with a letter or digit", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric %q defined twice", m.Name)
		}
		seen[m.Name] = true
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %q: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %q: better = %q", m.Name, m.Better)
		}
		for _, w := range workloads {
			if !m.PerLayer && e2eMeaning[m.Name][w.name] == "" {
				t.Errorf("end-to-end metric %q: no meaning given for workload %s", m.Name, w.name)
			}
		}
		if m.PerLayer && m.Moves == "" {
			t.Errorf("per-layer metric %q names no end-to-end metric it moves", m.Name)
		}
		if !m.PerLayer && (m.Bound <= 0 || m.Bound > 0.25) {
			t.Errorf("end-to-end metric %q: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric table in
// step: the same workloads, and the same metrics with the same units,
// directions and bounds.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q here", i, w.Name, workloads[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: why has %d characters", w.Name, len(w.Why))
		}
	}
	defs := map[string]metricDef{}
	nE2E, nLayer := 0, 0
	for _, m := range metricDefs {
		defs[m.Name] = m
		if m.PerLayer {
			nLayer++
		} else {
			nE2E++
		}
	}
	if len(bf.EndToEnd) != nE2E || len(bf.PerLayer) != nLayer {
		t.Errorf("BENCHMARK.json lists %d end-to-end and %d per-layer metrics, the benchmark reports %d and %d",
			len(bf.EndToEnd), len(bf.PerLayer), nE2E, nLayer)
	}
	for _, m := range bf.EndToEnd {
		d, ok := defs[m.Name]
		if !ok || d.PerLayer || d.Unit != m.Unit || d.Better != m.Better || d.Bound != m.Bound {
			t.Errorf("end-to-end %+v does not match the benchmark's %+v", m, d)
		}
	}
	for _, m := range bf.PerLayer {
		d, ok := defs[m.Name]
		if !ok || !d.PerLayer || d.Unit != m.Unit || d.Better != m.Better {
			t.Errorf("per-layer %+v does not match the benchmark's %+v", m, d)
		}
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d", bf.RunSeconds)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "e2ebench" {
		t.Errorf("paths %v", bf.Paths)
	}
}
