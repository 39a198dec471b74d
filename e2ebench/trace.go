package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one
// operation (one attack, one fleet, one request, one storm write) share
// Op; Parent is the ID of the span that caused it (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`

	tr *tracer
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: start returns nil and every span method is a no-op, so
// traced and untraced runs execute the same benchmark code.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	nextID int64
	nextOp int64
	spans  []*span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// newOp returns a fresh operation id.
func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextOp++
	return t.nextOp
}

// start opens a span now.
func (t *tracer) start(name string, parent *span, op int64) *span {
	return t.startAt(name, parent, op, time.Now())
}

// startAt opens a span at a given instant (an open-loop request starts
// at its due time, not when the generator got round to sending it).
func (t *tracer) startAt(name string, parent *span, op int64, at time.Time) *span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	s := &span{ID: t.nextID, Op: op, Name: name, Start: at.Sub(t.origin).Nanoseconds(), tr: t}
	if parent != nil {
		s.Parent = parent.ID
		if op == 0 {
			s.Op = parent.Op
		}
	}
	t.spans = append(t.spans, s)
	return s
}

func (s *span) end() { s.endAt(time.Now()) }

func (s *span) endAt(at time.Time) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.End = at.Sub(s.tr.origin).Nanoseconds()
	s.tr.mu.Unlock()
}

// seconds is the span's duration.
func (s *span) seconds() float64 {
	if s == nil {
		return 0
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	return float64(s.End-s.Start) / 1e9
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the spans as JSON lines under runDir/traces.
func (t *tracer) write(workload string, seed int64) (string, error) {
	dir := filepath.Join(runDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
