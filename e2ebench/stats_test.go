package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}, {0.01, 1}, {0.1, 1}, {0.11, 2},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{3}); got != 3 {
		t.Errorf("median of one = %v", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of an empty sample is not NaN")
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

func TestSampleCountRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{1000, 0.99, true}, {999, 0.99, false}, {100, 0.9, true}, {99, 0.9, false},
		{20, 0.5, true}, {19, 0.5, false}, {10000, 0.999, true}, {9999, 0.999, false},
	} {
		if got := supports(c.n, c.q); got != c.want {
			t.Errorf("supports(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {20, 0.5}, {150, 0.9}, {1400, 0.99}, {20000, 0.999}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPoissonScheduleFromSeed(t *testing.T) {
	const rate, dur = 1000.0, 10 * time.Second
	a := poissonSchedule(7, rate, dur)
	b := poissonSchedule(7, rate, dur)
	c := poissonSchedule(8, rate, dur)
	if len(a) != len(b) {
		t.Fatalf("same seed, different lengths %d and %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed differs at %d", i)
		}
	}
	if len(a) == len(c) && a[0] == c[0] && a[len(a)-1] == c[len(c)-1] {
		t.Error("different seeds gave the same schedule")
	}
	if got := float64(len(a)) / dur.Seconds(); math.Abs(got-rate)/rate > 0.05 {
		t.Errorf("mean rate %.1f/s, want %.0f/s within 5%%", got, rate)
	}
	for i, at := range a {
		if at < 0 || at >= dur || (i > 0 && at < a[i-1]) {
			t.Fatalf("offset %d = %v out of order or range", i, at)
		}
	}
}

func TestPeriodicSchedule(t *testing.T) {
	p, j := 4*time.Millisecond, time.Millisecond
	s := periodicSchedule(3, p, j, time.Second)
	if len(s) != 249 {
		t.Fatalf("%d writes in 1s at 4ms, want 249", len(s))
	}
	for i, at := range s {
		base := time.Duration(i+1) * p
		if at < base-j || at > base+j {
			t.Fatalf("write %d at %v, outside %v±%v", i, at, base, j)
		}
	}
	s2 := periodicSchedule(3, p, j, time.Second)
	for i := range s {
		if s[i] != s2[i] {
			t.Fatal("same seed, different storm schedule")
		}
	}
}

func TestChunkedP99(t *testing.T) {
	// 3300 samples: three chunks; one stall of 40 outliers in the
	// second chunk moves that chunk's p99 only.
	xs := make([]float64, 3300)
	for i := range xs {
		xs[i] = float64(i % 100)
	}
	for i := 1200; i < 1240; i++ {
		xs[i] = 1000
	}
	p, k := chunkedP99(xs)
	if k != 3 || p != 98 {
		t.Errorf("chunkedP99 = %v over %d chunks, want 98 over 3", p, k)
	}
	if got := percentile(xs, 0.99); got != 1000 {
		t.Errorf("whole-sample p99 = %v, want the stall's 1000", got)
	}
	if p, k := chunkedP99(xs[:500]); k != 1 || p != percentile(xs[:500], 0.99) {
		t.Errorf("short sample: %v over %d chunks", p, k)
	}
}
