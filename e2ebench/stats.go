package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs: the
// smallest value with at least q·n samples at or below it. It returns
// NaN for an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// minSamplesBeyond is how many samples must lie beyond a reported
// percentile for it to be reported at all.
const minSamplesBeyond = 10

// supports reports whether n samples support the q-quantile: at least
// minSamplesBeyond of them lie above it.
func supports(n int, q float64) bool {
	return float64(n)*(1-q) >= minSamplesBeyond-1e-9
}

// highestSupported is the highest of the usual reporting percentiles
// that n samples support, or 0 when not even the median is.
func highestSupported(n int) float64 {
	best := 0.0
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		if supports(n, q) {
			best = q
		}
	}
	return best
}

// chunkSamples is the size of the consecutive chunks a tail percentile
// is taken over: enough for p99 to have minSamplesBeyond samples
// beyond it, with margin for a Poisson stream's count falling short.
const chunkSamples = 1100

// chunkedP99 splits xs, in arrival order, into equal consecutive chunks
// of at least chunkSamples and returns the median of the chunks' p99s
// and the chunk count. One stall on a shared machine then moves one
// chunk's tail, not the reported figure. With fewer than chunkSamples
// samples it is the p99 of the whole sample.
func chunkedP99(xs []float64) (float64, int) {
	k := len(xs) / chunkSamples
	if k < 1 {
		return percentile(xs, 0.99), 1
	}
	var p99s []float64
	for i := 0; i < k; i++ {
		p99s = append(p99s, percentile(xs[i*len(xs)/k:(i+1)*len(xs)/k], 0.99))
	}
	return median(p99s), k
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// poissonSchedule returns the due offsets of an open-loop Poisson
// arrival stream at rate per second over dur, drawn from seed. The
// same seed always yields the same schedule.
func poissonSchedule(seed int64, rate float64, dur time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= dur {
			return out
		}
		out = append(out, at)
	}
}

// periodicSchedule returns due offsets every period, each jittered by a
// seeded uniform draw in [-jitter, +jitter], over dur.
func periodicSchedule(seed int64, period, jitter, dur time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	for base := period; base < dur; base += period {
		j := time.Duration((2*rng.Float64() - 1) * float64(jitter))
		out = append(out, base+j)
	}
	return out
}
