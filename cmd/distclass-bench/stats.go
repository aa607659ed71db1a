package main

import (
	"math"
	"math/bits"
	"sort"
	"sync/atomic"
	"time"

	"distclass/internal/metrics"
)

// summary is a metric's distribution over the samples of one run.
type summary struct {
	Median float64 `json:"median"`
	P25    float64 `json:"p25"`
	P75    float64 `json:"p75"`
	N      int     `json:"n"`
}

// summarize returns the median and quartiles of xs, computed as
// Python's statistics.quantiles(xs, n=4) does (the "exclusive" method),
// so the numbers match the tools that compare runs.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return summary{}
	case 1:
		return summary{Median: s[0], P25: s[0], P75: s[0], N: 1}
	}
	q := func(i int) float64 {
		n, m := 4, len(s)+1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(float64(n)-delta) + s[j]*delta) / float64(n)
	}
	return summary{Median: q(2), P25: q(1), P75: q(3), N: len(s)}
}

// histSub is the number of log-histogram buckets per octave: bucket
// widths are 2^(1/8) ≈ 9%, interpolated linearly inside a bucket.
const histSub = 8

// logHist is a lock-free log-bucket histogram of durations. Method calls
// number in the millions per run, too many to keep as spans, so each
// call lands here instead: a count, a sum and a bucket.
type logHist struct {
	count   atomic.Int64
	sumNs   atomic.Int64
	buckets [64 * histSub]atomic.Int64
}

func (h *logHist) observe(d time.Duration) {
	ns := int64(d)
	if ns < 1 {
		ns = 1
	}
	h.count.Add(1)
	h.sumNs.Add(ns)
	h.buckets[bucketOf(ns)].Add(1)
}

// bucketOf maps ns >= 1 to its bucket: the octave from the bit length,
// the sub-bucket from the next three bits below the leading one.
func bucketOf(ns int64) int {
	octave := bits.Len64(uint64(ns)) - 1
	var frac int
	if octave >= 3 {
		frac = int(ns>>(octave-3)) & (histSub - 1)
	} else {
		frac = int(ns<<(3-octave)) & (histSub - 1)
	}
	return octave*histSub + frac
}

// bucketLow is the smallest duration (ns) bucket b holds.
func bucketLow(b int) float64 {
	octave, frac := b/histSub, b%histSub
	return math.Ldexp(1+float64(frac)/histSub, octave)
}

// quantile returns the q-quantile in nanoseconds, interpolated inside
// the bucket that holds it; 0 when nothing was observed.
func (h *logHist) quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var cum float64
	for b := range h.buckets {
		n := h.buckets[b].Load()
		c := float64(n)
		if n == 0 || cum+c < target {
			cum += c
			continue
		}
		lo, hi := bucketLow(b), bucketLow(b+1)
		return lo + (hi-lo)*(target-cum)/c
	}
	return bucketLow(len(h.buckets))
}

func (h *logHist) sum() time.Duration { return time.Duration(h.sumNs.Load()) }

// mean returns the mean in nanoseconds; 0 when nothing was observed.
func (h *logHist) mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sumNs.Load()) / float64(n)
}

// snapshotQuantile returns the q-quantile of a registry histogram,
// interpolated linearly inside the bucket that holds it; 0 when the
// histogram is empty.
func snapshotQuantile(h metrics.HistogramSnapshot, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	target := q * float64(h.Count)
	var cum float64
	for i, c := range h.Counts {
		fc := float64(c)
		if c == 0 || cum+fc < target {
			cum += fc
			continue
		}
		if i >= len(h.Bounds) {
			return h.Bounds[len(h.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.Bounds[i-1]
		}
		return lo + (h.Bounds[i]-lo)*(target-cum)/fc
	}
	return h.Bounds[len(h.Bounds)-1]
}
