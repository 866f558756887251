package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a quoted tail percentile, so
// a tail is never set by a handful of samples.
const minBeyond = 10

// percentile returns the p-th percentile (0..100) of xs, interpolating
// linearly between the closest ranks. xs need not be sorted and is not
// modified. An empty xs yields NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(r))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (r-float64(lo))*(s[lo+1]-s[lo])
}

// beyond is the number of samples out of n that lie above the p-th
// percentile.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(float64(n)*p/100-1e-9))
}

// latency summarizes one class of timed operations, in milliseconds.
type latency struct {
	ms []float64
}

func (l *latency) add(ms float64) { l.ms = append(l.ms, ms) }

func (l *latency) p50() float64 { return percentile(l.ms, 50) }

// tailAt is the p-th percentile, or NaN when fewer than minBeyond samples
// lie above it.
func (l *latency) tailAt(p float64) float64 {
	if len(l.ms) < minSamples(p) {
		return math.NaN()
	}
	return percentile(l.ms, p)
}

// minSamples is the fewest samples that leave minBeyond above the p-th
// percentile.
func minSamples(p float64) int {
	n := 1
	for beyond(n, p) < minBeyond {
		n++
	}
	return n
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// geomean is the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
