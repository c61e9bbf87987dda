package main

import (
	"math"
	"sort"
)

// minTail is the number of samples a reported tail percentile must have
// beyond it; with fewer samples a "p99" is one sample, not a percentile.
const minTail = 10

// median returns the middle value of xs (the mean of the middle two for
// an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs, or 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// tailPercentile reports the value at the highest percentile up to want
// (a fraction, 0.99 for p99) that still leaves at least minTail samples
// beyond it, and that percentile. It never reports below the median, so
// a small sample degrades to p50 rather than to its minimum.
func tailPercentile(xs []float64, want float64) (value, q float64) {
	n := len(xs)
	if n == 0 {
		return 0, want
	}
	q = want
	if lim := 1 - float64(minTail)/float64(n); lim < q {
		q = lim
	}
	if q < 0.5 {
		q = 0.5
	}
	if q == 0.5 {
		return median(xs), q
	}
	// The value with (1−q)·n samples above it; the small addend absorbs
	// rounding in (1−q)·n, which is whole at the limiting q.
	k := int(math.Floor((1-q)*float64(n) + 1e-9))
	return sorted(xs)[n-1-k], q
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
