package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail read off fewer samples than this is noise, so the harness
// reports it as missing (NaN) instead of as a number.
const minBeyond = 10

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), NaN for none.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-quantile of xs (0 < p < 1): the
// smallest sample with at least a p share of the samples at or below
// it. ok is false when fewer than minBeyond samples lie above that rank.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), false
	}
	rank := int(math.Ceil(p*float64(n) - 1e-9)) // 1-based
	rank = max(1, min(rank, n))
	return sorted(xs)[rank-1], n-rank >= minBeyond
}

// tail is percentile with the rule applied: NaN unless the tail holds
// minBeyond samples.
func tail(xs []float64, p float64) float64 {
	if v, ok := percentile(xs, p); ok {
		return v
	}
	return math.NaN()
}

// minSamples is the fewest samples whose p-quantile has minBeyond
// samples above it.
func minSamples(p float64) int {
	for n := 1; ; n++ {
		if _, ok := percentile(make([]float64, n), p); ok {
			return n
		}
	}
}

func values(m map[int]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// pairedDiff returns a[op]-b[op] for every op present in both.
func pairedDiff(a, b map[int]float64) []float64 {
	var out []float64
	for op, x := range a {
		if y, ok := b[op]; ok {
			out = append(out, x-y)
		}
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
