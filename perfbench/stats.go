package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie strictly beyond a percentile
// before it is reported: fewer, and the percentile tracks a handful of
// outliers instead of the distribution.
const minBeyond = 10

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no samples. A median is always reportable;
// it is the statistic percentiles are judged against.
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

// percentile returns the nearest-rank p-quantile of xs (0 < p < 1). ok is
// false when fewer than minBeyond samples lie beyond it, in which case the
// value must not be printed.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, false
	}
	return sorted(xs)[rank-1], true
}

// geomean is the geometric mean of strictly positive values; 0 when xs is
// empty or holds a value that is not positive.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if !(x > 0) {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// share is num/den, or 0 when nothing was attempted.
func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// classMedians returns each class's median, in sorted class order, and the
// smallest per-class sample count. Batch latencies are combined across
// programs only through these medians: each program counts once, however
// different the programs' sizes.
func classMedians(byClass map[string][]float64) (meds []float64, minN int) {
	for i, name := range sortedKeys(byClass) {
		xs := byClass[name]
		meds = append(meds, median(xs))
		if i == 0 || len(xs) < minN {
			minN = len(xs)
		}
	}
	return meds, minN
}

// flatten pools every class's samples.
func flatten(byClass map[string][]float64) []float64 {
	var out []float64
	for _, xs := range byClass {
		out = append(out, xs...)
	}
	return out
}

func sortedKeys(m map[string][]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
