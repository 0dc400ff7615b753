package main

import (
	"math"
	"sort"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: a tail estimate resting on fewer is one or two outliers.
const minTail = 10

// median returns the median of xs (mean of the middle pair for an even
// count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank returns the nearest-rank p-quantile of xs (0 < p <= 1): the
// smallest sample with at least p of the samples at or below it.
func nearestRank(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	return s[rankIndex(len(s), p)]
}

// rankIndex is the zero-based index of the nearest-rank p-quantile among n
// sorted samples.
func rankIndex(n int, p float64) int {
	k := int(math.Ceil(p*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return k
}

// hasTail reports whether the nearest-rank p-quantile of n samples has at
// least minTail samples beyond it.
func hasTail(n int, p float64) bool {
	return n > 0 && n-1-rankIndex(n, p) >= minTail
}

// highestTailPercentile returns the highest percentile (in [0, 1)) that
// still has minTail samples beyond it among n samples, and false when n is
// too small for any.
func highestTailPercentile(n int) (float64, bool) {
	if n <= minTail {
		return 0, false
	}
	return float64(n-minTail) / float64(n), true
}

// minSamplesFor returns the smallest sample count at which the p-quantile
// has minTail samples beyond it.
func minSamplesFor(p float64) int {
	n := minTail + 1
	for !hasTail(n, p) {
		n++
	}
	return n
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// relL2 returns ||got - want|| / ||want||.
func relL2(got, want []float64) float64 {
	var num, den float64
	for i := range want {
		d := got[i] - want[i]
		num += d * d
		den += want[i] * want[i]
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}
