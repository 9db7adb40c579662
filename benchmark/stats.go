package main

import (
	"math"
	"slices"
)

func sortedCopy(v []float64) []float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the cut points Python's statistics.quantiles(v, n=4)
// gives (its default "exclusive" method), so a spread computed here is the
// one the driver computes. Fewer than two values have no spread.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		m := median(v)
		return m, m, m
	}
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

// percentile is the nearest-rank percentile (p in [0,100]) of sorted samples.
func percentile(sorted []int64, p float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	return sorted[min(max(rank, 1), n)-1]
}

// highestPercentile is the highest of 50, 90, 99, 99.9, 99.99 that still
// has at least ten samples beyond it.
func highestPercentile(n int) float64 {
	best := 50.0
	for _, c := range []struct {
		p       float64
		oneInto int // one sample in this many lies beyond p
	}{{90, 10}, {99, 100}, {99.9, 1000}, {99.99, 10000}} {
		if n >= 10*c.oneInto {
			best = c.p
		}
	}
	return best
}
