package main

import (
	"math"
	"slices"
	"testing"
)

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(v, n=4) for these inputs.
	cases := []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{2.5, 3.1, 2.9, 3.0, 2.7, 10.0, 2.8}, 2.7, 2.9, 3.1},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", s)
	}
}

func TestMedianAndPercentileAgainstSortedOracle(t *testing.T) {
	x := uint64(1)
	for n := 1; n <= 200; n++ {
		samples := make([]int64, n)
		floats := make([]float64, n)
		for i := range samples {
			x = x*6364136223846793005 + 1442695040888963407
			samples[i] = int64(x >> 40)
			floats[i] = float64(samples[i])
		}
		sorted := slices.Clone(samples)
		slices.Sort(sorted)
		wantMedian := float64(sorted[n/2])
		if n%2 == 0 {
			wantMedian = (float64(sorted[n/2-1]) + float64(sorted[n/2])) / 2
		}
		if got := median(floats); got != wantMedian {
			t.Fatalf("n=%d: median %v, want %v", n, got, wantMedian)
		}
		for _, p := range []float64{0, 1, 50, 90, 99, 99.9, 100} {
			// Nearest rank: the smallest value with at least p% of the
			// samples at or below it.
			want := sorted[n-1]
			for _, v := range sorted {
				atOrBelow := 0
				for _, u := range sorted {
					if u <= v {
						atOrBelow++
					}
				}
				if float64(atOrBelow) >= p/100*float64(n) {
					want = v
					break
				}
			}
			if got := percentile(sorted, p); got != want {
				t.Fatalf("n=%d p=%v: percentile %d, want %d", n, p, got, want)
			}
		}
	}
}

func TestHighestPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9}, {100000, 99.99}, {5000000, 99.99}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "t", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "r", Better: "higher", Bound: 0.10}
	tight := func(m float64) []float64 { return []float64{m * 0.99, m, m * 1.01} }
	wide := func(m float64) []float64 { return []float64{m * 0.7, m, m * 1.3} }
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, tight(100), tight(100), verdictWithin},
		{"slightly slower", lower, tight(100), tight(105), verdictWithin},
		{"slower beyond bound", lower, tight(100), tight(120), verdictWorse},
		{"faster", lower, tight(100), tight(80), verdictBetter},
		{"rate dropped", higher, tight(100), tight(80), verdictWorse},
		{"rate rose", higher, tight(100), tight(130), verdictBetter},
		{"noisy and overlapping", lower, wide(100), wide(115), verdictUnresolved},
		{"noisy but every run slower", lower, wide(100), wide(300), verdictWorse},
		{"noisy but every run faster", lower, wide(300), wide(100), verdictBetter},
	} {
		if got, _, _, _ := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
