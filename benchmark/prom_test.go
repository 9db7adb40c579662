package main

import (
	"math"
	"testing"
)

const promBefore = `# HELP nbtried_commands_total Commands dispatched, by command.
# TYPE nbtried_commands_total counter
nbtried_commands_total{cmd="get"} 100
nbtried_commands_total{cmd="set"} 10
nbtried_keys 5
nbtried_command_latency_seconds_bucket{cmd="get",le="1e-06"} 90
nbtried_command_latency_seconds_bucket{cmd="get",le="4e-06"} 100
nbtried_command_latency_seconds_bucket{cmd="get",le="+Inf"} 100
nbtried_command_latency_seconds_sum{cmd="get"} 0.0002
nbtried_command_latency_seconds_count{cmd="get"} 100
`

// After 100 more GETs (80 under 1us, 15 in the 2us bucket that was empty
// and so unlisted before, 5 in the 4us bucket) and 20 SETs (all 2us).
const promAfter = `nbtried_commands_total{cmd="get"} 200
nbtried_commands_total{cmd="set"} 30
nbtried_keys 7
nbtried_command_latency_seconds_bucket{cmd="get",le="1e-06"} 170
nbtried_command_latency_seconds_bucket{cmd="get",le="2e-06"} 185
nbtried_command_latency_seconds_bucket{cmd="get",le="4e-06"} 200
nbtried_command_latency_seconds_bucket{cmd="get",le="+Inf"} 200
nbtried_command_latency_seconds_sum{cmd="get"} 0.0005
nbtried_command_latency_seconds_count{cmd="get"} 200
nbtried_command_latency_seconds_bucket{cmd="set",le="1e-06"} 0
nbtried_command_latency_seconds_bucket{cmd="set",le="2e-06"} 20
nbtried_command_latency_seconds_bucket{cmd="set",le="+Inf"} 20
nbtried_command_latency_seconds_sum{cmd="set"} 0.00004
nbtried_command_latency_seconds_count{cmd="set"} 20
`

func TestPromScrapeAndHistogramDelta(t *testing.T) {
	before, after := parseProm(promBefore), parseProm(promAfter)
	if got := after[`nbtried_commands_total{cmd="get"}`]; got != 200 {
		t.Errorf("get count %v", got)
	}
	if got := after.sum("nbtried_commands_total") - before.sum("nbtried_commands_total"); got != 120 {
		t.Errorf("commands in the window: %v, want 120", got)
	}
	if got := after.sum("nbtried_keys"); got != 7 {
		t.Errorf("unlabelled series: %v", got)
	}
	h := after.hist("nbtried_command_latency_seconds").since(before.hist("nbtried_command_latency_seconds"))
	wantLE := []float64{1e-6, 2e-6, 4e-6, math.Inf(1)}
	wantCount := []float64{80, 35, 5, 0}
	if len(h.le) != len(wantLE) {
		t.Fatalf("bounds %v", h.le)
	}
	for i := range wantLE {
		if h.le[i] != wantLE[i] || h.count[i] != wantCount[i] {
			t.Errorf("bucket %d: le %v count %v, want %v %v", i, h.le[i], h.count[i], wantLE[i], wantCount[i])
		}
	}
	if h.n != 120 || math.Abs(h.mean()-0.00034/120) > 1e-12 {
		t.Errorf("n %v mean %v", h.n, h.mean())
	}
	if q := h.quantile(0.5); q != 1e-6 {
		t.Errorf("p50 %v, want 1e-06", q)
	}
	if q := h.quantile(0.9); q != 2e-6 {
		t.Errorf("p90 %v, want 2e-06", q)
	}
	if q := h.quantile(0.99); q != 4e-6 {
		t.Errorf("p99 %v, want 4e-06", q)
	}
	if q := (promHist{}).quantile(0.5); q != 0 {
		t.Errorf("empty histogram: %v", q)
	}
}
