package main

import (
	"testing"
	"time"
)

func TestLatencyLogKeepsWindowsApart(t *testing.T) {
	l := newLatencyLog()
	l.record(1, 10)
	l.record(1, 11)
	// Window 2 went by without a sample from this worker.
	l.record(3, 30)
	l.record(5, 50)
	l.record(5, 51)
	for w, want := range map[int32][]int64{1: {10, 11}, 2: {}, 3: {30}, 4: {}, 5: {50, 51}, 6: nil} {
		got := l.of(w)
		if len(got) != len(want) {
			t.Errorf("window %d: %v, want %v", w, got, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("window %d: %v, want %v", w, got, want)
			}
		}
	}
}

func TestStretchStatistics(t *testing.T) {
	at := time.Unix(0, 0)
	var s stretch
	// Ten one-second windows doing 100, 200, ... 1000 operations, each
	// allocating twice per operation; the third also stalls.
	for i := 1; i <= 10; i++ {
		ops := int64(100 * i)
		w := window{
			number: int32(i), ops: ops,
			from: resources{at: at, mallocs: 0},
			to:   resources{at: at.Add(time.Second), mallocs: uint64(2 * ops), cpu: time.Duration(ops) * time.Microsecond},
		}
		s = append(s, w)
	}
	if got := s.opsPerS(); got != 550 {
		t.Errorf("median window: %v ops/s, want 550", got)
	}
	if got := s.peakOpsPerS(); got != 950 {
		t.Errorf("fastest fifth: %v ops/s, want the mean of 900 and 1000", got)
	}
	if got := (stretch{s[0], s[1], s[2]}).peakOpsPerS(); got != 300 {
		t.Errorf("fastest fifth of three windows: %v, want the fastest one, 300", got)
	}
	if got := s.allocsPerOp(); got != 2 {
		t.Errorf("allocs per op: %v, want 2", got)
	}
	if got := s.cpuNSPerOp(); got != 1000 {
		t.Errorf("cpu per op: %v ns, want 1000", got)
	}
	if whole := s.whole(); whole.ops != 5500 {
		t.Errorf("whole stretch: %d ops, want 5500", whole.ops)
	}
}

func TestWindowsIn(t *testing.T) {
	for d, want := range map[time.Duration]int{
		100 * time.Millisecond: 1, time.Second: 1, 2500 * time.Millisecond: 2, 15 * time.Second: 15,
	} {
		if got := windowsIn(d); got != want {
			t.Errorf("windowsIn(%v) = %d, want %d", d, got, want)
		}
	}
}
