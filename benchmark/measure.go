package main

import (
	"slices"
	"sync/atomic"
	"time"
)

// control is shared by the workers of one harness; the goroutine that
// measures switches it.
type control struct {
	stop   atomic.Bool
	window atomic.Int32 // 0: keep nothing (warm-up); n > 0: the n-th measured window is running
	traced atomic.Bool  // keep spans too

	windows int32 // windows measured so far; the measuring goroutine's alone
}

// meter is the part of a worker the measuring goroutine reads while the
// worker runs. It sits on cache lines of its own.
type meter struct {
	_   [64]byte
	ops atomic.Int64
	_   [56]byte
}

// probe is what every worker of a harness carries for the measuring side.
type probe struct {
	meter
	lat   *latencyLog
	spans *spanLog
}

func newProbe() *probe { return &probe{lat: newLatencyLog(), spans: newSpanLog()} }

// probes are those of one harness's workers.
type probes []*probe

// ops is how many operations the workers have completed so far.
func (ps probes) ops() (n int64) {
	for _, p := range ps {
		n += p.ops.Load()
	}
	return n
}

// latencyLog keeps one worker's latency samples, in nanoseconds, and where
// each measured window's samples begin. A full log drops further samples.
type latencyLog struct {
	samples []int64
	starts  []int // starts[w-1] is the index of window w's first sample
	dropped int64
}

// samplesPerWorker holds forty seconds of the fastest sampled stream
// (srv-rtt, about 50k round trips a second per worker).
const samplesPerWorker = 2 << 20

func newLatencyLog() *latencyLog {
	return &latencyLog{samples: make([]int64, 0, samplesPerWorker), starts: make([]int, 0, 256)}
}

// record keeps a sample taken during window w (w > 0, never decreasing).
func (l *latencyLog) record(w int32, ns int64) {
	for len(l.starts) < int(w) {
		l.starts = append(l.starts, len(l.samples))
	}
	if len(l.samples) == cap(l.samples) {
		l.dropped++
		return
	}
	l.samples = append(l.samples, ns)
}

// of returns the samples taken during window w.
func (l *latencyLog) of(w int32) []int64 {
	if int(w) > len(l.starts) {
		return nil
	}
	end := len(l.samples)
	if int(w) < len(l.starts) {
		end = l.starts[w]
	}
	return l.samples[l.starts[w-1]:end]
}

// window is one measured stretch of time: the operations completed in it,
// the process-wide counters at its two ends, and the latency samples the
// workers took during it.
type window struct {
	number   int32
	ops      int64
	from, to resources
	latency  []int64 // sorted, all workers pooled
}

func (w window) perOp(total float64) float64 {
	if w.ops == 0 {
		return 0
	}
	return total / float64(w.ops)
}

func (w window) wall() time.Duration   { return w.to.at.Sub(w.from.at) }
func (w window) opsPerS() float64      { return float64(w.ops) / w.wall().Seconds() }
func (w window) cpuNSPerOp() float64   { return w.perOp(float64(w.to.cpu - w.from.cpu)) }
func (w window) allocsPerOp() float64  { return w.perOp(float64(w.to.mallocs - w.from.mallocs)) }
func (w window) allocBytesOp() float64 { return w.perOp(float64(w.to.allocBytes - w.from.allocBytes)) }
func (w window) latencyNS(p float64) float64 {
	return float64(percentile(w.latency, p))
}

// stretch is a run of consecutive windows. A metric of a stretch is the
// median of the windows' values: a stall of the box that covers fewer than
// half of the windows does not move it.
type stretch []window

func (s stretch) median(of func(window) float64) float64 {
	values := make([]float64, len(s))
	for i, w := range s {
		values[i] = of(w)
	}
	return median(values)
}

// peakOpsPerS is the mean throughput of the fastest fifth of the windows (at
// least one). Another tenant of a shared box only ever slows a window down,
// so the fastest windows say what the program does when it is left alone,
// and they say it far more steadily than the median window does. The price:
// a cost that comes less often than once a window, such as the GC cycle of
// a large heap, is not in them; it is in the median, which is printed too.
func (s stretch) peakOpsPerS() float64 {
	rates := make([]float64, len(s))
	for i, w := range s {
		rates[i] = w.opsPerS()
	}
	slices.Sort(rates)
	return mean(rates[len(rates)-max(len(rates)/5, 1):])
}

// ops is how many operations the whole stretch completed.
func (s stretch) ops() (n int64) {
	for _, w := range s {
		n += w.ops
	}
	return n
}

// whole is the stretch as one window, for counts that are wanted in total.
func (s stretch) whole() window {
	all := window{from: s[0].from, to: s[len(s)-1].to}
	for _, w := range s {
		all.ops += w.ops
		all.latency = append(all.latency, w.latency...)
	}
	slices.Sort(all.latency)
	return all
}

func (s stretch) opsPerS() float64      { return s.median(window.opsPerS) }
func (s stretch) cpuNSPerOp() float64   { return s.median(window.cpuNSPerOp) }
func (s stretch) allocsPerOp() float64  { return s.median(window.allocsPerOp) }
func (s stretch) allocBytesOp() float64 { return s.median(window.allocBytesOp) }

// nsPerOp is the wall time one worker spends per operation.
func (s stretch) nsPerOp(workers int) float64 {
	return s.median(func(w window) float64 {
		return w.perOp(float64(w.wall().Nanoseconds()) * float64(workers))
	})
}

func (s stretch) gcCPUShare() float64 {
	w := s.whole()
	if total := w.to.totalCPU - w.from.totalCPU; total > 0 {
		return (w.to.gcCPU - w.from.gcCPU) / total
	}
	return 0
}

// windowLength is what a measured stretch is cut into: long enough that the
// durable workload's BGSAVE (about one a second) falls into most windows.
const windowLength = time.Second

// windowsIn is how many windows a stretch of d is cut into: as many whole
// windowLengths as fit, at least one.
func windowsIn(d time.Duration) int { return max(int(d/windowLength), 1) }

// measure cuts d into windows and reads the workers' meters at each edge.
// The workers must be running; they keep latency samples (and spans, if
// traced) while a window is open.
func measure(ctl *control, ps probes, d time.Duration, traced bool) stretch {
	n := windowsIn(d)
	s := make(stretch, 0, n)
	ctl.traced.Store(traced)
	start := readResources()
	edge, edgeOps := start, ps.ops()
	for i := 1; i <= n; i++ {
		ctl.windows++
		ctl.window.Store(ctl.windows)
		time.Sleep(time.Until(start.at.Add(d * time.Duration(i) / time.Duration(n))))
		to, toOps := readResources(), ps.ops()
		s = append(s, window{number: ctl.windows, ops: toOps - edgeOps, from: edge, to: to})
		edge, edgeOps = to, toOps
	}
	ctl.window.Store(0)
	ctl.traced.Store(false)
	return s
}

// collect pools the workers' samples into the windows of a stretch and
// returns how many samples full logs had to drop. Call it once the workers
// have stopped.
func (s stretch) collect(ps probes) (dropped int64) {
	for i := range s {
		for _, p := range ps {
			s[i].latency = append(s[i].latency, p.lat.of(s[i].number)...)
		}
		slices.Sort(s[i].latency)
	}
	for _, p := range ps {
		dropped += p.lat.dropped
	}
	return dropped
}
