package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// runOpts are the knobs of one run of one workload.
type runOpts struct {
	seed    uint64
	seconds float64 // measured time: one window untraced, split over the harnesses traced
	dir     string  // scratch and output directory
	shrink  uint64  // key ranges are divided by this; above 1 (the smoke pass) there is one set-up and a short warm-up
}

// runResult is what one run reports.
type runResult struct {
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Traced      bool               `json:"traced"`
	Fingerprint fingerprint        `json:"fingerprint"`
	Attempted   int64              `json:"attempted"`
	Failed      int64              `json:"failed"`
	Metrics     map[string]float64 `json:"metrics"`
	Notes       []string           `json:"notes,omitempty"` // sample counts, warnings
}

func (r *runResult) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// runWorkload runs one workload once, untraced for the end-to-end metrics
// or traced for the per-layer ones.
func runWorkload(spec *workloadSpec, traced bool, o runOpts) (*runResult, error) {
	res := &runResult{
		Workload: spec.Name, Seed: o.seed, Traced: traced,
		Fingerprint: takeFingerprint(),
		Metrics:     map[string]float64{},
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return nil, err
	}
	var err error
	if spec.lib != nil {
		lib := *spec.lib
		lib.keyRange = max(lib.keyRange/o.shrink, 64)
		run := runLibUntraced
		if traced {
			run = runLibTraced
		}
		err = run(&lib, o, res)
	} else {
		srv := *spec.srv
		srv.keyRange /= o.shrink
		run := runSrvUntraced
		if traced {
			run = runSrvTraced
		}
		err = run(&srv, o, res)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.Name, err)
	}
	return res, nil
}

// warmUp lets the started workers run before the first window opens, for
// half a second (less before a very short stretch), so that connections,
// caches and the GC pacer have settled. It returns how long that took.
func warmUp(measured time.Duration) float64 {
	start := time.Now()
	time.Sleep(min(time.Second/2, measured/4))
	return time.Since(start).Seconds()
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// setupResult is what the repeated set-ups of a run yield.
type setupResult struct {
	seconds   float64 // the median set-up
	count     int     // how many set-ups that is the median of
	heapBytes uint64  // live heap the set-up added: the least seen, since strays only ever add
}

// repeatSetup times set-up several times over and keeps the last one built.
// One set-up is setup() plus the forced GC after it. setup_s is the median,
// which one slow start does not move: of at least three set-ups, and of as
// many more as fit in a second (at most 200), so that a set-up of a
// millisecond is not judged by five readings of it. discard drops what the
// previous set-up built, off the clock.
func repeatSetup(o runOpts, discard func() error, setup func() error) (setupResult, error) {
	var times []float64
	total := 0.0
	r := setupResult{heapBytes: math.MaxUint64}
	for {
		base := heapAfterGC() // the previous set-up's garbage is not this one's to collect
		start := time.Now()
		if err := setup(); err != nil {
			return r, fmt.Errorf("set-up: %w", err)
		}
		heap := heapAfterGC()
		t := time.Since(start).Seconds()
		times = append(times, t)
		total += t
		r.heapBytes = min(r.heapBytes, heap-min(heap, base))
		n := len(times)
		if o.shrink > 1 || (n >= 3 && total >= 6) || (n >= 5 && total >= 1) || n >= 200 {
			r.seconds, r.count = median(times), n
			return r, nil
		}
		if err := discard(); err != nil {
			return r, err
		}
	}
}

// endToEndMetrics fills the metrics every workload reports from an untraced
// stretch and its set-up.
func endToEndMetrics(res *runResult, s stretch, dropped int64, setup setupResult, warmUpS float64, keys int) {
	m := res.Metrics
	m["setup_s"] = setup.seconds + warmUpS
	res.note("setup_s is the median of %d set-ups (%.6f s: construct or start, prefill, forced GC) plus the warm-up (%.6f s)",
		setup.count, setup.seconds, warmUpS)
	m["ops_per_s"] = s.peakOpsPerS()
	// Latency and CPU per operation are not bounded end to end: on a shared
	// box they moved with its phases by more than any bound allowed (see
	// README.md). They are printed for the reader.
	res.note("informational, medians over the windows: ops_per_s %.6g, op_p50_us %.6g, op_p99_us %.6g, cpu_us_per_op %.6g",
		s.opsPerS(),
		s.median(func(w window) float64 { return w.latencyNS(50) })/1e3,
		s.median(func(w window) float64 { return w.latencyNS(99) })/1e3,
		s.cpuNSPerOp()/1e3)
	m["allocs_per_op"] = s.allocsPerOp()
	m["alloc_bytes_per_op"] = s.allocBytesOp()
	m["heap_bytes_per_key"] = float64(setup.heapBytes) / float64(max(keys, 1))
	whole := s.whole()
	rates := make([]float64, len(s))
	for i, w := range s {
		rates[i] = w.opsPerS()
	}
	res.note("ops_per_s is the mean of the fastest fifth of %d windows of %.2f s; allocation counts are medians over the windows; %d ops in all",
		len(s), whole.wall().Seconds()/float64(len(s)), whole.ops)
	res.note("ops_per_s of each window: %.0f", rates)
	res.note("latency over the whole stretch, %d samples (%d more dropped by full logs): p50 %.3f us, p99 %.3f us",
		len(whole.latency), dropped, whole.latencyNS(50)/1e3, whole.latencyNS(99)/1e3)
}

func runLibUntraced(spec *libSpec, o runOpts, res *runResult) error {
	workers := newEngineWorkers(spec.mix, spec.keyRange, o.seed)
	var h *engineHarness
	setup, err := repeatSetup(o, func() error { h = nil; return nil }, func() (err error) {
		h, err = setupLib(spec, false, o.seed, workers)
		return err
	})
	if err != nil {
		return err
	}
	d := seconds(o.seconds)
	h.start()
	warmUpS := warmUp(d)
	w := h.measure(d, false)
	h.stop()
	endToEndMetrics(res, w.stretch, w.collect(h.probes()), setup, warmUpS, h.prefilled)
	res.note("one operation in %d is timed for the latency samples", sampleEvery)
	res.Attempted = h.probes().ops()
	res.Failed = h.lenMismatch()
	return nil
}

func runSrvUntraced(spec *srvSpec, o runOpts, res *runResult) error {
	level := levelTCP
	if spec.durable {
		level = levelDurable
	}
	h := newSrvHarness(spec, level, filepath.Join(o.dir, "data-"+res.Workload), o.seed)
	defer os.RemoveAll(h.dir)
	setup, err := repeatSetup(o, h.shutdown, h.setup)
	if err != nil {
		return err
	}
	keys := h.srv.DB().Len()
	d := seconds(o.seconds)
	if err := h.start(); err != nil {
		return err
	}
	warmUpS := warmUp(d)
	w := h.measure(d, false)
	if err := h.stop(); err != nil {
		h.shutdown()
		return err
	}
	endToEndMetrics(res, w.stretch, w.collect(h.probes()), setup, warmUpS, keys)
	res.note("a latency sample is one batch of %d: from its write to its last reply checked", spec.depth)
	check, err := h.finish()
	if err != nil {
		return err
	}
	res.Attempted, res.Failed = check.attempted, check.failed
	if spec.durable {
		res.note("recover_s %.4f s (%d AOF records after the last dump; reported as persist.recover_s by the traced run)",
			check.recovery.seconds, check.recovery.records)
	}
	return nil
}
