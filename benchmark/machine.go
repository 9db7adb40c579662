package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// fingerprint says what box and load shape a result came from. Results at
// different workers are not comparable; calib_ns shows drift of the box
// between two sets next to the numbers it explains.
type fingerprint struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	CalibNS    int64  `json:"calib_ns"`
}

// workerCount is the closed-loop client count: one goroutine (and, on the
// server workloads, one connection) per worker.
func workerCount() int { return min(runtime.GOMAXPROCS(0), 4) }

func takeFingerprint() fingerprint {
	return fingerprint{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    workerCount(),
		GoVersion:  runtime.Version(),
		Kernel:     kernelRelease(),
		CalibNS:    calibrate(),
	}
}

func kernelRelease() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	b := make([]byte, 0, len(u.Release))
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b = append(b, byte(c))
	}
	return string(b)
}

var calibSink uint64

// calibrate times a fixed kernel: a dependent pointer chase through a 4 MiB
// permutation (memory latency) interleaved with integer mixing (core
// speed). Its time moves with the box, not with the program under test.
func calibrate() int64 {
	const n = 1 << 20
	next := make([]uint32, n)
	// One cycle through all slots in a scattered order (an odd stride is
	// coprime with the power-of-two length).
	for i, at := 0, uint32(0); i < n; i++ {
		to := (at + 1566083941) % n
		next[at] = to
		at = to
	}
	start := time.Now()
	at, x := uint32(0), uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 2*n; i++ {
		at = next[at]
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x += uint64(at)
	}
	calibSink = x
	return time.Since(start).Nanoseconds()
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resources is a point reading of the process-wide counters a window is
// the difference of.
type resources struct {
	at         time.Time
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64 // seconds
	totalCPU   float64 // seconds, as the runtime accounts it
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// readResources stops the world for ReadMemStats; call it at window edges,
// never inside one.
func readResources() resources {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(runtimeSamples)
	return resources{
		at:         time.Now(),
		cpu:        cpuTime(),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcCycles:   runtimeSamples[0].Value.Uint64(),
		gcCPU:      runtimeSamples[1].Value.Float64(),
		totalCPU:   runtimeSamples[2].Value.Float64(),
	}
}

// heapAfterGC forces a collection and returns the live heap.
func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
