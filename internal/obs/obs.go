// Package obs provides lock-free observability primitives: cache-line-padded
// atomic counters and fixed-bucket log2 latency histograms.
//
// Every record path (Counter.Add, Hist.Record) is wait-free — a bounded
// number of atomic adds, no CAS loops, no locks — and strictly zero-alloc,
// so instrumentation can sit inside the non-blocking trie operations it
// measures without weakening their progress guarantees. Read paths (Load,
// Snapshot, Quantile) may observe a torn view across buckets under
// concurrent writes; they are monotonic and eventually consistent, which
// is all a metrics scrape needs.
package obs

import "sync/atomic"

// cacheLine is the assumed coherence-granule size. 64 bytes covers x86-64
// and most arm64 parts; on CPUs with 128-byte lines adjacent counters may
// still share a line, which costs throughput but never correctness.
const cacheLine = 64

// Counter is a single atomic counter padded to a full cache line so that
// adjacent Counters never false-share; the server's byte totals are two.
type Counter struct {
	v atomic.Int64
	_ [cacheLine - 8]byte
}

// Add increments the counter by d. Wait-free, zero-alloc.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }
