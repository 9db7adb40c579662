// Package obs provides lock-free observability primitives: cache-line-padded
// atomic counters, stripe-replicated counter vectors, and fixed-bucket log2
// latency histograms.
//
// Every record path (Counter.Add, Striped.Add, Hist.Record) is wait-free —
// a bounded number of atomic adds, no CAS loops, no locks — and strictly
// zero-alloc, so instrumentation can sit inside the non-blocking trie
// operations it measures without weakening their progress guarantees.
// Read paths (Load, Snapshot, Quantile) may observe a torn view across
// stripes or buckets under concurrent writes; they are monotonic and
// eventually consistent, which is all a metrics scrape needs.
package obs

import "sync/atomic"

// cacheLine is the assumed coherence-granule size. 64 bytes covers x86-64
// and most arm64 parts; on CPUs with 128-byte lines adjacent counters may
// still share a line, which costs throughput but never correctness.
const cacheLine = 64

// Counter is a single atomic counter padded to a full cache line so that
// adjacent Counters in an array never false-share. Use it for hot,
// single-writer-ish counters (server byte totals); for counters hammered
// by many cores at once prefer Striped.
type Counter struct {
	v atomic.Int64
	_ [cacheLine - 8]byte
}

// Add increments the counter by d. Wait-free, zero-alloc.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// NumStripes is the number of replicas in a Striped counter vector. Writers
// pick a stripe (e.g. from a connection sequence number) and touch only that
// replica, so concurrent writers on different stripes never contend on a
// cache line. Power of two so callers can mask cheaply.
const NumStripes = 8

// StripeMask masks an arbitrary sequence number down to a stripe index.
const StripeMask = NumStripes - 1

// Striped is a vector of n counters replicated across NumStripes stripes.
// Counter i's true value is the sum of its replicas across all stripes.
// Each stripe is padded to its own run of cache lines: stripe s, counter i
// lives at lanes[s].v[i], and distinct stripes never share a line.
type Striped struct {
	lanes [NumStripes]stripeLane
}

// stripeLane holds one stripe's counter replicas. The trailing pad keeps the
// next stripe's first counter off this stripe's last cache line even when
// len(v) is not a multiple of 8.
type stripeLane struct {
	v []atomic.Int64
	_ [cacheLine - 24]byte
}

// NewStriped returns a striped vector of n counters, all zero.
func NewStriped(n int) *Striped {
	s := &Striped{}
	// One backing array per stripe, rounded up to a whole number of cache
	// lines so stripes can never overlap a coherence granule.
	per := (n + 7) &^ 7
	for i := range s.lanes {
		s.lanes[i].v = make([]atomic.Int64, per)
	}
	return s
}

// Add increments counter i on the given stripe by d. The stripe may be any
// value; it is masked internally. Wait-free, zero-alloc.
func (s *Striped) Add(stripe uint32, i int, d int64) {
	s.lanes[stripe&StripeMask].v[i].Add(d)
}

// Inc increments counter i on the given stripe by one. Wait-free, zero-alloc.
func (s *Striped) Inc(stripe uint32, i int) {
	s.lanes[stripe&StripeMask].v[i].Add(1)
}

// Load returns the summed value of counter i across all stripes.
func (s *Striped) Load(i int) int64 {
	var t int64
	for l := range s.lanes {
		t += s.lanes[l].v[i].Load()
	}
	return t
}
