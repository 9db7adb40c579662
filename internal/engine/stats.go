package engine

import (
	"sync/atomic"

	"nbtrie/internal/obs"
)

// A trie's statistics live in two places, by how often they are written.
// Help and Depth are recorded by every update, so they sit on the gate's
// lanes (gate.go), where concurrent updaters rarely share a line. The five
// counters below are zero on a trie that has only ever been mutated by one
// goroutine at a time, so they cost no line traffic off the contended path
// and are plain, unpadded atomics on one line with count. Every record
// path is a wait-free atomic add and never allocates, so instrumented
// operations keep exactly the progress and allocs/op guarantees of the
// uninstrumented protocol. The search path (Contains/Load) is
// deliberately NOT instrumented: it never writes the trie, its one shared
// write is a shortcut hint that steady-state reads skip (shortcut.go),
// and a counter bump would be a shared write on every read.
//
// Helper-vs-initiator semantics: Help counts every help() entry, whether
// the caller is the update's own process or a helper; HelpAssist counts
// only the assist sites — newDesc, helpConflict and makeInternal helping a
// *conflicting* update's descriptor — so it is zero on an uncontended trie
// and strictly positive whenever one operation finished (part of) another's
// work. ChildCASFail counts child/root CASes inside help that found the
// pointer already swung (a racing helper got there first); FlagBacktrack
// counts help invocations that failed flagging and unwound. OpRetries
// counts retry-loop iterations past the first in every mutating operation.
type contention struct {
	helpAssist       atomic.Int64 // helping a conflicting op's descriptor
	childCASFail     atomic.Int64 // child/root CAS in help lost to a racing helper
	flagBacktrack    atomic.Int64 // help() attempts that failed flagging and backtracked
	opRetries        atomic.Int64 // mutator retry-loop iterations past the first
	snapshotRenewals atomic.Int64 // stale-generation nodes renewed by searchMut
}

// StatsSnapshot is a plain-value copy of a trie's statistics.
//
// Depth is the histogram of per-mutator-search descent depths (searchMut),
// each the number of levels walked from where the descent started: the
// node the shortcut table holds for the key, or the root. It is in
// obs.HistSnapshot's log2 layout, but only its first depthBuckets (13)
// buckets are used, and the last of those saturates: Buckets[12] counts
// every depth >= 2^11, not only depths in [2^11, 2^12). Count and Sum are
// exact.
//
// SnapshotRenewals counts the stale internal nodes mutations renewed
// after a Snapshot: each node once per snapshot taken since it was built.
type StatsSnapshot struct {
	Help             int64
	HelpAssist       int64
	ChildCASFail     int64
	FlagBacktrack    int64
	OpRetries        int64
	SnapshotRenewals int64
	Depth            obs.HistSnapshot
}

// StatsSnapshot captures the current counter values, summing the lanes.
// Under concurrent mutation the fields are individually — not mutually —
// consistent, which is all a metrics scrape needs.
func (t *Trie[K, V]) StatsSnapshot() StatsSnapshot {
	s := StatsSnapshot{
		HelpAssist:       t.stats.helpAssist.Load(),
		ChildCASFail:     t.stats.childCASFail.Load(),
		FlagBacktrack:    t.stats.flagBacktrack.Load(),
		OpRetries:        t.stats.opRetries.Load(),
		SnapshotRenewals: t.stats.snapshotRenewals.Load(),
	}
	for i := range t.gate.lanes {
		l := &t.gate.lanes[i]
		s.Help += l.help.Load()
		s.Depth.Sum += l.depthSum.Load()
		for b := range l.depth {
			n := l.depth[b].Load()
			s.Depth.Buckets[b] += n
			s.Depth.Count += n
		}
	}
	return s
}
