package nbtrie

import "nbtrie/internal/engine"

// EngineStats is a point-in-time snapshot of a trie's contention
// counters — the runtime signature of the paper's flag/help protocol.
// Every counter is recorded wait-free and allocation-free inside the
// engine (see internal/obs), so reading these changes nothing about the
// trie's guarantees.
//
// Helper-vs-initiator semantics: Help counts every execution of the help
// routine, including the one each update performs for itself, so it is
// roughly "mutations plus helping traffic" and nonzero on any trie that
// has ever been written. The remaining counters are pure contention
// signals and are exactly zero when the trie has only ever been mutated
// by one goroutine at a time:
//
//   - HelpAssists: operations that completed (part of) a *different*
//     operation's work after finding its flag planted.
//   - ChildCASFailures: child-pointer CASes inside help that found the
//     pointer already swung by a racing helper of the same update.
//   - FlagBacktracks: help executions that failed to flag every node and
//     unwound.
//   - OpRetries: mutator retry-loop iterations past the first.
//   - SnapshotRenewals: stale-generation internal nodes copied into the
//     current generation by the first mutation to descend through them
//     while a Snapshot is held.
//
// SnapshotsHeld is a gauge, not a counter: the snapshots taken and not
// yet released. Mutations renew only while it is non-zero, so a snapshot
// that is never released keeps taxing writers.
//
// DepthBuckets is a log2 histogram of per-mutation search depths:
// bucket 0 counts depth 0 and bucket b in [1, 11] counts depths in
// [2^(b-1), 2^b). Bucket 12 saturates: it counts every depth >= 2^11
// (only StringMap keys of 128 bytes or more can descend that far), and
// buckets 13 to 64 are always zero. DepthSamples and DepthSum are its
// exact count and sum.
type EngineStats struct {
	Help             int64
	HelpAssists      int64
	ChildCASFailures int64
	FlagBacktracks   int64
	OpRetries        int64
	SnapshotRenewals int64
	SnapshotsHeld    int64

	DepthSamples int64
	DepthSum     int64
	DepthBuckets [65]int64
}

// engineStatsOf converts the internal snapshot to the public struct.
func engineStatsOf(s engine.StatsSnapshot) EngineStats {
	return EngineStats{
		Help:             s.Help,
		HelpAssists:      s.HelpAssist,
		ChildCASFailures: s.ChildCASFail,
		FlagBacktracks:   s.FlagBacktrack,
		OpRetries:        s.OpRetries,
		SnapshotRenewals: s.SnapshotRenewals,
		SnapshotsHeld:    s.SnapshotsHeld,
		DepthSamples:     s.Depth.Count,
		DepthSum:         s.Depth.Sum,
		DepthBuckets:     s.Depth.Buckets,
	}
}

// EngineStats returns the map's contention counters.
func (m *Map[V]) EngineStats() EngineStats { return engineStatsOf(m.t.EngineStats()) }

// EngineStats returns the map's contention counters.
func (m *StringMap[V]) EngineStats() EngineStats { return engineStatsOf(m.t.EngineStats()) }

// EngineStats returns the map's contention counters.
func (m *SpatialMap[V]) EngineStats() EngineStats { return engineStatsOf(m.t.EngineStats()) }
