package sharded

import "nbtrie/internal/engine"

// EngineStats returns the contention counters summed over every shard.
// Each shard's block is snapshotted independently, so the merge is not a
// single global cut — fine for metrics, by design.
func (t *Trie[V]) EngineStats() engine.StatsSnapshot {
	var agg engine.StatsSnapshot
	for _, sh := range t.shards {
		agg.Merge(sh.EngineStats())
	}
	return agg
}

// ShardEngineStats returns shard i's own counter snapshot; i must be in
// [0, Shards()).
func (t *Trie[V]) ShardEngineStats(i int) engine.StatsSnapshot {
	return t.shards[i].EngineStats()
}

// Footprint returns the engine census (engine.Footprint) summed over
// every shard. Quiescent use only.
func (t *Trie[V]) Footprint() engine.Footprint {
	var sum engine.Footprint
	for _, sh := range t.shards {
		f := sh.Footprint()
		sum.Internal += f.Internal
		sum.Leaves += f.Leaves
		sum.Infos += f.Infos
		sum.InternalBytes += f.InternalBytes
		sum.LeafBytes += f.LeafBytes
		sum.InfoBytes += f.InfoBytes
	}
	return sum
}
