package nbtrie

// ShardedMap is a Map with one shard (DESIGN.md §5).
//
// Deprecated: use Map. ShardedMap stays only while benchmark/ compiles
// against it (ROADMAP.md item 1(g)).
type ShardedMap[V any] struct{ Map[V] }

// NewShardedMap returns NewMap(width); shards is ignored.
//
// Deprecated: use NewMap (ROADMAP.md item 1(g)).
func NewShardedMap[V any](width uint32, shards int) (*ShardedMap[V], error) {
	m, err := NewMap[V](width)
	if err != nil {
		return nil, err
	}
	return &ShardedMap[V]{Map: *m}, nil
}

// ReplaceKey is Map.ReplaceKey; err is always nil.
//
// Deprecated: use Map.ReplaceKey (ROADMAP.md item 1(g)).
func (m *ShardedMap[V]) ReplaceKey(old, new uint64) (swapped bool, err error) {
	return m.Map.ReplaceKey(old, new), nil
}

// Shards returns 1.
//
// Deprecated: a map has one trie and no shards (ROADMAP.md item 1(g)).
func (m *ShardedMap[V]) Shards() int { return 1 }

// ShardEngineStats returns the map's DepthSamples, its count of mutating
// searches; i is ignored.
//
// Deprecated: use Map.EngineStats (ROADMAP.md item 1(g)).
func (m *ShardedMap[V]) ShardEngineStats(i int) EngineStats {
	return EngineStats{DepthSamples: m.EngineStats().DepthSamples}
}
