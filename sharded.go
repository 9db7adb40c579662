package nbtrie

import (
	"fmt"
	"math/bits"
	"runtime"

	"nbtrie/internal/engine"
	"nbtrie/internal/keys"
	"nbtrie/internal/kv"
)

// ShardedMap is a Map whose root is a wide node: its first digit is the
// shard. The key space [0, 2^width) is cut into 2^s contiguous slices by
// the top key bits, and each slice hangs off its own slot of the root,
// where it grows the subtrie a separate shard would, with no node shared
// with any other slice below the root. It is still one trie, one engine
// instance: every operation keeps Map's guarantees over the whole key
// space, ReplaceKey included — moving a key between shards is Figure
// 6's general case with its two parents under different root slots, one
// linearization point — and Snapshot, Len and iteration see one trie.
// See DESIGN.md §5.
//
// The trie stores key k as k+1 in width+1 bits, so the root digit is
// s+1 bits wide: slot i < 2^s holds the i-th slice, slot 2^s the one key
// 2^width-1 (counted with the last shard), and the last slot the trie's
// upper bound.
//
// CompareAndSwap and CompareAndDelete compare values with Go's ==, like
// sync.Map: they panic if the values are not comparable.
type ShardedMap[V any] struct {
	Map[V]
	shards int
}

// maxShards caps the shard count at engine.MaxRootSpan root bits.
const maxShards = 1 << (engine.MaxRootSpan - 1)

// defaultShards is the shard count a zero count picks: runtime.GOMAXPROCS
// rounded up to a power of two, floored at 8 and capped at maxShards.
func defaultShards() int {
	n := min(max(runtime.GOMAXPROCS(0), 8), maxShards)
	return 1 << bits.Len(uint(n-1))
}

// NewShardedMap returns an empty sharded map over keys in [0, 2^width);
// width must be in [1, 63]. shards selects the shard count: 0 picks the
// default (runtime.GOMAXPROCS rounded up to a power of two, floored at 8
// and capped at 256); any other value must be a power of two in
// [1, 256]. The count is clamped so each shard keeps at least one key
// bit; Shards reports the count in effect.
func NewShardedMap[V any](width uint32, shards int) (*ShardedMap[V], error) {
	return NewShardedMapSpan[V](width, shards, 1)
}

// NewShardedMapSpan is NewShardedMap with the trie below the root built at
// digit width span: 2^span-child internal nodes resolve span key bits
// per level (see NewKaryPatriciaTrie). span must be in [1, 6]; 1 is
// NewShardedMap.
func NewShardedMapSpan[V any](width uint32, shards int, span uint32) (*ShardedMap[V], error) {
	t, n, err := newSharded[V](width, shards, span)
	if err != nil {
		return nil, err
	}
	return &ShardedMap[V]{Map: Map[V]{t: t}, shards: n}, nil
}

// newSharded validates a sharded map's parameters and builds its trie:
// span bits per level below a root of s+1 bits. It returns the shard
// count in effect, 2^s.
func newSharded[V any](width uint32, shards int, span uint32) (*kv.U64[V], int, error) {
	if width < 1 || width > keys.MaxWidth {
		return nil, 0, fmt.Errorf("sharded map: width %d out of range [1, %d]", width, keys.MaxWidth)
	}
	if err := checkSpan(span); err != nil {
		return nil, 0, err
	}
	if shards == 0 {
		shards = defaultShards()
	}
	if shards < 1 || shards > maxShards || shards&(shards-1) != 0 {
		return nil, 0, fmt.Errorf("sharded map: shard count %d must be a power of two in [1, %d]", shards, maxShards)
	}
	s := min(uint32(bits.TrailingZeros(uint(shards))), width-1)
	t, err := kv.NewU64(width, engine.WithSpan[keys.Uint64Key, V](span), engine.WithRootSpan[keys.Uint64Key, V](s+1))
	return t, 1 << s, err
}

// ReplaceKey is Map.ReplaceKey — one linearization point, the value
// travels — whichever shards old and new live in. err is always nil; the
// result keeps the signature existing callers are written against.
func (m *ShardedMap[V]) ReplaceKey(old, new uint64) (swapped bool, err error) {
	return m.t.Replace(old, new), nil
}

// Shards returns the number of shards in effect.
func (m *ShardedMap[V]) Shards() int { return m.shards }

// ShardEngineStats returns shard i's share of the map's statistics; i
// must be in [0, Shards()). Only the depth samples are split by shard —
// DepthSamples counts the mutating searches that descended through
// shard i's root slot — so per-shard deltas show how the updates spread;
// every other counter is map-wide, in EngineStats.
func (m *ShardedMap[V]) ShardEngineStats(i int) EngineStats {
	hits := m.t.RootSlotHits()
	n := hits[i]
	if i == m.shards-1 {
		for _, h := range hits[m.shards:] {
			n += h
		}
	}
	return EngineStats{DepthSamples: n}
}
