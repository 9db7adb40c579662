package nbtrie

import (
	"iter"

	"nbtrie/internal/sharded"
)

// ErrCrossShard is returned by ShardedMap.ReplaceKey when the two keys
// live in different shards. Replace atomicity is a per-shard guarantee —
// one engine instance, one linearization point — and the sharded map
// refuses to fake a cross-shard replace with locks or a non-atomic
// delete+insert. Callers that can tolerate the intermediate states can
// compose Delete and Store themselves; callers that need atomicity must
// pick keys in the same shard (see ShardedMap.SameShard) or use the
// unsharded Map.
var ErrCrossShard = sharded.ErrCrossShard

// ShardedMap is a Map-alike built for multi-core write throughput: the
// key space [0, 2^width) is partitioned into 2^s contiguous slices by
// the top s key bits, each served by an independent instance of the
// non-blocking Patricia-trie engine. Writers touching different shards
// contend on nothing at all — no shared root, no shared helping traffic
// — which is what buys write scaling the single-root trie cannot offer;
// see DESIGN.md §5 for the scheme and its measured effect.
//
// Per-operation guarantees are per shard and match Map: Load and
// Contains are wait-free and allocation-free, every single-key mutation
// is lock-free, and ReplaceKey is the paper's atomic Replace when old
// and new share a shard (a cross-shard pair returns ErrCrossShard —
// atomicity is never faked). All and Ascend stitch the per-shard ascents
// into the global ascending key order. Aggregate reads (Len, iteration)
// are per-shard-exact but not a global snapshot, the same Range contract
// as Map.
//
// CompareAndSwap and CompareAndDelete compare values with Go's ==, like
// sync.Map: they panic if the values are not comparable.
type ShardedMap[V any] struct {
	t *sharded.Trie[V]
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

// NewShardedMapSpan is NewShardedMap with each shard's trie built at
// digit width span: 2^span-child internal nodes resolve span key bits
// per level (see NewKaryPatriciaTrie), composing the sharded write
// scaling with the k-ary depth cut. span must be in [1, 6]; 1 is
// NewShardedMap.
func NewShardedMapSpan[V any](width uint32, shards int, span uint32) (*ShardedMap[V], error) {
	t, err := sharded.NewSpan[V](width, shards, span)
	if err != nil {
		return nil, err
	}
	return &ShardedMap[V]{t: t}, nil
}

// Load returns the value bound to k. Wait-free and allocation-free: a
// shard index computation, then one pure-read descent of the owning
// shard.
func (m *ShardedMap[V]) Load(k uint64) (V, bool) {
	return m.t.Load(k)
}

// Store binds k to val, inserting or overwriting (lock-free upsert
// within the owning shard). It returns false only when k is out of range
// for the map's width.
func (m *ShardedMap[V]) Store(k uint64, val V) bool {
	return m.t.Store(k, val)
}

// LoadOrStore returns the existing value for k if present (loaded true);
// otherwise it stores val and returns it (loaded false). ok is false
// only when k is out of range — nothing was loaded or stored.
func (m *ShardedMap[V]) LoadOrStore(k uint64, val V) (actual V, loaded, ok bool) {
	return m.t.LoadOrStore(k, val)
}

// Delete removes k; false iff k was absent.
func (m *ShardedMap[V]) Delete(k uint64) bool {
	return m.t.Delete(k)
}

// CompareAndSwap swaps k's value from old to new if the stored value
// equals old (==; panics if the values are not comparable).
func (m *ShardedMap[V]) CompareAndSwap(k uint64, old, new V) bool {
	return m.t.CompareAndSwap(k, old, new)
}

// CompareAndDelete deletes k if its value equals old (==; panics if the
// values are not comparable).
func (m *ShardedMap[V]) CompareAndDelete(k uint64, old V) bool {
	return m.t.CompareAndDelete(k, old)
}

// ReplaceKey atomically rebinds old's value to the key new, removing
// old, when both keys live in the same shard: one linearization point,
// the value travels, exactly Map.ReplaceKey. swapped is true iff old was
// present and new absent (and old != new). When the keys are in range
// but owned by different shards nothing happens and err is
// ErrCrossShard; out-of-range keys return (false, nil) like Map.
func (m *ShardedMap[V]) ReplaceKey(old, new uint64) (swapped bool, err error) {
	return m.t.Replace(old, new)
}

// DeleteFunc deletes k if cond returns true for its stored value,
// returning true iff the key was deleted. Unlike CompareAndDelete it
// never boxes or compares values, so it works for non-comparable value
// types (byte slices); the engine pins the inspected leaf until the
// delete commits, so the value cond approved is exactly the value
// removed. cond may run more than once under contention and must be
// side-effect free. This is the primitive nbtried's expiry uses to purge
// a key only if it still holds the expired value.
func (m *ShardedMap[V]) DeleteFunc(k uint64, cond func(V) bool) bool {
	return m.t.DeleteFunc(k, cond)
}

// MoveKey moves the value stored under from to the key to. Same-shard
// pairs are the atomic ReplaceKey. Cross-shard pairs run a two-phase
// protocol — register an in-flight marker, insert at the destination
// (failing without side effects if it is occupied), then delete the
// source — which is not atomic: a reader can observe both copies during
// the window, but never neither (the source is deleted only after the
// destination insert committed). The marker gives mutual exclusion per
// source key (a concurrent move of the same source fails with
// ErrMoveBusy) and lets ResolveMoves finish a move whose goroutine died
// between phases. moved is (true, nil) when the value moved and
// (false, nil) when the source was absent, the destination occupied, or
// a key out of range. See DESIGN.md §12 for the full protocol and its
// visibility window.
func (m *ShardedMap[V]) MoveKey(from, to uint64) (moved bool, err error) {
	return m.t.MoveKey(from, to)
}

// ErrMoveBusy is returned by MoveKey when a cross-shard move of the same
// source key is already in flight.
var ErrMoveBusy = sharded.ErrMoveBusy

// ResolveMoves completes or abandons cross-shard moves interrupted
// between phases, driven by their in-flight markers: a move whose
// destination insert committed is finished (source deleted), one that
// never became visible is abandoned with the source intact. Returns the
// number completed. Quiescent use only — recovery, not concurrent use.
func (m *ShardedMap[V]) ResolveMoves() int {
	return m.t.ResolveMoves()
}

// Contains reports whether k has a binding, wait-free and without
// allocating.
func (m *ShardedMap[V]) Contains(k uint64) bool {
	return m.t.Contains(k)
}

// Len sums the per-shard atomic entry counters: O(shards) loads, no
// allocation. Exact at quiescence; under concurrent updates each shard
// lags by at most its in-flight mutations and the sum is not a global
// snapshot — the same consistency window as All/Ascend.
func (m *ShardedMap[V]) Len() int {
	return m.t.Len()
}

// Width returns the key width the map was built with.
func (m *ShardedMap[V]) Width() uint32 {
	return m.t.Width()
}

// Shards returns the number of shards in effect.
func (m *ShardedMap[V]) Shards() int {
	return m.t.Shards()
}

// SameShard reports whether a and b are both in range and owned by the
// same shard — the precondition for an atomic ReplaceKey between them.
func (m *ShardedMap[V]) SameShard(a, b uint64) bool {
	return m.t.SameShard(a, b)
}

// ShardOf returns the index (in [0, Shards())) of the shard owning k,
// and false for keys outside the map's width. Shard-affine callers —
// nbtried's -dispatch=affine routes each single-key command to a
// per-shard worker with it — get the same partition the map itself
// uses, so "same shard" here means "no contention there".
func (m *ShardedMap[V]) ShardOf(k uint64) (int, bool) {
	return m.t.ShardOf(k)
}

// All iterates over all entries in increasing key order, stitching the
// per-shard ascents. Same consistency contract as Map.All per shard;
// entries in different shards are not a single snapshot.
func (m *ShardedMap[V]) All() iter.Seq2[uint64, V] {
	return m.Ascend(0)
}

// Ascend iterates over the entries with key >= from, in increasing key
// order. Shards entirely below from are skipped and the first shard
// resumes from from, so a midpoint resume costs one descent.
func (m *ShardedMap[V]) Ascend(from uint64) iter.Seq2[uint64, V] {
	return func(yield func(uint64, V) bool) {
		m.t.AscendKV(from, yield)
	}
}

// Validate checks every shard's structural invariants — the paper's
// proof invariants plus per-instantiation label checks. Quiescent use
// only (tests, diagnostics, post-recovery verification).
func (m *ShardedMap[V]) Validate() error {
	return m.t.Validate()
}
