package sharded

import "nbtrie/internal/kv"

// Snapshot is a read-only point-in-time view of the sharded trie: one
// engine snapshot per shard, taken in shard-index order. Each shard's
// view is an exact frozen cut of that shard; the cuts are taken
// sequentially, not under a global barrier, so the composite is NOT a
// single linearization point of the whole map — an update to a
// lower-index shard that starts after a higher-index shard's cut can be
// missing while a later update to the higher-index shard is present.
// Callers that need a globally exact cut must provide their own write
// barrier around Snapshot (the nbtried server does exactly that: its
// persistence gate quiesces mutators for the O(shards) instant the cuts
// take). For a single writer, or writers partitioned by shard, the
// composite is exact as-is.
type Snapshot[V any] struct {
	t      *Trie[V]
	shards []*kv.U64Snapshot[V]
}

// Snapshot returns a frozen view of every shard, O(shards) time and
// allocation, independent of the number of keys. See the type comment
// for the cross-shard consistency contract.
func (t *Trie[V]) Snapshot() *Snapshot[V] {
	ss := make([]*kv.U64Snapshot[V], len(t.shards))
	for i, sh := range t.shards {
		ss[i] = sh.Snapshot()
	}
	return &Snapshot[V]{t: t, shards: ss}
}

// Len sums the per-shard snapshot counts: exact per shard, and exact
// globally whenever the snapshot was taken with mutators quiesced.
func (s *Snapshot[V]) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Len()
	}
	return n
}

// Contains reports whether k was present in its shard's cut.
func (s *Snapshot[V]) Contains(k uint64) bool {
	i, rest, ok := s.t.route(k)
	return ok && s.shards[i].Contains(rest)
}

// Load returns the value bound to k in its shard's cut.
func (s *Snapshot[V]) Load(k uint64) (V, bool) {
	i, rest, ok := s.t.route(k)
	if !ok {
		var zero V
		return zero, false
	}
	return s.shards[i].Load(rest)
}

// AscendKV calls fn on every (key, value) pair with key >= from, in
// ascending key order, stitching the per-shard frozen walks in
// shard-index order (the same stitching as the live trie's AscendKV),
// until fn returns false.
func (s *Snapshot[V]) AscendKV(from uint64, fn func(k uint64, val V) bool) {
	ascend(s.t, s.shards, from, fn)
}
