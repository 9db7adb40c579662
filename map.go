package nbtrie

import (
	"iter"

	"nbtrie/internal/kv"
)

// Map is a linearizable concurrent map from uint64 keys to values of
// type V, backed by the paper's non-blocking Patricia trie. Load is
// wait-free (a pure read: no CAS, no allocation); every mutating
// operation is lock-free. All methods are safe for unrestricted
// concurrent use.
//
// Values are attached to trie leaves immutably and unboxed — the trie is
// generic all the way down, so storing an int never allocates an
// interface box and Load returns the value straight from the leaf. A
// value update installs a freshly allocated leaf through the same
// flagged child-CAS protocol as the paper's structural updates, so the
// no-ABA invariant — child pointers only ever swing to new nodes —
// carries over unchanged, and a reader can never observe a torn value.
//
// CompareAndSwap and CompareAndDelete compare values with Go's ==, like
// sync.Map: they panic if V (or the dynamic value stored) is not
// comparable.
type Map[V any] struct {
	t *kv.U64[V]
}

// NewMap returns an empty map over keys in [0, 2^width); width must be
// in [1, 63]. Keys outside the range are treated as permanently absent:
// lookups miss and stores report failure, but nothing panics.
func NewMap[V any](width uint32) (*Map[V], error) {
	t, err := kv.NewU64[V](width)
	if err != nil {
		return nil, err
	}
	return &Map[V]{t: t}, nil
}

// Load returns the value bound to k. It is wait-free — at most width+1
// child-pointer reads, no CAS, regardless of concurrent updates — and
// performs no allocation.
func (m *Map[V]) Load(k uint64) (V, bool) {
	return m.t.Load(k)
}

// Store binds k to val, inserting or overwriting (lock-free upsert). It
// returns false only when k is out of range for the map's width.
func (m *Map[V]) Store(k uint64, val V) bool {
	return m.t.Store(k, val)
}

// LoadOrStore returns the existing value for k if present (loaded true);
// otherwise it stores val and returns it (loaded false). ok is false
// only when k is out of range — nothing was loaded or stored and actual
// is the zero value — so a rejected write is always distinguishable
// from a successful store.
func (m *Map[V]) LoadOrStore(k uint64, val V) (actual V, loaded, ok bool) {
	return m.t.LoadOrStore(k, val)
}

// Delete removes k; false iff k was absent.
func (m *Map[V]) Delete(k uint64) bool {
	return m.t.Delete(k)
}

// CompareAndSwap swaps k's value from old to new if the stored value
// equals old (==; panics if the values are not comparable). True iff the
// swap happened.
func (m *Map[V]) CompareAndSwap(k uint64, old, new V) bool {
	return m.t.CompareAndSwap(k, old, new)
}

// CompareAndDelete deletes k if its value equals old (==; panics if the
// values are not comparable). True iff the entry was deleted.
func (m *Map[V]) CompareAndDelete(k uint64, old V) bool {
	return m.t.CompareAndDelete(k, old)
}

// ReplaceKey atomically rebinds old's value to the key new, removing
// old: both changes become visible at a single linearization point, and
// the value travels with the key. It returns true iff old was present
// and new absent (and old != new); otherwise the map is unchanged. This
// is the paper's Replace operation lifted to the map layer.
func (m *Map[V]) ReplaceKey(old, new uint64) bool {
	return m.t.Replace(old, new)
}

// Contains reports whether k has a binding, wait-free and without
// allocating.
func (m *Map[V]) Contains(k uint64) bool {
	return m.t.Contains(k)
}

// Len returns the number of entries, read from an atomic counter
// maintained on the successful insert and delete paths: O(1) and
// allocation-free. It is exact whenever no mutation is in flight; under
// concurrent updates it lags by at most the number of in-flight
// operations (each successful insert/delete is counted exactly once,
// just after its linearization point).
func (m *Map[V]) Len() int {
	return m.t.Len()
}

// Width returns the key width the map was built with.
func (m *Map[V]) Width() uint32 {
	return m.t.Codec().Width
}

// All iterates over all entries in increasing key order. The sequence is
// read-only and safe under concurrent updates: entries present for the
// whole iteration are always yielded, concurrent changes may or may not
// be observed (same contract as PatriciaTrie.Range).
func (m *Map[V]) All() iter.Seq2[uint64, V] {
	return m.Ascend(0)
}

// Ascend iterates over the entries with key >= from, in increasing key
// order. Subtrees below from are pruned, so resuming from a midpoint
// costs one descent rather than a full scan.
func (m *Map[V]) Ascend(from uint64) iter.Seq2[uint64, V] {
	return func(yield func(uint64, V) bool) {
		m.t.AscendKV(from, yield)
	}
}

// StringMap is the Section VI extension as a map: a linearizable
// concurrent map from arbitrary-length byte-string keys to values of
// type V, stored unboxed on the trie leaves. Loads are lock-free (no
// longer wait-free: key length is unbounded); all mutations are
// lock-free. Keys must be non-empty (the empty string's encoding
// collides with a dummy leaf) and are captured logically by their bit
// encoding, so callers may reuse key slices.
//
// CompareAndSwap and CompareAndDelete compare values with Go's ==, like
// sync.Map: they panic if the values are not comparable.
type StringMap[V any] struct {
	t *kv.String[V]
}

// NewStringMap returns an empty variable-length-key map.
func NewStringMap[V any]() *StringMap[V] {
	return &StringMap[V]{t: kv.NewString[V]()}
}

// Load returns the value bound to k (read-only, lock-free). The only
// allocation on this path is the key's bit encoding.
func (m *StringMap[V]) Load(k []byte) (V, bool) {
	return m.t.Load(k)
}

// Store binds k to val, inserting or overwriting (lock-free upsert).
func (m *StringMap[V]) Store(k []byte, val V) {
	m.t.Store(k, val)
}

// LoadOrStore returns the existing value for k if present (loaded true);
// otherwise it stores val and returns it (loaded false).
func (m *StringMap[V]) LoadOrStore(k []byte, val V) (actual V, loaded bool) {
	actual, loaded, _ = m.t.LoadOrStore(k, val)
	return actual, loaded
}

// Delete removes k; false iff k was absent.
func (m *StringMap[V]) Delete(k []byte) bool {
	return m.t.Delete(k)
}

// CompareAndSwap swaps k's value from old to new if the stored value
// equals old. True iff the swap happened.
func (m *StringMap[V]) CompareAndSwap(k []byte, old, new V) bool {
	return m.t.CompareAndSwap(k, old, new)
}

// CompareAndDelete deletes k if its value equals old. True iff the entry
// was deleted.
func (m *StringMap[V]) CompareAndDelete(k []byte, old V) bool {
	return m.t.CompareAndDelete(k, old)
}

// ReplaceKey atomically rebinds old's value to the key new, removing
// old, at a single linearization point. True iff old was present and new
// absent.
func (m *StringMap[V]) ReplaceKey(old, new []byte) bool {
	return m.t.Replace(old, new)
}

// Contains reports whether k has a binding.
func (m *StringMap[V]) Contains(k []byte) bool {
	return m.t.Contains(k)
}

// Len returns the number of entries, read from an atomic counter: O(1),
// allocation-free, exact at quiescence, and at most the number of
// in-flight mutations stale under concurrency (see Map.Len).
func (m *StringMap[V]) Len() int {
	return m.t.Len()
}

// All iterates over all entries in encoded-key order (lexicographic,
// except that a proper prefix follows its extensions). Same consistency
// contract as Map.All.
func (m *StringMap[V]) All() iter.Seq2[[]byte, V] {
	return func(yield func([]byte, V) bool) {
		m.t.AllKV(yield)
	}
}

// Ascend iterates over the entries whose key sorts at or after from in
// encoded-key order, mirroring Map.Ascend. Subtrees below from are
// pruned, so resuming an iteration from a midpoint costs one descent
// rather than a full scan. from must be non-empty, like every StringMap
// key.
func (m *StringMap[V]) Ascend(from []byte) iter.Seq2[[]byte, V] {
	return func(yield func([]byte, V) bool) {
		m.t.AscendKV(from, yield)
	}
}
