// Package kv is the one instantiation layer over the shared
// non-blocking update engine (internal/engine): the Patricia trie of
// Shafiei, "Non-blocking Patricia Tries with Replace Operations"
// (ICDCS 2013), over any key space a Codec maps into one of the
// engine's key types. The engine owns all of the protocol —
// descriptors, flagging, helping, the child CASes, Replace's case
// analysis, the snapshot gate. A codec owns the one decision a key
// space adds: how a user key becomes an engine key, which two dummies
// bound the encoded space, and what a well-formed label is. Trie writes
// the user-key surface over that pair once.
//
// The repository's three key spaces are the aliases U64 (fixed-width
// integers, keys.U64Codec), String (the paper's Section VI byte
// strings, keys.StringCodec) and Morton (Z-order codes of points in the
// plane, keys.MortonCodec). U64 and Morton keys are pure values of
// bounded length, so their Contains and Load keep the paper's strongest
// guarantee: wait-free, at most one child-pointer read per key bit, no
// CAS, no allocation. Unbounded byte strings make String's reads
// lock-free only.
package kv

import (
	"fmt"

	"nbtrie/internal/engine"
	"nbtrie/internal/keys"
)

// Codec maps the user keys U of one key space into the engine's key
// type K.
type Codec[U any, K keys.Key[K]] interface {
	// Encode returns u's engine key. false means u lies outside the key
	// space, above every key in it: such a key is permanently absent and
	// cannot be stored.
	Encode(u U) (K, bool)
	// Decode inverts Encode on the full-length keys of live leaves.
	Decode(k K) U
	// Bounds returns the two dummy keys, which bound every encoded key.
	Bounds() (lo, hi K)
	// Check is the key space's Validate rule for one node label.
	Check(label K, leaf bool) error
}

// Trie is a linearizable set of user keys U — and, through the value
// payload V carried unboxed on every leaf, a linearizable U → V map —
// over one engine instance. All methods are safe for concurrent use
// without external synchronization. The pure set view instantiates
// V = struct{}, which takes no space in the leaf.
//
// Keys outside the codec's key space are never errors: they are absent
// to every read, and every write of one fails.
type Trie[U any, K keys.Key[K], V any, C Codec[U, K]] struct {
	c C
	e *engine.Trie[K, V]
}

// The repository's key spaces.
type (
	U64[V any]    = Trie[uint64, keys.Uint64Key, V, keys.U64Codec]
	String[V any] = Trie[[]byte, keys.Bitstring, V, keys.StringCodec]
	Morton[V any] = Trie[uint64, keys.MortonKey, V, keys.MortonCodec]
)

// New returns an empty trie over c's key space; opts configure the
// engine (engine.WithSpan).
func New[U any, K keys.Key[K], V any, C Codec[U, K]](c C, opts ...engine.Option[K, V]) *Trie[U, K, V, C] {
	lo, hi := c.Bounds()
	return &Trie[U, K, V, C]{c: c, e: engine.New(lo, hi, opts...)}
}

// NewU64 returns an empty trie over keys in [0, 2^width). width must be
// in [1, keys.MaxWidth]. Fixed-width keys all share one length, so
// every span engine.WithSpan accepts is sound here.
func NewU64[V any](width uint32, opts ...engine.Option[keys.Uint64Key, V]) (*U64[V], error) {
	if width < 1 || width > keys.MaxWidth {
		return nil, fmt.Errorf("patricia trie: width %d out of range [1, %d]", width, keys.MaxWidth)
	}
	return New[uint64, keys.Uint64Key, V](keys.U64Codec{Width: width}, opts...), nil
}

// NewString returns an empty trie over non-empty byte strings. It stays
// at span 1: Section VI keys have lengths 16n+2, which wider digits
// would not tell apart.
func NewString[V any]() *String[V] { return New[[]byte, keys.Bitstring, V](keys.StringCodec{}) }

// NewMorton returns an empty trie over the full 64-bit Z-order code
// space, the whole uint32 × uint32 plane.
func NewMorton[V any]() *Morton[V] { return New[uint64, keys.MortonKey, V](keys.MortonCodec{}) }

// Codec returns the trie's key codec.
func (t *Trie[U, K, V, C]) Codec() C { return t.c }

// Contains reports whether u is in the set (the paper's find, lines
// 72-75): one descent that only reads, with no CAS.
func (t *Trie[U, K, V, C]) Contains(u U) bool {
	k, ok := t.c.Encode(u)
	return ok && t.e.Contains(k)
}

// Load returns the value bound to u, or (zero, false) when u is absent.
// Like Contains it only reads, and the value comes back unboxed from the
// leaf.
func (t *Trie[U, K, V, C]) Load(u U) (V, bool) {
	k, ok := t.c.Encode(u)
	if !ok {
		var zero V
		return zero, false
	}
	return t.e.Load(k)
}

// Insert adds u, returning false if it was already present. Lock-free.
func (t *Trie[U, K, V, C]) Insert(u U) bool {
	k, ok := t.c.Encode(u)
	return ok && t.e.Insert(k)
}

// InsertValue is Insert with a value payload bound to the fresh leaf.
func (t *Trie[U, K, V, C]) InsertValue(u U, val V) bool {
	k, ok := t.c.Encode(u)
	return ok && t.e.InsertValue(k, val)
}

// Delete removes u, returning false if it was absent. Lock-free.
func (t *Trie[U, K, V, C]) Delete(u U) bool {
	k, ok := t.c.Encode(u)
	return ok && t.e.Delete(k)
}

// Replace atomically removes old and inserts new, returning true
// exactly when old was present and new absent (and old != new); the
// value payload travels with the key. Lock-free.
func (t *Trie[U, K, V, C]) Replace(old, new U) bool {
	ko, okOld := t.c.Encode(old)
	kn, okNew := t.c.Encode(new)
	return okOld && okNew && t.e.Replace(ko, kn)
}

// Store binds u to val, inserting the key if absent and overwriting the
// value if present (lock-free upsert). It returns false only for a key
// outside the key space.
func (t *Trie[U, K, V, C]) Store(u U, val V) bool {
	k, ok := t.c.Encode(u)
	if ok {
		t.e.Store(k, val)
	}
	return ok
}

// LoadOrStore returns the value bound to u if present (loaded true);
// otherwise it stores val and returns it. ok is false only for a key
// outside the key space, which can be neither loaded nor stored; actual
// is then the zero value.
func (t *Trie[U, K, V, C]) LoadOrStore(u U, val V) (actual V, loaded, ok bool) {
	k, ok := t.c.Encode(u)
	if !ok {
		return actual, false, false
	}
	actual, loaded = t.e.LoadOrStore(k, val)
	return actual, loaded, true
}

// CompareAndSwap swaps u's value from old to new if the stored value
// equals old (==; it panics if the values are not comparable). It
// returns true iff the swap happened.
func (t *Trie[U, K, V, C]) CompareAndSwap(u U, old, new V) bool {
	k, ok := t.c.Encode(u)
	return ok && t.e.CompareAndSwap(k, old, new)
}

// CompareAndDelete deletes u if its stored value equals old (==; it
// panics if the values are not comparable). It returns true iff the key
// was deleted.
func (t *Trie[U, K, V, C]) CompareAndDelete(u U, old V) bool {
	k, ok := t.c.Encode(u)
	return ok && t.e.CompareAndDelete(k, old)
}

// DeleteFunc deletes u if cond returns true for its stored value,
// returning true iff the key was deleted. The value cond approved is the
// value removed (the engine pins the inspected leaf until the delete
// commits). cond may run more than once under contention and must be
// side-effect free.
func (t *Trie[U, K, V, C]) DeleteFunc(u U, cond func(V) bool) bool {
	k, ok := t.c.Encode(u)
	return ok && t.e.DeleteFunc(k, cond)
}

// Ordered reads. Like Size, Validate and Dump, these walk the trie
// without synchronization: exact at quiescence, best-effort under
// concurrent updates (each visited link was current when it was read),
// and a key present for the whole walk is always seen.

// AscendKV calls fn on every (key, value) pair with key >= from, in
// increasing encoded-key order, until fn returns false. Subtrees
// entirely below from are pruned, so resuming from a midpoint costs one
// descent, not a full walk. Nothing lies at or above a from outside the
// key space.
func (t *Trie[U, K, V, C]) AscendKV(from U, fn func(u U, val V) bool) {
	if k, ok := t.c.Encode(from); ok {
		t.e.AscendKV(k, t.decoded(fn))
	}
}

// AllKV is AscendKV from the bottom of the key space.
func (t *Trie[U, K, V, C]) AllKV(fn func(u U, val V) bool) {
	var bottom K
	t.e.AscendKV(bottom, t.decoded(fn))
}

// decoded adapts a user-key callback to the engine's encoded keys.
func (t *Trie[U, K, V, C]) decoded(fn func(U, V) bool) func(K, V) bool {
	return func(k K, val V) bool { return fn(t.c.Decode(k), val) }
}

// Min returns the smallest key in the set.
func (t *Trie[U, K, V, C]) Min() (U, bool) {
	var bottom K
	return t.decode(t.e.Ceiling(bottom))
}

// Max returns the largest key in the set.
func (t *Trie[U, K, V, C]) Max() (U, bool) {
	_, hi := t.c.Bounds()
	return t.decode(t.e.Floor(hi))
}

// Ceiling returns the smallest key >= u, if any. A u outside the key
// space has none.
func (t *Trie[U, K, V, C]) Ceiling(u U) (U, bool) {
	k, ok := t.c.Encode(u)
	if !ok {
		var zero U
		return zero, false
	}
	return t.decode(t.e.Ceiling(k))
}

// Floor returns the largest key <= u, if any. A u outside the key space
// lies above every member, so its floor is the maximum.
func (t *Trie[U, K, V, C]) Floor(u U) (U, bool) {
	k, ok := t.c.Encode(u)
	if !ok {
		return t.Max()
	}
	return t.decode(t.e.Floor(k))
}

// decode decodes the key an engine query found, if it found one.
func (t *Trie[U, K, V, C]) decode(k K, ok bool) (U, bool) {
	if !ok {
		var zero U
		return zero, false
	}
	return t.c.Decode(k), true
}

// Len returns the number of keys from the engine's atomic counter: O(1),
// allocation-free, exact at quiescence, and at most the number of
// in-flight mutations stale under concurrency (see engine.Trie.Len).
func (t *Trie[U, K, V, C]) Len() int { return t.e.Len() }

// Size counts the keys by traversal; quiescent use only.
func (t *Trie[U, K, V, C]) Size() int { return t.e.Size() }

// Validate checks the structural invariants at quiescence and returns
// the first violation found, or nil: the engine's key-agnostic
// invariants (Invariant 7 label lengthening, live children, dummy
// extremes, sorted leaves, no reachable flags) plus the codec's label
// rule.
func (t *Trie[U, K, V, C]) Validate() error { return t.e.Validate(t.c.Check) }

// Dump renders the trie structure as an indented multi-line string, for
// debugging and the triecli tool. Quiescent use only.
func (t *Trie[U, K, V, C]) Dump() string {
	lo, hi := t.c.Bounds()
	return t.e.Dump(func(label K, leaf bool) string {
		switch {
		case !leaf:
			return fmt.Sprintf("node %q", fmt.Sprint(label))
		case label.Equal(lo) || label.Equal(hi):
			return fmt.Sprintf("leaf %v (dummy)", label)
		default:
			return fmt.Sprintf("leaf %v = %v", label, t.c.Decode(label))
		}
	})
}

// EngineStats returns a snapshot of the engine's contention counters
// (see engine.Stats).
func (t *Trie[U, K, V, C]) EngineStats() engine.StatsSnapshot { return t.e.StatsSnapshot() }

// Footprint returns the engine's census of the heap objects reachable
// from the root (see engine.Footprint). Quiescent use only.
func (t *Trie[U, K, V, C]) Footprint() engine.Footprint { return t.e.Footprint() }
