// Package core is the fixed-width instantiation of the shared
// non-blocking update engine (internal/engine): the Patricia trie of
// Shafiei, "Non-blocking Patricia Tries with Replace Operations"
// (ICDCS 2013) over uint64 keys in [0, 2^width), with the value payload
// V carried on leaves making it a linearizable uint64 → V map.
//
// All protocol code — descriptors, flagging, helping, the child CASes,
// replace's case analysis — lives in internal/engine; this package
// contributes only the key layer: user keys are shifted into the
// (width+1)-bit internal space (keys.EncodeUint64, the paper's k -> k+1
// mapping that frees the dummy strings) and validated for range, with
// out-of-range keys treated as permanently absent rather than errors.
//
// Because keys.Uint64Key has bounded length and pure value arithmetic,
// this instantiation keeps the paper's strongest read guarantee:
// Contains/Load are wait-free — at most width+1 child-pointer reads, no
// CAS, no allocation — which is what Implementation.WaitFreeRead
// advertises at the registry layer. (The byte-string instantiation,
// internal/strtrie, is the contrast: unbounded keys make its search
// lock-free only.)
package core

import (
	"fmt"

	"nbtrie/internal/engine"
	"nbtrie/internal/keys"
)

// Trie is a non-blocking Patricia trie implementing a linearizable set
// of uint64 keys in [0, 2^width) — and a linearizable uint64 → V map
// through the value payload carried unboxed on every leaf. All methods
// are safe for concurrent use by any number of goroutines without
// external synchronization. The pure set view instantiates
// V = struct{}, which occupies no space in the leaf.
type Trie[V any] struct {
	width uint32
	klen  uint32
	span  uint32
	e     *engine.Trie[keys.Uint64Key, V]
}

// Option configures a Trie.
type Option[V any] func(*options)

type options struct {
	span uint32
}

// WithSpan sets the digit width s in bits: internal nodes carry 2^s
// child slots (a span-4 node's 16 pointers pack into two cache lines)
// and every level of the trie resolves s key bits, cutting expected
// depth s-fold at the cost of wider node copies on the update paths. s
// must be in [1, 6]; 1 — the default — is the paper's binary trie.
// Fixed-width keys all share one length, so every span satisfies the
// engine's digit-soundness constraint, including widths where the
// bottom digit is partial. All guarantees are unchanged: wait-free
// allocation-free reads, lock-free updates, atomic Replace, O(1)
// snapshots.
func WithSpan[V any](s uint32) Option[V] {
	if s < 1 || s > 6 {
		panic("patricia trie: span must be in [1, 6]")
	}
	return func(o *options) { o.span = s }
}

// New returns an empty trie over keys in [0, 2^width). Width must be in
// [1, keys.MaxWidth].
func New[V any](width uint32, opts ...Option[V]) (*Trie[V], error) {
	if width < 1 || width > keys.MaxWidth {
		return nil, fmt.Errorf("patricia trie: width %d out of range [1, %d]", width, keys.MaxWidth)
	}
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	var eopts []engine.Option[keys.Uint64Key, V]
	span := o.span
	if span == 0 {
		span = 1
	}
	if span > 1 {
		eopts = append(eopts, engine.WithSpan[keys.Uint64Key, V](span))
	}
	return &Trie[V]{
		width: width,
		klen:  keys.KeyLen(width),
		span:  span,
		e:     engine.New[keys.Uint64Key, V](keys.Uint64DummyMin(width), keys.Uint64DummyMax(width), eopts...),
	}, nil
}

// Width returns the user-key width in bits.
func (t *Trie[V]) Width() uint32 { return t.width }

// Span returns the digit width s: each internal node resolves s key
// bits through 2^s child slots. 1 unless set with WithSpan.
func (t *Trie[V]) Span() uint32 { return t.span }

// encodeOK maps a user key into the internal key space, reporting false
// for keys outside [0, 2^width). Out-of-range keys are never members of
// the set, so every operation treats them as simply absent instead of
// panicking.
func (t *Trie[V]) encodeOK(k uint64) (keys.Uint64Key, bool) {
	if !keys.InRange(k, t.width) {
		return keys.Uint64Key{}, false
	}
	return keys.EncodeUint64(k, t.width), true
}

// Contains reports whether k is in the set. It is wait-free, never
// modifies the trie and never allocates (the paper's find, lines 72-75).
// Out-of-range keys are reported absent.
func (t *Trie[V]) Contains(k uint64) bool {
	v, ok := t.encodeOK(k)
	return ok && t.e.Contains(v)
}

// Load returns the value stored under k, or (zero, false) when k is not
// in the set. Like Contains it is wait-free and allocation-free: one
// descent, only reads, no CAS, and the value comes back unboxed straight
// from the leaf.
func (t *Trie[V]) Load(k uint64) (V, bool) {
	v, ok := t.encodeOK(k)
	if !ok {
		var zero V
		return zero, false
	}
	return t.e.Load(v)
}

// Insert adds k to the set, returning false if it was already present.
// Out-of-range keys are rejected (false). Lock-free.
func (t *Trie[V]) Insert(k uint64) bool {
	var zero V
	return t.InsertValue(k, zero)
}

// InsertValue is Insert with a value payload bound to the fresh leaf.
func (t *Trie[V]) InsertValue(k uint64, val V) bool {
	v, ok := t.encodeOK(k)
	return ok && t.e.InsertValue(v, val)
}

// Delete removes k from the set, returning false if it was absent.
// Out-of-range keys are reported absent. Lock-free.
func (t *Trie[V]) Delete(k uint64) bool {
	v, ok := t.encodeOK(k)
	return ok && t.e.Delete(v)
}

// Replace atomically removes old and inserts new, returning true exactly
// when old was present and new absent; the value payload travels with
// the key. Out-of-range keys make the operation fail (an out-of-range
// old is never present; an out-of-range new cannot be inserted).
func (t *Trie[V]) Replace(old, new uint64) bool {
	vd, okD := t.encodeOK(old)
	vi, okI := t.encodeOK(new)
	if !okD || !okI {
		return false
	}
	return t.e.Replace(vd, vi)
}

// Store binds k to val, inserting the key if absent and overwriting the
// value if present (lock-free upsert). It returns false only for
// out-of-range keys, which cannot be stored.
func (t *Trie[V]) Store(k uint64, val V) bool {
	v, ok := t.encodeOK(k)
	if !ok {
		return false
	}
	t.e.Store(v, val)
	return true
}

// LoadOrStore returns the value bound to k if present (loaded == true);
// otherwise it stores val and returns it. The load path is wait-free.
// ok is false only for out-of-range keys, which can neither be loaded
// nor stored; loaded is false and actual is the zero value in that case.
func (t *Trie[V]) LoadOrStore(k uint64, val V) (actual V, loaded, ok bool) {
	v, inRange := t.encodeOK(k)
	if !inRange {
		var zero V
		return zero, false, false
	}
	actual, loaded = t.e.LoadOrStore(v, val)
	return actual, loaded, true
}

// CompareAndSwap swaps the value bound to k from old to new if the stored
// value equals old (interface equality; old must be comparable). It
// returns true iff the swap happened.
func (t *Trie[V]) CompareAndSwap(k uint64, old, new V) bool {
	v, ok := t.encodeOK(k)
	return ok && t.e.CompareAndSwap(v, old, new)
}

// CompareAndDelete deletes k if its stored value equals old (interface
// equality; old must be comparable). It returns true iff the key was
// deleted.
func (t *Trie[V]) CompareAndDelete(k uint64, old V) bool {
	v, ok := t.encodeOK(k)
	return ok && t.e.CompareAndDelete(v, old)
}

// DeleteFunc deletes k if cond returns true for its stored value,
// returning true iff the key was deleted. The value cond approved is the
// value removed (the engine pins the inspected leaf until the delete
// commits). cond may run more than once under contention and must be
// side-effect free.
func (t *Trie[V]) DeleteFunc(k uint64, cond func(V) bool) bool {
	v, ok := t.encodeOK(k)
	return ok && t.e.DeleteFunc(v, cond)
}
