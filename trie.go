package nbtrie

import (
	"fmt"

	"nbtrie/internal/engine"
	"nbtrie/internal/keys"
)

// The one instantiation layer over the shared update engine: the engine
// owns the paper's whole protocol, a codec the one decision a key space
// adds, and every public type holds its trie by value (DESIGN.md §4).

// codec maps the user keys U of one key space into the engine's key type
// K.
type codec[U any, K keys.Key[K]] interface {
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

// trie is a set of user keys U, and through the value V carried unboxed
// on every leaf a U → V map, over one engine instance. A key outside the
// codec's key space is absent to every read, and every write of it
// fails. The ordered reads, Validate and Dump walk the trie without
// synchronization: exact at quiescence, best-effort under concurrent
// updates, and a key present for the whole walk is always seen.
type trie[U any, K keys.Key[K], V any, C codec[U, K]] struct {
	c C
	e *engine.Trie[K, V]
}

// newTrie returns an empty trie over c's key space; opts configure the
// engine's digit width (engine.WithSpan).
func newTrie[U any, K keys.Key[K], V any, C codec[U, K]](c C, opts ...engine.Option[K, V]) trie[U, K, V, C] {
	lo, hi := c.Bounds()
	return trie[U, K, V, C]{c: c, e: engine.New(lo, hi, opts...)}
}

// checkWidth rejects a fixed key width outside [1, keys.MaxWidth]. Every
// span engine.WithSpan accepts is sound within one: fixed-width keys all
// share one length.
func checkWidth(width uint32) error {
	if width < 1 || width > keys.MaxWidth {
		return fmt.Errorf("patricia trie: width %d out of range [1, %d]", width, keys.MaxWidth)
	}
	return nil
}

func (t *trie[U, K, V, C]) Contains(u U) bool {
	k, ok := t.c.Encode(u)
	return ok && t.e.Contains(k)
}

func (t *trie[U, K, V, C]) Load(u U) (V, bool) {
	k, ok := t.c.Encode(u)
	if !ok {
		var zero V
		return zero, false
	}
	return t.e.Load(k)
}

func (t *trie[U, K, V, C]) Insert(u U) bool {
	k, ok := t.c.Encode(u)
	return ok && t.e.Insert(k)
}

func (t *trie[U, K, V, C]) Delete(u U) bool {
	k, ok := t.c.Encode(u)
	return ok && t.e.Delete(k)
}

func (t *trie[U, K, V, C]) Replace(old, new U) bool {
	ko, okOld := t.c.Encode(old)
	kn, okNew := t.c.Encode(new)
	return okOld && okNew && t.e.Replace(ko, kn)
}

func (t *trie[U, K, V, C]) Store(u U, val V) bool {
	k, ok := t.c.Encode(u)
	if ok {
		t.e.Store(k, val)
	}
	return ok
}

func (t *trie[U, K, V, C]) Swap(u U, val V) (previous V, loaded, ok bool) {
	k, ok := t.c.Encode(u)
	if !ok {
		return previous, false, false
	}
	previous, loaded = t.e.Swap(k, val)
	return previous, loaded, true
}

func (t *trie[U, K, V, C]) LoadAndDelete(u U) (value V, loaded bool) {
	if k, ok := t.c.Encode(u); ok {
		return t.e.LoadAndDelete(k)
	}
	return value, false
}

func (t *trie[U, K, V, C]) LoadOrStore(u U, val V) (actual V, loaded, ok bool) {
	k, ok := t.c.Encode(u)
	if !ok {
		return actual, false, false
	}
	actual, loaded = t.e.LoadOrStore(k, val)
	return actual, loaded, true
}

func (t *trie[U, K, V, C]) CompareAndSwap(u U, old, new V) bool {
	k, ok := t.c.Encode(u)
	return ok && t.e.CompareAndSwap(k, old, new)
}

func (t *trie[U, K, V, C]) CompareAndDelete(u U, old V) bool {
	k, ok := t.c.Encode(u)
	return ok && t.e.CompareAndDelete(k, old)
}

func (t *trie[U, K, V, C]) DeleteFunc(u U, cond func(V) bool) bool {
	k, ok := t.c.Encode(u)
	return ok && t.e.DeleteFunc(k, cond)
}

func (t *trie[U, K, V, C]) CompareAndSwapFunc(u U, cond func(V) bool, new V) bool {
	k, ok := t.c.Encode(u)
	return ok && t.e.CompareAndSwapFunc(k, cond, new)
}

func (t *trie[U, K, V, C]) AscendKV(from U, fn func(u U, val V) bool) {
	if k, ok := t.c.Encode(from); ok {
		t.e.AscendKV(k, decoded[U, K](t.c, fn))
	}
}

func (t *trie[U, K, V, C]) AllKV(fn func(u U, val V) bool) {
	var bottom K
	t.e.AscendKV(bottom, decoded[U, K](t.c, fn))
}

// decoded adapts a user-key callback to the engine's encoded keys.
func decoded[U any, K keys.Key[K], V any, C codec[U, K]](c C, fn func(U, V) bool) func(K, V) bool {
	return func(k K, val V) bool { return fn(c.Decode(k), val) }
}

func (t *trie[U, K, V, C]) Min() (U, bool) {
	var bottom K
	return t.decode(t.e.Ceiling(bottom))
}

func (t *trie[U, K, V, C]) Max() (U, bool) {
	_, hi := t.c.Bounds()
	return t.decode(t.e.Floor(hi))
}

func (t *trie[U, K, V, C]) Ceiling(u U) (U, bool) {
	k, ok := t.c.Encode(u)
	if !ok {
		var zero U
		return zero, false
	}
	return t.decode(t.e.Ceiling(k))
}

func (t *trie[U, K, V, C]) Floor(u U) (U, bool) {
	k, ok := t.c.Encode(u)
	if !ok {
		return t.Max()
	}
	return t.decode(t.e.Floor(k))
}

// decode decodes the key an engine query found, if it found one.
func (t *trie[U, K, V, C]) decode(k K, ok bool) (U, bool) {
	if !ok {
		var zero U
		return zero, false
	}
	return t.c.Decode(k), true
}

func (t *trie[U, K, V, C]) Len() int { return t.e.Len() }

func (t *trie[U, K, V, C]) Validate() error { return t.e.Validate(t.c.Check) }

func (t *trie[U, K, V, C]) Dump() string {
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

// snap is a frozen view of a trie (see internal/engine's snapshot
// protocol), read through the trie's codec.
type snap[U any, K keys.Key[K], V any, C codec[U, K]] struct {
	c C
	s *engine.Snapshot[K, V]
}

func (t *trie[U, K, V, C]) Snapshot() snap[U, K, V, C] {
	return snap[U, K, V, C]{c: t.c, s: t.e.Snapshot()}
}

func (s *snap[U, K, V, C]) Release() { s.s.Release() }

// view returns the engine snapshot to read, panicking once it has been
// released: the nodes it reached may have been flagged in place since.
func (s *snap[U, K, V, C]) view() *engine.Snapshot[K, V] {
	if s.s.Released() {
		panic("nbtrie: read from a released snapshot")
	}
	return s.s
}

func (s *snap[U, K, V, C]) Len() int { return s.view().Len() }

func (s *snap[U, K, V, C]) Contains(u U) bool {
	v := s.view()
	k, ok := s.c.Encode(u)
	return ok && v.Contains(k)
}

func (s *snap[U, K, V, C]) Load(u U) (V, bool) {
	v := s.view()
	k, ok := s.c.Encode(u)
	if !ok {
		var zero V
		return zero, false
	}
	return v.Load(k)
}

func (s *snap[U, K, V, C]) AscendKV(from U, fn func(u U, val V) bool) {
	v := s.view()
	if k, ok := s.c.Encode(from); ok {
		v.AscendKV(k, decoded[U, K](s.c, fn))
	}
}

func (s *snap[U, K, V, C]) AllKV(fn func(u U, val V) bool) {
	var bottom K
	s.view().AscendKV(bottom, decoded[U, K](s.c, fn))
}
