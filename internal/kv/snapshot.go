package kv

import (
	"nbtrie/internal/engine"
	"nbtrie/internal/keys"
)

// Snapshot is a read-only point-in-time view of a Trie, obtained in
// O(1) from Trie.Snapshot (see internal/engine's snapshot protocol). It
// is frozen: nothing it can reach changes after Snapshot returns, so all
// methods are safe for unrestricted concurrent use and answer with the
// state at the snapshot's linearization point. Its iteration is a true
// consistent cut, unlike the live trie's.
type Snapshot[U any, K keys.Key[K], V any, C Codec[U, K]] struct {
	t *Trie[U, K, V, C]
	s *engine.Snapshot[K, V]
}

// The snapshots of the repository's key spaces.
type (
	U64Snapshot[V any]    = Snapshot[uint64, keys.Uint64Key, V, keys.U64Codec]
	StringSnapshot[V any] = Snapshot[[]byte, keys.Bitstring, V, keys.StringCodec]
	MortonSnapshot[V any] = Snapshot[uint64, keys.MortonKey, V, keys.MortonCodec]
)

// Snapshot returns a frozen view of the trie at the moment of the call,
// in O(1) time and allocation independent of the trie's size.
func (t *Trie[U, K, V, C]) Snapshot() *Snapshot[U, K, V, C] {
	return &Snapshot[U, K, V, C]{t: t, s: t.e.Snapshot()}
}

// Len returns the number of keys at the snapshot point (exact: the count
// is captured inside the snapshot barrier).
func (s *Snapshot[U, K, V, C]) Len() int { return s.s.Len() }

// Gen returns the snapshot's engine generation (diagnostics and tests).
func (s *Snapshot[U, K, V, C]) Gen() uint64 { return s.s.Gen() }

// Contains reports whether u was in the set at the snapshot point; it
// reads exactly as the live trie's Contains does.
func (s *Snapshot[U, K, V, C]) Contains(u U) bool {
	k, ok := s.t.c.Encode(u)
	return ok && s.s.Contains(k)
}

// Load returns the value bound to u at the snapshot point.
func (s *Snapshot[U, K, V, C]) Load(u U) (V, bool) {
	k, ok := s.t.c.Encode(u)
	if !ok {
		var zero V
		return zero, false
	}
	return s.s.Load(k)
}

// AscendKV calls fn on every (key, value) pair with key >= from that was
// live at the snapshot point, in increasing encoded-key order, until fn
// returns false.
func (s *Snapshot[U, K, V, C]) AscendKV(from U, fn func(u U, val V) bool) {
	if k, ok := s.t.c.Encode(from); ok {
		s.s.AscendKV(k, s.t.decoded(fn))
	}
}

// AllKV is AscendKV from the bottom of the key space.
func (s *Snapshot[U, K, V, C]) AllKV(fn func(u U, val V) bool) {
	var bottom K
	s.s.AscendKV(bottom, s.t.decoded(fn))
}
