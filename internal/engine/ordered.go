package engine

import "nbtrie/internal/keys"

// Ordered traversal and queries, generic over the key type. The trie's
// leaves are sorted by K's prefix-first lexicographic Compare, so
// ascending iteration and ceiling/floor queries are structural walks
// with Compare-based pruning: a subtree rooted at label L holds exactly
// the live keys that are proper extensions of L, and every extension of
// L sorts on the same side of a probe v as L itself unless L is a prefix
// of v. The walks are Snapshot methods; the live trie runs them on
// Trie.live, without synchronization: results are exact at quiescence and
// best-effort under concurrent updates (each visited link was current at
// the moment it was read).

// allBelow reports whether every leaf under c sorts strictly before v:
// c's label differs from v at some bit before either ends and is
// smaller there, so all of its extensions are too. (When c.label is a
// prefix of v its subtree straddles v and cannot be pruned.)
func allBelow[K keys.Key[K], V any](c *node[K, V], v K) bool {
	return c.label.Compare(v) < 0 && !c.label.IsPrefixOf(v)
}

// allAbove is the symmetric upper prune: every leaf under c sorts
// strictly after v.
func allAbove[K keys.Key[K], V any](c *node[K, V], v K) bool {
	return c.label.Compare(v) > 0 && !c.label.IsPrefixOf(v)
}

// AscendKV calls fn on every live (key, value) pair with key >= from, in
// ascending encoded-key order, until fn returns false. A zero-value K
// (the empty string) iterates everything. Subtrees entirely below from
// are pruned, so resuming an iteration from a midpoint costs one
// descent, not a full walk.
func (t *Trie[K, V]) AscendKV(from K, fn func(k K, val V) bool) {
	s := t.live()
	s.AscendKV(from, fn)
}

// Ceiling returns the smallest live key >= v, if any.
func (t *Trie[K, V]) Ceiling(v K) (K, bool) {
	s := t.live()
	return s.ceilNode(s.root, v)
}

func (s *Snapshot[K, V]) ceilNode(n *node[K, V], v K) (K, bool) {
	if n.isLeaf() {
		if n.label.Compare(v) >= 0 && s.usable(n) {
			return n.label, true
		}
		var zero K
		return zero, false
	}
	in := n.inner()
	for idx := 0; idx < s.t.fanout(in); idx++ {
		c := in.kid(idx).Load()
		if c == nil || allBelow(c, v) {
			continue
		}
		if k, ok := s.ceilNode(c, v); ok {
			return k, true
		}
	}
	var zero K
	return zero, false
}

// Floor returns the largest live key <= v, if any.
func (t *Trie[K, V]) Floor(v K) (K, bool) {
	s := t.live()
	return s.floorNode(s.root, v)
}

func (s *Snapshot[K, V]) floorNode(n *node[K, V], v K) (K, bool) {
	if n.isLeaf() {
		if n.label.Compare(v) <= 0 && s.usable(n) {
			return n.label, true
		}
		var zero K
		return zero, false
	}
	in := n.inner()
	for idx := s.t.fanout(in) - 1; idx >= 0; idx-- {
		c := in.kid(idx).Load()
		if c == nil || allAbove(c, v) {
			continue
		}
		if k, ok := s.floorNode(c, v); ok {
			return k, true
		}
	}
	var zero K
	return zero, false
}
