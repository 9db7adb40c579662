package engine

import "nbtrie/internal/keys"

// Ordered traversal and queries, generic over the key type. The trie's
// leaves are sorted by K's prefix-first lexicographic Compare, so
// ascending iteration and ceiling/floor queries are one structural walk
// with Compare-based pruning (walk): a subtree rooted at label L holds
// exactly the live keys that are proper extensions of L, and every
// extension of L sorts on the same side of a probe v as L itself unless L
// is a prefix of v. AscendKV is the walk upward; Ceiling and Floor are the
// first key the walk yields upward and downward. The walk is a Snapshot
// method; the live trie runs it on Trie.live, without synchronization:
// results are exact at quiescence and best-effort under concurrent
// updates (each visited link was current at the moment it was read).

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

// walk calls fn on the usable leaves under n in key order, until fn
// returns false, and reports whether fn never did. Upward (down false)
// it visits the keys >= v in ascending order, pruning the subtrees
// allBelow v; downward it visits the keys <= v in descending order,
// running the slots in reverse and pruning the subtrees allAbove v.
// Empty slots of wide nodes are stepped over either way.
func (s *Snapshot[K, V]) walk(n *node[K, V], v K, down bool, fn func(K, V) bool) bool {
	if n.isLeaf() {
		if c := n.label.Compare(v); (c >= 0 && !down || c <= 0 && down) && s.usable(n) {
			return fn(n.label, n.value())
		}
		return true
	}
	in := n.inner()
	last := s.t.fanout() - 1
	for j := 0; j <= last; j++ {
		idx := j
		if down {
			idx = last - j
		}
		c := in.kid(idx).Load()
		if c == nil || !down && allBelow(c, v) || down && allAbove(c, v) {
			continue
		}
		if !s.walk(c, v, down, fn) {
			return false
		}
	}
	return true
}

// first returns the first key walk yields from v in the given direction:
// the ceiling of v upward, its floor downward.
func (s *Snapshot[K, V]) first(v K, down bool) (k K, ok bool) {
	s.walk(s.root, v, down, func(leaf K, _ V) bool {
		k, ok = leaf, true
		return false
	})
	return k, ok
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
	return s.first(v, false)
}

// Floor returns the largest live key <= v, if any.
func (t *Trie[K, V]) Floor(v K) (K, bool) {
	s := t.live()
	return s.first(v, true)
}
