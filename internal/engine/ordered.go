package engine

import "nbtrie/internal/keys"

// Ordered traversal and queries, generic over the key type. The trie's
// leaves are sorted by K's prefix-first lexicographic Compare, so
// ascending iteration and ceiling/floor queries are structural walks
// with Compare-based pruning: a subtree rooted at label L holds exactly
// the live keys that are proper extensions of L, and every extension of
// L sorts on the same side of a probe v as L itself unless L is a prefix
// of v. All of these read without synchronization: results are exact at
// quiescence and best-effort under concurrent updates (each visited link
// was current at the moment it was read).

// usableLeaf reports whether a leaf holds a live user key: not one of
// the two dummies and not logically removed by a general-case replace.
func (t *Trie[K, V]) usableLeaf(n *node[K, V]) bool {
	if n.label.Equal(t.dummyMin) || n.label.Equal(t.dummyMax) {
		return false
	}
	return !t.logicallyRemoved(n.info.Load())
}

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
	t.ascendNode(t.root.Load(), from, fn)
}

func (t *Trie[K, V]) ascendNode(n *node[K, V], v K, fn func(K, V) bool) bool {
	if n.isLeaf() {
		if n.label.Compare(v) >= 0 && t.usableLeaf(n) {
			return fn(n.label, n.leaf().val)
		}
		return true
	}
	in := n.inner()
	for idx := 0; idx < in.fanout(); idx++ {
		c := in.kid(idx).Load()
		if c == nil || allBelow(c, v) {
			continue
		}
		if !t.ascendNode(c, v, fn) {
			return false
		}
	}
	return true
}

// Ceiling returns the smallest live key >= v, if any.
func (t *Trie[K, V]) Ceiling(v K) (K, bool) {
	return t.ceilNode(t.root.Load(), v)
}

func (t *Trie[K, V]) ceilNode(n *node[K, V], v K) (K, bool) {
	if n.isLeaf() {
		if n.label.Compare(v) >= 0 && t.usableLeaf(n) {
			return n.label, true
		}
		var zero K
		return zero, false
	}
	in := n.inner()
	for idx := 0; idx < in.fanout(); idx++ {
		c := in.kid(idx).Load()
		if c == nil || allBelow(c, v) {
			continue
		}
		if k, ok := t.ceilNode(c, v); ok {
			return k, true
		}
	}
	var zero K
	return zero, false
}

// Floor returns the largest live key <= v, if any.
func (t *Trie[K, V]) Floor(v K) (K, bool) {
	return t.floorNode(t.root.Load(), v)
}

func (t *Trie[K, V]) floorNode(n *node[K, V], v K) (K, bool) {
	if n.isLeaf() {
		if n.label.Compare(v) <= 0 && t.usableLeaf(n) {
			return n.label, true
		}
		var zero K
		return zero, false
	}
	in := n.inner()
	for idx := in.fanout() - 1; idx >= 0; idx-- {
		c := in.kid(idx).Load()
		if c == nil || allAbove(c, v) {
			continue
		}
		if k, ok := t.floorNode(c, v); ok {
			return k, true
		}
	}
	var zero K
	return zero, false
}
