package engine

import "nbtrie/internal/keys"

// O(1) point-in-time snapshots via generation stamps, the Ctrie line's
// signature trick (Prokopec et al., "Cache-Aware Lock-Free Concurrent
// Hash Tries") adapted to the paper's flag/help protocol.
//
// Every node carries the generation it was created in. Snapshot bumps
// the generation by swapping in a fresh root (sharing both children)
// under a brief barrier: it waits for every in-flight mutation to drain
// and keeps new ones out for the O(1) swap. From then on the two roots
// diverge by copy-on-write: before a mutation may flag an internal node
// or swing one of its child pointers, the node must belong to the
// current generation; searchMut renews stale internal nodes along its
// descent path by splicing in a current-generation copy through the
// ordinary flag protocol (flag the current-generation parent and the
// stale node, one child CAS, exactly the descriptor shape of an insert
// displacing an internal node). The stale original stays reachable from
// the snapshot root and — like every node an update removes — stays
// flagged forever, so no later operation can ever mutate it.
//
// Why the drained structure is frozen. After Snapshot returns, the only
// code that can touch a pre-snapshot node is a late helper of an update
// that already completed (its owner drained before the snapshot).
// Helping is idempotent-by-CAS: the completed update's child CASes
// already moved every pointer away from the helper's expected old
// values, and child pointers never repeat a value (fresh nodes only),
// so every late CAS fails harmlessly. The single non-CAS write in the
// protocol — a general-case replace storing its Flag into the removed
// leaf's info — can only re-store the same value for a drained update;
// for a post-snapshot replace it lands on a leaf that may be shared
// with the snapshot, which is why the snapshot's logical-removal check
// is generation-aware (removed): a Flag whose first CAS target belongs
// to a newer generation describes a removal that happened after this
// snapshot and is ignored.
//
// Mutating operations that find no stale node on their path pay only
// the gate (gate.go): an add on a lane of one random draw, a load
// of the pending flag and the add back, with no allocation and no word
// two updaters are bound to share; the pinned allocs/op budgets are
// unchanged. Renewal cost is paid once per stale path segment after a
// snapshot and amortizes away, exactly as in Ctries.

// Snapshot is a read-only point-in-time view of a Trie, obtained in
// O(1) from Trie.Snapshot. It shares structure with the live trie:
// nothing reachable from its root can change after Snapshot returns, so
// all methods are safe for unrestricted concurrent use (against each
// other and against live-trie updates) and always observe exactly the
// state the trie held at the snapshot's linearization point.
type Snapshot[K keys.Key[K], V any] struct {
	t    *Trie[K, V]
	root *node[K, V]
	gen  uint64
	n    int64
}

// Snapshot returns a read-only view of the trie at the moment of the
// call, in O(1) time and allocation independent of the trie's size: it
// drains the gate, swaps in a fresh root carrying the next generation,
// and captures the entry count. Subsequent mutations copy-on-write stale
// paths, so the returned view is frozen while the live trie moves on.
//
// Snapshot is the engine's one blocking operation. The drain waits for
// every mutation in flight — an updater descheduled mid-operation holds
// it up for as long as it stays descheduled — and mutations that start
// meanwhile wait for the Snapshot to return. Reads never wait.
func (t *Trie[K, V]) Snapshot() *Snapshot[K, V] {
	t.gate.drain()
	old := t.root.Load()
	t.root.Store(t.copyNode(old, old.gen+1))
	n := t.count.Load()
	t.gate.reopen()
	if n < 0 {
		n = 0
	}
	return &Snapshot[K, V]{t: t, root: old, gen: old.gen, n: n}
}

// Gen returns the snapshot's generation (diagnostics and tests).
func (s *Snapshot[K, V]) Gen() uint64 { return s.gen }

// Len returns the number of live user keys at the snapshot's
// linearization point. Exact: the count was read inside the barrier,
// with no mutation in flight.
func (s *Snapshot[K, V]) Len() int { return int(s.n) }

// removed is the snapshot's generation-aware version of
// logicallyRemoved: a Flag planted on a leaf by a replace whose flagged
// parents belong to a generation newer than the snapshot describes a
// removal that happened after the snapshot was taken, so the leaf was
// live in this view. (A replace from this or an older generation
// completed before the snapshot's barrier released — the barrier drains
// all in-flight mutations — so its leaf was already physically
// unlinked and cannot be reached from the snapshot root at all; the
// structural check below is kept as a defensive fallback.)
func (s *Snapshot[K, V]) removed(i *info[K, V]) bool {
	if !i.flagged() {
		return false
	}
	p, old := i.flag.firstCAS()
	if p == nil {
		// Root-CAS sentinel: the replace's insert half swapped the root
		// node itself. The displaced root (the first CAS's old child,
		// always internal) carries the generation the replace ran in.
		if old.gen > s.gen {
			return false
		}
		return s.t.root.Load() != old
	}
	return p.gen <= s.gen && !holdsChild(p.inner(), old)
}

// search is the read-only descent over the frozen structure.
func (s *Snapshot[K, V]) search(v K) (n *node[K, V], rmvd bool) {
	n = s.root
	for n != nil && !n.isLeaf() && n.label.Len() < v.Len() && n.label.IsPrefixOf(v) {
		n = n.inner().kid(s.t.slotOf(v, n.label.Len())).Load()
	}
	if n != nil && n.isLeaf() {
		rmvd = s.removed(n.info.Load())
	}
	return n, rmvd
}

// Contains reports whether the encoded key v was in the set at the
// snapshot point.
func (s *Snapshot[K, V]) Contains(v K) bool {
	n, rmvd := s.search(v)
	return keyInTrie(n, v, rmvd)
}

// Load returns the value bound to v at the snapshot point.
func (s *Snapshot[K, V]) Load(v K) (V, bool) {
	n, rmvd := s.search(v)
	if !keyInTrie(n, v, rmvd) {
		var zero V
		return zero, false
	}
	return n.leaf().val, true
}

// AscendKV calls fn on every (key, value) pair with key >= from that was
// live at the snapshot point, in ascending encoded-key order, until fn
// returns false. Unlike the live trie's iterator this is a true
// consistent cut: the structure cannot change mid-walk.
func (s *Snapshot[K, V]) AscendKV(from K, fn func(k K, val V) bool) {
	s.ascendNode(s.root, from, fn)
}

func (s *Snapshot[K, V]) ascendNode(n *node[K, V], v K, fn func(K, V) bool) bool {
	if n.isLeaf() {
		if n.label.Compare(v) >= 0 && s.usable(n) {
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
		if !s.ascendNode(c, v, fn) {
			return false
		}
	}
	return true
}

// usable mirrors Trie.usableLeaf with the generation-aware removal check.
func (s *Snapshot[K, V]) usable(n *node[K, V]) bool {
	if n.label.Equal(s.t.dummyMin) || n.label.Equal(s.t.dummyMax) {
		return false
	}
	return !s.removed(n.info.Load())
}

// searchMut is search for mutating operations: the same descent, but it
// renews any stale internal node it meets — splicing a current-generation
// copy over it through the flag protocol — before stepping into it, so
// the returned position's gp, p and node (when internal) all carry the
// current generation and are safe to flag and child-CAS without ever
// mutating a node a snapshot can reach. Must be called inside the gate;
// l is the lane the caller entered on, where the descent's depth is
// recorded.
func (t *Trie[K, V]) searchMut(l *lane, v K) searchResult[K, V] {
	root := t.root.Load()
	g := root.gen
restart:
	for {
		var r searchResult[K, V]
		var depth uint64
		n := root
		for n != nil && !n.isLeaf() && n.label.Len() < v.Len() && n.label.IsPrefixOf(v) {
			r.gp, r.gpInfo = r.p, r.pInfo
			r.p, r.pInfo = n, n.info.Load()
			slot := n.inner().kid(t.slotOf(v, n.label.Len()))
			n = slot.Load()
			depth++
			if stale(n, g) {
				t.renewChild(l, r.p, r.pInfo, n, g)
				// Carry on from the renewed child, re-reading r.p as a
				// descent arriving at it now would (info before child).
				// Only when r.p is flagged or the renewal lost does the
				// descent start over, from the root as it is now: a wide
				// trie's root node is itself replaced by slot fills and
				// clears (the root-CAS sentinel), and a displaced root
				// stays flagged forever, so a renewal under it could
				// never succeed. The generation cannot change meanwhile.
				r.pInfo = r.p.info.Load()
				n = slot.Load()
				if r.pInfo.flagged() || stale(n, g) {
					root = t.root.Load()
					continue restart
				}
			}
		}
		r.node = n
		l.recordDepth(depth)
		if n != nil && n.isLeaf() {
			r.rmvd = t.logicallyRemoved(n.info.Load())
		}
		return r
	}
}

// stale reports whether n is an internal node of a generation other than
// g, which a mutation must renew before flagging it.
func stale[K keys.Key[K], V any](n *node[K, V], g uint64) bool {
	return n != nil && !n.isLeaf() && n.gen != g
}

// renewChild splices a current-generation copy of the stale internal
// node c over c itself, under its current-generation parent p: flag p
// (expecting the info captured during the descent) and c, one child CAS
// from c to the copy, unflag p. The copy shares c's children, so a
// renewal is O(1); c leaves the live trie and — like every removed node
// — stays flagged forever, which both keeps later operations off it and
// preserves its child pointers for the snapshots that still reach it.
// c's info is captured before its children are read, so the flag CAS on
// c certifies the copy is faithful (the same Lemma 31 argument as
// copyNode). On any conflict the attempt is abandoned after helping;
// the caller re-descends either way.
func (t *Trie[K, V]) renewChild(l *lane, p *node[K, V], pInfo *info[K, V], c *node[K, V], g uint64) {
	t.stats.snapshotRenewals.Add(1)
	cInfo := c.info.Load()
	if t.helpConflict(l, pInfo, cInfo, nil, nil) {
		return
	}
	nc := t.copyNode(c, g)
	i := t.newDesc(l,
		[4]flagEntry[K, V]{{p, pInfo}, {c, cInfo}}, 2,
		[2]*node[K, V]{p}, [2]casEntry[K, V]{{c, nc}}, 1,
		nil)
	if i != nil {
		t.help(l, i)
	}
}
