package engine

import (
	"sync/atomic"

	"nbtrie/internal/keys"
)

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
// The live trie reads through the same code: Trie.live is a Snapshot
// value at the current root whose generation (liveGen) is newer than
// any node's, so removed counts every Flag — the paper's check — and
// Contains and Load have one descent (search) and AscendKV, Ceiling and
// Floor one ordered walk (walk), as a Ctrie reads a snapshot and the
// live trie with one lookup. Only the live descents, this one and the
// mutators' searchMut, consult the shortcut table (shortcut.go): the
// root a Snapshot swaps out is not flagged, so the table's "unflagged
// means in the trie" holds for the live trie alone.
//
// Mutating operations that find no stale node on their path pay only
// the gate (gate.go): an add on a lane of one random draw, a load
// of the gate's state word and the add back, with no allocation and no
// word two updaters are bound to share; the pinned allocs/op budgets are
// unchanged.
//
// Renewal is paid only while a snapshot is held. A Ctrie renews every
// stale node after every snapshot ever taken, because it never learns
// that a snapshot is done; here the reader says so with Release. The
// gate's state word counts the unreleased snapshots, and searchMut
// renews a stale node only when that count, read next to the root, is
// non-zero; otherwise it flags old-generation nodes in place. Why that
// is linearizable:
//   - Snapshot raises the count inside its drain, so no updater inside
//     the gate can see it rise. An updater that read 0 knows no snapshot
//     other than released ones can reach the nodes it flags, and a
//     released snapshot is never read again (the wrappers panic).
//   - Release may lower the count mid-operation. An updater that read
//     the higher value only renews nodes it need not have: harmless,
//     and a renewal in flight finishes or fails like any update.
//   - While any snapshot S is held, every updater renews, so every Flag
//     lands on a node of the current generation, newer than S's, and
//     removed's generation check is exactly as before. A snapshot taken
//     after writers flagged old nodes in place sees them as the live
//     trie it captured: the drain finished every such update first.
// With overlapping snapshots the rule is conservative: writers renew
// every node older than the current generation until the last one is
// released, even nodes only a released snapshot can reach. For one
// snapshot at a time, the BGSAVE pattern, it is exact. A snapshot that
// is never released behaves as one always did.

// Snapshot is a read-only point-in-time view of a Trie, obtained in
// O(1) from Trie.Snapshot. It shares structure with the live trie:
// nothing reachable from its root can change after Snapshot returns, so
// all methods are safe for unrestricted concurrent use (against each
// other and against live-trie updates) and always observe exactly the
// state the trie held at the snapshot's linearization point, until
// Release.
type Snapshot[K keys.Key[K], V any] struct {
	t        *Trie[K, V]
	root     *node[K, V]
	gen      uint64
	n        int64
	released atomic.Bool
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
//
// Until it is released, the snapshot makes every mutation renew the
// stale nodes on its path; call Release when done reading.
func (t *Trie[K, V]) Snapshot() *Snapshot[K, V] {
	t.gate.drain()
	old := t.root.Load()
	t.root.Store(t.copyNode(old, old.gen+1))
	n := t.count.Load()
	t.gate.hold()
	t.gate.reopen()
	if n < 0 {
		n = 0
	}
	return &Snapshot[K, V]{t: t, root: old, gen: old.gen, n: n}
}

// Release tells the trie the snapshot will not be read again, so
// mutations stop renewing nodes for it once no other snapshot is held.
// Idempotent. The snapshot must not be read after Release: the engine
// does not check (its reads are also the live trie's), the wrappers do
// (Released).
func (s *Snapshot[K, V]) Release() {
	if s.released.CompareAndSwap(false, true) {
		s.t.gate.release()
	}
}

// Released reports whether Release has been called.
func (s *Snapshot[K, V]) Released() bool { return s.released.Load() }

// Len returns the number of live user keys at the snapshot's
// linearization point. Exact: the count was read inside the barrier,
// with no mutation in flight.
func (s *Snapshot[K, V]) Len() int { return int(s.n) }

// liveGen is the generation of the live view (Trie.live): newer than
// every internal node's, so removed counts every Flag and reduces to the
// paper's logically-removed check (lines 122-124).
const liveGen = ^uint64(0)

// live returns the live trie as a Snapshot value at its current root, so
// the live reads (Contains, Load, AscendKV, Ceiling, Floor) run the
// snapshot's descent, removal check and ordered walk. Unlike a real
// snapshot the structure under it keeps moving: each visited link was
// current when it was read. It carries no count and must not escape.
func (t *Trie[K, V]) live() Snapshot[K, V] {
	return Snapshot[K, V]{t: t, root: t.root.Load(), gen: liveGen}
}

// removed implements lines 122-124, generation-aware: a leaf whose info
// holds the Flag of a general-case replace is logically removed once that
// replace's first child CAS has happened, detectable by the old child no
// longer being a child of that CAS's target (Lemma 41); a nil target is
// the root-CAS sentinel (the replace's insert half replaced the root node
// itself), checked against the trie's root pointer. A Flag whose flagged
// parents belong to a generation newer than the snapshot describes a
// removal that happened after the snapshot was taken, so the leaf was
// live in this view. (A replace from this or an older generation
// completed before the snapshot's barrier released — the barrier drains
// all in-flight mutations — so its leaf was already physically
// unlinked and cannot be reached from the snapshot root at all; the
// structural check below is kept as a defensive fallback.)
func (s *Snapshot[K, V]) removed(w *byte) bool {
	if !flagged(w) {
		return false
	}
	p, old := flagOf[K, V](w).firstCAS()
	if p == nil {
		// Root-CAS sentinel: the replace's insert half swapped the root
		// node itself. The displaced root (the first CAS's old child,
		// always internal) carries the generation the replace ran in.
		if old.gen > s.gen {
			return false
		}
		return s.t.root.Load() != old
	}
	return p.gen <= s.gen && !s.t.holdsChild(p.inner(), old)
}

// search is the read-only descent (the paper's search, lines 76-85): at
// each internal node whose label is a proper prefix of v it steps into
// the slot of v's next digit. Labels strictly lengthen along any path
// (Invariant 7), so the loop runs at most |v| times: wait-free for
// bounded key types, lock-free for unbounded ones. A nil n is an empty
// slot of a wide node: v is absent.
//
// A live read (liveGen) starts where the shortcut table points
// (shortcut.go) and, when it passes a node deeper than its start that
// the table may cache, stores the deepest such node into v's slot: at
// most one store, to the table, never to the trie. A snapshot read
// starts at its root and writes nothing.
func (s *Snapshot[K, V]) search(v K) (n *node[K, V], rmvd bool) {
	n = s.root
	vl := v.Len()
	var hint *atomic.Pointer[node[K, V]]
	var reach uint32
	if s.gen == liveGen {
		n, hint, reach = s.t.start(s.t.short.Load(), v, vl, n)
	}
	from, deepest := n, n
	for n != nil && !n.isLeaf() {
		l := n.label.Len()
		if l >= vl || !n.label.IsPrefixOf(v) {
			break
		}
		if l <= reach && l > 0 {
			deepest = n
		}
		n = n.inner().kid(s.t.slotOf(v, l)).Load()
	}
	if deepest != from {
		hint.Store(deepest)
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
	return n.value(), true
}

// AscendKV calls fn on every (key, value) pair with key >= from that was
// live at the snapshot point, in ascending encoded-key order, until fn
// returns false. On a real snapshot this is a true consistent cut: the
// structure cannot change mid-walk.
func (s *Snapshot[K, V]) AscendKV(from K, fn func(k K, val V) bool) {
	s.walk(s.root, from, false, fn)
}

// usable reports whether a leaf holds a live user key in this view: not
// one of the two dummies and not removed.
func (s *Snapshot[K, V]) usable(n *node[K, V]) bool {
	if n.label.Equal(s.t.dummyMin) || n.label.Equal(s.t.dummyMax) {
		return false
	}
	return !s.removed(n.info.Load())
}

// searchMut is Snapshot.search for mutating operations on the live trie:
// the same descent, from the same shortcut start (shortcut.go), recording
// the paper's 6-tuple, but it renews any stale internal node it meets —
// splicing a current-generation copy over it through the flag protocol —
// before stepping into it, so the returned position's gp, p and node
// (when internal) all carry the current generation and are safe to flag
// and child-CAS without ever mutating a node a snapshot can reach. With
// no snapshot held it renews nothing (see the top of this file). Like a
// live read it stores the deepest node the table may cache into v's slot.
//
// Two rules keep the contract every update builds on, gp == nil iff p is
// the root. While a snapshot is held, a stale start is not taken: its
// renewal would need the parent the table does not record. And a descent
// from a cached start that stops with p equal to that start, so that gp
// is unknown, starts over from the root. Each falls back at most once.
// Must be called inside the gate; l is the lane the caller entered on,
// where the descent's depth is recorded.
func (t *Trie[K, V]) searchMut(l *lane, v K) searchResult[K, V] {
	root := t.root.Load()
	g := root.gen
	renew := t.gate.snapshots() != 0
	sc, vl := t.short.Load(), v.Len()
	cached, hint, reach := t.start(sc, v, vl, root)
	if renew && cached.gen != g {
		cached = root
	}
	from := cached
restart:
	for {
		var r searchResult[K, V]
		var depth uint64
		var deepest *node[K, V]
		n := from
		for n != nil && !n.isLeaf() {
			ll := n.label.Len()
			if ll >= vl || !n.label.IsPrefixOf(v) {
				break
			}
			if ll <= reach && ll > 0 {
				deepest = n
			}
			r.gp, r.gpInfo = r.p, r.pInfo
			r.p, r.pInfo = n, n.info.Load()
			slot := n.inner().kid(t.slotOf(v, ll))
			n = slot.Load()
			depth++
			if renew && stale(n, g) {
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
				if flagged(r.pInfo) || stale(n, g) {
					root = t.root.Load()
					from = root
					continue restart
				}
			}
		}
		if r.gp == nil && from != root {
			// p is the cached start, whose parent the table does not know.
			root = t.root.Load()
			from = root
			continue
		}
		if deepest != nil && deepest != cached {
			hint.Store(deepest)
		}
		r.node = n
		l.recordDepth(depth)
		if n != nil && n.isLeaf() {
			live := Snapshot[K, V]{t: t, gen: liveGen}
			r.rmvd = live.removed(n.info.Load())
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
func (t *Trie[K, V]) renewChild(l *lane, p *node[K, V], pInfo *byte, c *node[K, V], g uint64) {
	t.stats.snapshotRenewals.Add(1)
	cInfo := c.info.Load()
	if t.helpConflict(l, pInfo, cInfo, nil) {
		return
	}
	t.commit(l, half[K, V]{p, c, t.copyNode(c, g), [3]flagEntry[K, V]{{p, pInfo}, {c, cInfo}}})
}
