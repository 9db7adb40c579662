package engine

import (
	"math/bits"
	"sync/atomic"

	"nbtrie/internal/keys"
)

// The shortcut for live descents, after the cache of Prokopec, Bagwell
// and Odersky's hash trie ("Cache-Aware Lock-Free Concurrent Hash
// Tries"). The paper's search descends from the root, one cache miss per
// level; a large trie's upper levels are the same for every key under a
// prefix, so a table of 2^d node pointers, indexed by a d-bit digit of
// the key, lets a descent start at the deepest internal node that covers
// the key's digit and skip the levels above it.
//
// The paper has one search for find and for every update, and so does
// this table: the live Load and Contains (search on Trie.live) and every
// mutator descent (searchMut) start from it. A descent loads the slot's
// node, then that node's info, and only then its children. It starts
// there when the info is unflagged (nil or an Unflag) and the node's
// label is a non-empty proper prefix of the key; otherwise it starts at
// the root, so a read falls back at most once and stays wait-free.
// Snapshot reads and the ordered walks never read the slots. Why a start
// taken from the table is linearizable:
//   - Unflagged means in the trie. Every internal node that leaves the
//     live trie is flagged before the child CAS that removes it and is
//     never unflagged again (help unflags only CAS targets, which stay),
//     so a node whose info reads unflagged at time t was in the trie at
//     t, and t lies inside the descent's own interval.
//   - A node whose label is a prefix of the key lies on the key's search
//     path. From there, the paper's search argument applies unchanged:
//     the descent is a search that passed through that node at t.
//   - The one exception is the root: Snapshot swaps the root out without
//     flagging it. So no slot ever holds a node with an empty label, and
//     snapshot reads never consult the table. A writer is inside the
//     gate, where Snapshot cannot swap the root at all.
//
// A writer keeps two more rules, so that its result keeps searchMut's
// contract, gp == nil iff p is the root, on which swing, deleteHalf and
// every Figure 6 case rely. It does not start at a stale node: renewing
// one needs its parent, which the table does not record, so it starts at
// the root. And a descent from a cached start
// that ends with p at that start, gp unknown, starts over once from the
// root. Each costs one fallback, so writers stay lock-free; every flag
// CAS still re-validates the info the descent captured, as from the root.
//
// Descents keep the table: one that passes a node deeper than where it
// started, with a non-empty label of at most pos+d bits, stores the
// deepest such node into the slot with one plain atomic store. The slot
// then holds the deepest node whose label is a prefix of the key's first
// pos+d bits, the same node for every key of that digit (when the keys
// share their first pos bits, as they do when the table is built). In
// steady state descents store nothing. A stored node that has since left
// the trie is flagged, so it costs the next descent one fallback, and
// that descent repairs the slot.
//
// Sizing. The insert whose count bump returns a power of two of at least
// shortcutMinKeys installs a table of one slot per keysPerSlot keys, at
// most one byte per key; the table never shrinks. The digit starts at
// pos, the length of the common prefix of the smallest and the largest
// user key when the table is built: fixed-width keys over a small range
// share their top bits, so "the top d bits" would index one slot. Any pos
// is correct; it only sets the hit rate.

const (
	// shortcutMinKeys is the key count at which the first table is
	// built: a trie below it is shallow enough to be cache-resident.
	shortcutMinKeys = 1 << 12
	// keysPerSlot is the table's density: one 8-byte slot per eight keys.
	keysPerSlot = 8
)

// shortcut is the table.
type shortcut[K keys.Key[K], V any] struct {
	// pos and d place the digit that indexes slots: v.Digit(pos, d).
	pos, d uint32
	slots  []atomic.Pointer[node[K, V]]
}

// start returns where a live descent of v begins: the node cached in
// v's slot of the table sc (t.short, loaded once by the caller) when that
// node is unflagged and its label a non-empty proper prefix of v, or else
// root. vl is v.Len(). hint is v's slot (nil with no table, or a key no
// longer than pos), and reach the label length up to which a node the
// descent passes may be cached in it.
func (t *Trie[K, V]) start(sc *shortcut[K, V], v K, vl uint32, root *node[K, V]) (n *node[K, V], hint *atomic.Pointer[node[K, V]], reach uint32) {
	if sc == nil || vl <= sc.pos {
		return root, nil, 0
	}
	hint, reach = &sc.slots[v.Digit(sc.pos, sc.d)], sc.pos+sc.d
	// The info is read before the label checks and before any child:
	// unflagged then means the node was in the trie at that read.
	if c := hint.Load(); c != nil && !flagged(c.info.Load()) {
		if l := c.label.Len(); l > 0 && l < vl && c.label.IsPrefixOf(v) {
			return c, hint, reach
		}
	}
	return root, hint, reach
}

// grow installs a table sized for n keys unless one at least as large is
// in place; update calls it when its count bump returns n, a power of
// two of at least shortcutMinKeys. It reads the smallest and the largest
// user key with the ordered walk to place the digit, and fails quietly
// when a racing grow got there first: the next power of two retries.
func (t *Trie[K, V]) grow(n int64) {
	old := t.short.Load()
	d := uint32(bits.Len64(uint64(n/keysPerSlot))) - 1
	if old != nil && old.d >= d {
		return
	}
	var empty K
	lo, okLo := t.Ceiling(empty)
	hi, okHi := t.Floor(t.dummyMax)
	if !okLo || !okHi {
		return
	}
	sc := &shortcut[K, V]{pos: lo.CommonPrefix(hi).Len(), d: d, slots: make([]atomic.Pointer[node[K, V]], 1<<d)}
	t.short.CompareAndSwap(old, sc)
}
