// Package engine implements the non-blocking update protocol of
// Shafiei, "Non-blocking Patricia Tries with Replace Operations"
// (ICDCS 2013), exactly once, generic over the key type. A Trie[K, V]
// is a linearizable set of (already encoded) keys K — and, through the
// value payload V carried unboxed on leaves, a linearizable K → V map
// — with
//
//   - a read-only Contains/Load (the paper's find) that performs no CAS
//     and never writes shared memory; it is wait-free whenever K has
//     bounded length (Uint64Key, MortonKey) and lock-free for unbounded
//     keys (Bitstring, the paper's Section VI),
//   - lock-free Insert, Delete and value updates, and
//   - a lock-free Replace(old, new) that removes one key and inserts
//     another atomically at a single linearization point.
//
// Coordination follows the flag/help scheme of Ellen et al. (PODC
// 2010), extended per the paper: every update publishes a descriptor
// (the paper's Flag object) carrying everything helpers need, flags the
// internal nodes whose child pointers it will change (in label order,
// to avoid livelock), performs the child CASes, and unflags the
// survivors. Nodes removed from the trie stay flagged forever, and
// child pointers are only ever swung to freshly allocated nodes, so
// neither info nor child fields can suffer ABA. Memory reclamation is
// the garbage collector's job, exactly as in the paper's Java setting.
//
// The engine is deliberately key-agnostic: everything it needs from K
// is the small keys.Key interface (bit access, length, prefix tests,
// longest common prefix, a total label order) plus the two dummy keys
// bounding the encoded key space, handed to New. The fixed-width,
// byte-string and Morton-keyed tries are one generic wrapper
// (internal/kv) over this engine with a key codec each; a new key space
// is a codec, never a fourth copy of this protocol.
//
// The hot paths are allocation-lean (see DESIGN.md): values are stored
// unboxed in the leaf, descriptors are built from fixed-size arrays
// that live on the caller's stack, and speculative node construction is
// deferred until the captured info values are known not to belong to a
// conflicting update. The one allocation that must never be optimized
// away is the fresh Unflag written by every unflag CAS: reusing Unflag
// objects would let a node's info field repeat a value, re-opening the
// ABA window the paper closes. It is as small as a fresh address can be
// (an 8-byte header), no node is born with one — nil is every info
// field's first value — and a binary internal node is exactly one 64-byte
// cache line.
package engine

import (
	"sync/atomic"
	"unsafe"

	"nbtrie/internal/keys"
)

// node is the header every node of the paper's Node type starts with, and
// the one type child and root pointers point at. A node is allocated in
// one of two shapes with this header as their first field — leafNode
// (header + value) or innerNode (header + child slots) — and is a leaf
// iff its gen is the leafGen sentinel; leaf() and inner() recover the
// shape. The label is immutable after construction; leaf labels are
// full-length encoded keys, internal labels proper prefixes of them.
//
// The header of a Uint64Key trie is 32 bytes, so an innerNode is 56 bytes
// — the 64-byte size class, which the allocator aligns to 64: a descent
// touches exactly one cache line per level. A leaf is touched once per
// operation, at the end, so it need not be line-aligned and takes the
// smallest class its value fits in (48 bytes for uint64). All pinned by
// layout_test.go.
type node[K keys.Key[K], V any] struct {
	label K

	// gen is the snapshot generation an internal node was created in,
	// immutable after construction (see snapshot.go), or leafGen for a
	// leaf. Internal nodes belonging to a generation older than the
	// current root's must be copied into the current generation before an
	// update may flag them or swing their child pointers — that
	// copy-on-write discipline is what freezes the structure reachable
	// from a snapshot's root. Leaves need no generation, which is what
	// frees the field to double as the leaf mark: they are structurally
	// immutable, and the one mutation they can suffer (a general-case
	// replace storing its Flag into the removed leaf's info) is filtered
	// generationally through the generation of the Flag's first CAS
	// target instead (see Snapshot.removed).
	gen uint64

	// info points at the header of the update operating on this node (a
	// Flag: the header embedded in the update's desc), at a fresh Unflag
	// header once an update has come and gone, or at nothing: every node
	// is born with nil, "never flagged". The paper allocates Unflag
	// objects rather than reusing null so that info values never repeat
	// and a flag CAS cannot suffer ABA; nil at birth keeps that, because
	// nothing ever writes nil back — the first flag CAS on an internal
	// node expects nil, every unflag and backtrack CAS installs a fresh
	// Unflag, so the field's history nil → F1 → U1 → F2 → … has no
	// repeats. A leaf is never the target of a flag CAS; the only write
	// its info ever sees is the plain store of a general-case replace's
	// Flag (nil → Flag, once, never back: Lemma 40).
	info atomic.Pointer[info[K, V]]
}

// leafNode is the leaf shape: the header and the value payload, stored
// unboxed (set views instantiate V = struct{}). Like the label the value
// is immutable after construction: a value update installs a fresh leaf
// through the same child-CAS path as every other update, so the no-ABA
// argument — child pointers are only ever swung to freshly allocated
// nodes — is untouched, and readers never observe a half-written value.
type leafNode[K keys.Key[K], V any] struct {
	node[K, V]
	val V
}

// innerNode is the internal shape: the header and the child slots.
type innerNode[K keys.Key[K], V any] struct {
	node[K, V]

	// child holds the left (0) and right (1) children of a binary
	// internal node (trie span 1, the paper's layout). Keeping the two
	// slots inline — rather than always using ext — keeps a binary
	// internal node to one allocation, preserving the pinned allocs/op
	// budgets of the s=1 instantiations exactly.
	child [2]atomic.Pointer[node[K, V]]

	// ext points at the 2^s child slots of a wide internal node (trie
	// span s > 1), nil for binary nodes; a node self-describes its fanout
	// through it. It is an interior pointer to a slice header that lives
	// in the same allocation as the slots it describes (see newSlots), so
	// the node pays 8 bytes for it rather than 24 and a wide node is still
	// two objects. Unoccupied slots are nil. Empty slots are never CASed
	// in place — nil repeats as an expected value, which would re-open the
	// ABA window — so filling or clearing a slot always builds a fresh
	// copy of the whole node and swings the parent's (or the root) pointer
	// instead; see copyNodeSet.
	ext *[]atomic.Pointer[node[K, V]]
}

// leafGen in a node's gen field marks it as a leaf. Snapshot generations
// count up from zero, one per Snapshot call, and cannot reach it.
const leafGen = ^uint64(0)

// isLeaf reports whether n is a leaf.
func (n *node[K, V]) isLeaf() bool { return n.gen == leafGen }

// leaf returns the leafNode n heads. The cast is sound because the header
// is the first field of the shape n was allocated as, which the gen mark
// identifies; asking a node for the wrong shape is a bug and panics
// rather than reading past the allocation.
func (n *node[K, V]) leaf() *leafNode[K, V] {
	if !n.isLeaf() {
		panic("engine: leaf() on an internal node")
	}
	return (*leafNode[K, V])(unsafe.Pointer(n))
}

// inner returns the innerNode n heads; see leaf.
func (n *node[K, V]) inner() *innerNode[K, V] {
	if n.isLeaf() {
		panic("engine: inner() on a leaf")
	}
	return (*innerNode[K, V])(unsafe.Pointer(n))
}

// fanout returns the number of child slots.
func (n *innerNode[K, V]) fanout() int {
	if n.ext != nil {
		return len(*n.ext)
	}
	return 2
}

// kid returns the i-th child slot.
func (n *innerNode[K, V]) kid(i int) *atomic.Pointer[node[K, V]] {
	if n.ext != nil {
		return &(*n.ext)[i]
	}
	return &n.child[i]
}

// slotBlock is the one object behind a wide node's ext pointer: the
// slice header and the array it slices, side by side.
type slotBlock[K keys.Key[K], V any, A any] struct {
	s []atomic.Pointer[node[K, V]]
	a A
}

// newSlots returns the ext value of a fresh wide node of 2^span empty
// slots: a pointer to a slice header allocated together with its backing
// array, one object per node whatever the span. The interior pointer
// keeps the whole block alive, as any Go pointer does.
func newSlots[K keys.Key[K], V any](span uint32) *[]atomic.Pointer[node[K, V]] {
	switch span {
	case 2:
		b := new(slotBlock[K, V, [4]atomic.Pointer[node[K, V]]])
		b.s = b.a[:]
		return &b.s
	case 3:
		b := new(slotBlock[K, V, [8]atomic.Pointer[node[K, V]]])
		b.s = b.a[:]
		return &b.s
	case 4:
		b := new(slotBlock[K, V, [16]atomic.Pointer[node[K, V]]])
		b.s = b.a[:]
		return &b.s
	case 5:
		b := new(slotBlock[K, V, [32]atomic.Pointer[node[K, V]]])
		b.s = b.a[:]
		return &b.s
	case 6:
		b := new(slotBlock[K, V, [64]atomic.Pointer[node[K, V]]])
		b.s = b.a[:]
		return &b.s
	}
	panic("engine: span must be in [2, 6] for a wide node")
}

// census counts n's non-nil children and returns the last one found
// outside slot skip (the lone sibling when the count is 2). Like every
// child read feeding a copy or contraction, the result is certified by
// the flag CAS on n: a torn census implies n's info changed and the
// attempt dies at flagging (Lemma 31).
func (n *innerNode[K, V]) census(skip int) (live int, sib *node[K, V]) {
	for j := 0; j < n.fanout(); j++ {
		if c := n.kid(j).Load(); c != nil {
			live++
			if j != skip {
				sib = c
			}
		}
	}
	return live, sib
}

// newLeaf returns a leaf node with the given full-length label and a
// zero value payload.
func newLeaf[K keys.Key[K], V any](label K) *node[K, V] {
	var zero V
	return newLeafVal(label, zero)
}

// newLeafVal returns a leaf node carrying a value payload. Its info is
// nil — live — and the node is its only allocation.
func newLeafVal[K keys.Key[K], V any](label K, val V) *node[K, V] {
	l := &leafNode[K, V]{node: node[K, V]{label: label, gen: leafGen}, val: val}
	return &l.node
}

// newNode returns an empty internal node of the trie's fanout with the
// given label and generation; the caller stores the children. Its info is
// nil — never flagged — so a binary node is its only allocation.
func (t *Trie[K, V]) newNode(label K, gen uint64) *innerNode[K, V] {
	n := &innerNode[K, V]{node: node[K, V]{label: label, gen: gen}}
	if t.span > 1 {
		n.ext = newSlots[K, V](t.span)
	}
	return n
}

// copyNode returns a fresh copy of n stamped with the given generation
// (the paper's "new copy of node", lines 26 and 52). For an internal node
// the children are read now; the caller must have read n's info field
// beforehand, which — per Lemma 31 — guarantees the children cannot change
// between this copy and the child CAS that installs it, so the copy is
// faithful when it becomes reachable.
func (t *Trie[K, V]) copyNode(n *node[K, V], gen uint64) *node[K, V] {
	return t.copyNodeSet(n, gen, -1, nil, -1, nil)
}

// copyNodeSet is copyNode with up to two slot overrides applied to the
// copy: slot slotA receives a (clearing the slot when a is nil), likewise
// slotB/b; a slot of -1 means no override. It is the single constructor
// behind every wide-node mutation — slot fills, slot clears, and the
// fused replace cases — so the fresh-copy-per-update discipline that
// keeps child CASes ABA-free has one implementation to audit. The same
// Lemma 31 contract as copyNode applies: the caller must have captured
// n's info before calling and must flag n with that capture, so a torn
// copy can never be installed.
func (t *Trie[K, V]) copyNodeSet(n *node[K, V], gen uint64, slotA int, a *node[K, V], slotB int, b *node[K, V]) *node[K, V] {
	if n.isLeaf() {
		return newLeafVal(n.label, n.leaf().val)
	}
	in, c := n.inner(), t.newNode(n.label, gen)
	for j := 0; j < in.fanout(); j++ {
		c.kid(j).Store(in.kid(j).Load())
	}
	if slotA >= 0 {
		c.kid(slotA).Store(a)
	}
	if slotB >= 0 {
		c.kid(slotB).Store(b)
	}
	return &c.node
}

// info is what a node's info field points at: the paper's Info object
// reduced to the one word the protocol compares. An Unflag is a fresh
// header with a nil flag, used for nothing but its address; a Flag is
// the header embedded in an update's desc, whose flag points back at
// that desc. It must not be zero-size: Go gives every zero-size
// allocation the same address, which is exactly the repeat the fresh
// Unflag exists to prevent.
type info[K keys.Key[K], V any] struct {
	flag *desc[K, V]
}

// desc is the paper's Flag object: it describes one update operation
// completely, so that any process reading it can finish the update
// (help). It is the 16-byte header every descriptor shape starts with —
// descOne, descTwo or descGen, the smallest that holds the update — and
// parts recovers the shape's entries from it. Nodes point at its embedded
// header hdr, never at the desc itself; that interior pointer keeps the
// whole shape alive for as long as any node or delayed helper still
// holds it.
type desc[K keys.Key[K], V any] struct {
	hdr info[K, V] // hdr.flag == this desc, set once by newFlag

	nFlag uint8 // flag entries: the internal nodes to flag, in label order
	nCAS  uint8 // CAS entries: the child (or root) pointers to swing

	// tgt[j] is the index into the flag entries of the node whose child
	// pointer CAS j swings, or rootTgt for the trie's root pointer. The
	// targets are exactly the flagged nodes that stay in the trie, so
	// they are what help unflags once the CASes are done; every other
	// flagged node is removed by the update and stays flagged ("marked").
	tgt [2]uint8

	// flagDone is set once every node in flag was flagged successfully;
	// helpers use it to distinguish "the update already happened and the
	// node was unflagged" from "flagging failed, back off" (lines 93-106).
	flagDone atomic.Bool
}

// rootTgt in desc.tgt marks a CAS on the trie's root pointer: the update
// replaces the root node itself (a wide root's slot fill or clear).
const rootTgt = ^uint8(0)

// flagEntry is one node to flag and the expected prior value of its info
// for the flag CAS.
type flagEntry[K keys.Key[K], V any] struct {
	n       *node[K, V]
	oldInfo *info[K, V]
}

// casEntry is one child CAS: the update swings the pointer its target
// (desc.tgt) holds from oldChild to newChild.
type casEntry[K keys.Key[K], V any] struct {
	oldChild, newChild *node[K, V]
}

// The descriptor shapes. Each starts with the header (offset 0, pinned by
// layout_test.go), so parts can cast back to it; shapeOf picks the shape
// from the two counts alone, so the header is all parts needs. For a
// Uint64Key trie they are 48, 64 and 120 B: the 48, 64 and 128 B size
// classes.
type (
	// descOne: one flag, one CAS. An insert at a leaf, an overwrite,
	// Replace case 1, a fill or clear of a wide root.
	descOne[K keys.Key[K], V any] struct {
		desc[K, V]
		flag [1]flagEntry[K, V]
		cas  [1]casEntry[K, V]
	}
	// descTwo: two flags, one CAS. A delete, an insert at an internal
	// node, a fill or clear under a grandparent, a renewal, Replace cases
	// 2 and 3.
	descTwo[K keys.Key[K], V any] struct {
		desc[K, V]
		flag [2]flagEntry[K, V]
		cas  [1]casEntry[K, V]
	}
	// descGen: Figure 6's general case and the three-flag fused cases.
	descGen[K keys.Key[K], V any] struct {
		desc[K, V]
		flag [4]flagEntry[K, V]
		cas  [2]casEntry[K, V]

		// rmvLeaf, when non-nil, is the leaf holding the replaced key of
		// a general-case replace. It is flagged (plain store) after all
		// flag CASes succeed and before the first child CAS; searches
		// reaching it afterwards use logicallyRemoved to decide whether
		// the key is gone.
		rmvLeaf *node[K, V]
	}
)

const (
	shapeOne = iota
	shapeTwo
	shapeGen
)

// shapeOf returns the smallest shape holding nFlag flag entries and nCAS
// CAS entries.
func shapeOf(nFlag, nCAS int) int {
	switch {
	case nCAS <= 1 && nFlag <= 1:
		return shapeOne
	case nCAS <= 1 && nFlag <= 2:
		return shapeTwo
	}
	return shapeGen
}

// parts returns d's flag entries, its CAS entries and its removed leaf
// (nil but for a general-case replace). The cast is sound because newFlag
// allocated the shape the counts name, with the header first; the slices
// alias the descriptor.
func (d *desc[K, V]) parts() (flag []flagEntry[K, V], cas []casEntry[K, V], rmvLeaf *node[K, V]) {
	switch shapeOf(int(d.nFlag), int(d.nCAS)) {
	case shapeOne:
		s := (*descOne[K, V])(unsafe.Pointer(d))
		return s.flag[:d.nFlag], s.cas[:d.nCAS], nil
	case shapeTwo:
		s := (*descTwo[K, V])(unsafe.Pointer(d))
		return s.flag[:d.nFlag], s.cas[:d.nCAS], nil
	}
	s := (*descGen[K, V])(unsafe.Pointer(d))
	return s.flag[:d.nFlag], s.cas[:d.nCAS], s.rmvLeaf
}

// target returns the node whose child pointer CAS j swings, nil for the
// root pointer; flag is d's flag entries.
func (d *desc[K, V]) target(flag []flagEntry[K, V], j int) *node[K, V] {
	if d.tgt[j] == rootTgt {
		return nil
	}
	return flag[d.tgt[j]].n
}

// firstCAS returns the target and the old child of d's first CAS: the
// linearization point whose having happened makes a general-case
// replace's removed leaf logically removed.
func (d *desc[K, V]) firstCAS() (p, oldChild *node[K, V]) {
	flag, cas, _ := d.parts()
	return d.target(flag, 0), cas[0].oldChild
}

// size returns the bytes of d's shape.
func (d *desc[K, V]) size() uintptr {
	switch shapeOf(int(d.nFlag), int(d.nCAS)) {
	case shapeOne:
		return unsafe.Sizeof(descOne[K, V]{})
	case shapeTwo:
		return unsafe.Sizeof(descTwo[K, V]{})
	}
	return unsafe.Sizeof(descGen[K, V]{})
}

// newUnflag allocates a fresh Unflag header. The allocation is
// load-bearing: each unflag CAS must install a pointer the node's info
// field has never held before, or a delayed flag CAS comparing against a
// recycled Unflag could succeed long after its update was decided (ABA).
// Do not pool or intern these.
func newUnflag[K keys.Key[K], V any]() *info[K, V] { return new(info[K, V]) }

// newFlag allocates the smallest shape holding the first nFlag entries of
// flag, the first nCAS of cas and rmvLeaf, fills it in and ties its
// header to it. Only a general-case replace has a removed leaf, and it
// has two CASes, so the counts alone name the general shape for it.
func newFlag[K keys.Key[K], V any](flag *[4]flagEntry[K, V], nFlag int,
	cas *[2]casEntry[K, V], nCAS int, tgt [2]uint8, rmvLeaf *node[K, V]) *desc[K, V] {
	if rmvLeaf != nil && nCAS != 2 {
		panic("engine: a removed leaf belongs to a two-CAS general-case replace")
	}
	var d *desc[K, V]
	switch shapeOf(nFlag, nCAS) {
	case shapeOne:
		s := &descOne[K, V]{flag: [1]flagEntry[K, V]{flag[0]}, cas: [1]casEntry[K, V]{cas[0]}}
		d = &s.desc
	case shapeTwo:
		s := &descTwo[K, V]{flag: [2]flagEntry[K, V]{flag[0], flag[1]}, cas: [1]casEntry[K, V]{cas[0]}}
		d = &s.desc
	default:
		s := &descGen[K, V]{flag: *flag, cas: *cas, rmvLeaf: rmvLeaf}
		d = &s.desc
	}
	d.hdr.flag = d
	d.nFlag, d.nCAS, d.tgt = uint8(nFlag), uint8(nCAS), tgt
	return d
}

// flagged reports whether i is a Flag header. nil — the info of a live
// leaf — is not.
func (i *info[K, V]) flagged() bool { return i != nil && i.flag != nil }

// Trie is the shared non-blocking Patricia trie over encoded keys K with
// unboxed value payloads V. All methods are safe for concurrent use by
// any number of goroutines without external synchronization. Key
// encoding and range validation live in the instantiating package; the
// engine only ever sees full-length encoded keys strictly between the
// two dummies.
type Trie[K keys.Key[K], V any] struct {
	// gate is the snapshot barrier (gate.go). Every mutating operation is
	// inside it for its whole invocation (search, retries, helping);
	// Snapshot shuts it and drains it just long enough to swap in a fresh
	// root with a bumped generation and read the entry count. The drain
	// guarantees no in-flight update — whose flag targets were validated
	// against the previous generation — can mutate the structure the
	// snapshot captured after Snapshot returns; updates that start
	// afterwards see the new generation and copy-on-write any stale
	// internal node before touching it (see snapshot.go). Reads never
	// enter it: Load/Contains/iteration stay CAS- and lock-free.
	//
	// It comes first so its lanes start line-aligned for every K; its
	// mutex and flag, written only by Snapshot, share the read-mostly
	// line of root, the dummies and span. 624 bytes in all for a
	// Uint64Key trie (pinned by layout_test.go).
	gate gate

	// root is swapped wholesale by Snapshot (a fresh copy carrying the
	// next generation), so it is an atomic pointer; everything below it
	// is reached through the usual child pointers. Readers may load
	// either side of a racing swap — both are valid linearizable views.
	root atomic.Pointer[node[K, V]]

	dummyMin, dummyMax K

	// span is the digit width s in bits: internal nodes have 2^span
	// child slots and every level of the trie resolves span key bits,
	// cutting expected depth span-fold. span 1 is exactly the paper's
	// binary trie. Internal labels are always a whole number of digits
	// long (CommonDigitPrefix floors to a digit boundary); the digit at
	// the very bottom of a key whose length is not a multiple of span is
	// partial, occupying only the low 2^r slots of its node.
	//
	// Soundness constraint on instantiations: digit extraction must
	// assign distinct slots to distinct keys under a shared node, which
	// holds when all keys have one fixed length (Uint64Key, MortonKey) or
	// all lengths are multiples of span. Variable-length Bitstring keys
	// (lengths 16n+2) violate it for span 4 — a 2-bit tail digit "11"
	// and a 4-bit digit "0011" would share slot 3 — so byte-string tries
	// stay at span 1.
	span uint32

	// count tracks the number of live user keys for Len. It is bumped by
	// the *initiating* goroutine of a successful insert or delete — never
	// by helpers, so each successful operation is counted exactly once —
	// strictly after the operation's linearization point (the child CAS
	// inside help). Replace and value overwrites do not change the key
	// count and never touch it. Consequences: Len is exact whenever no
	// mutation is in flight, and under concurrency it lags the linearized
	// state by at most the number of in-flight mutations (each op's bump
	// lands within its own invocation window, so Len is always a value
	// the set held at some point inside the read's own window of
	// concurrent operations).
	count atomic.Int64

	// stats holds the counters that stay zero without contention (see
	// stats.go), on count's line: by value, so each trie — and hence each
	// shard of a sharded map — owns its own, with no pointer chase on the
	// record paths.
	stats contention
}

// Option configures a Trie.
type Option[K keys.Key[K], V any] func(*Trie[K, V])

// WithSpan sets the digit width s: internal nodes grow 2^s child slots
// (a span-4 node's 16 pointers fill two cache lines) and every level
// resolves s key bits. s must be in [1, 6]; 1 is the paper's binary
// trie. See the span field for the key-length soundness constraint.
func WithSpan[K keys.Key[K], V any](s uint32) Option[K, V] {
	if s < 1 || s > 6 {
		panic("engine: span must be in [1, 6]")
	}
	return func(t *Trie[K, V]) { t.span = s }
}

// New returns an empty trie anchored by the two dummy leaves, which must
// bound every encoded key the instantiation will ever pass in. The zero
// value of K must be the empty string; it labels the root.
func New[K keys.Key[K], V any](dummyMin, dummyMax K, opts ...Option[K, V]) *Trie[K, V] {
	var empty K
	t := &Trie[K, V]{dummyMin: dummyMin, dummyMax: dummyMax, span: 1}
	for _, o := range opts {
		o(t)
	}
	// The root is built after the options so it gets the configured
	// fanout. The dummies always occupy distinct slots: their first bits
	// differ, so their first digits do too.
	r := t.newNode(empty, 0)
	r.kid(t.slotOf(dummyMin, 0)).Store(newLeaf[K, V](dummyMin))
	r.kid(t.slotOf(dummyMax, 0)).Store(newLeaf[K, V](dummyMax))
	t.root.Store(&r.node)
	return t
}

// slotOf returns the child-slot index the key v selects at an internal
// node whose label is pos bits long. pos is always a whole number of
// digits (internal labels are digit-aligned) and pos < v.Len(). The
// span-1 branch keeps the binary instantiations on the one-shift Bit
// path rather than paying Digit's division by a non-constant.
func (t *Trie[K, V]) slotOf(v K, pos uint32) int {
	if t.span == 1 {
		return v.Bit(pos)
	}
	return v.Digit(pos/t.span, t.span)
}

// curGen returns the current snapshot generation — the generation of the
// current root. Mutating operations read it inside the gate, where it
// cannot change for the duration of the operation.
func (t *Trie[K, V]) curGen() uint64 { return t.root.Load().gen }

// searchResult carries the paper's 6-tuple ⟨gp, p, node, gpInfo, pInfo,
// rmvd⟩ returned by search.
type searchResult[K keys.Key[K], V any] struct {
	gp, p, node   *node[K, V]
	gpInfo, pInfo *info[K, V]
	rmvd          bool
}

// search locates the encoded key v, per lines 76-85. It starts at the
// root and descends by the bit of v at each node's label length, stopping
// at a leaf or at an internal node whose label is no longer a proper
// prefix of v. Labels strictly lengthen along any path (Invariant 7), so
// the loop runs at most |v| times: wait-free for bounded key types,
// lock-free (bounded by the key's own length plus concurrent
// restructuring) for unbounded ones. It performs no CAS, never writes
// shared memory, and never allocates beyond what K's own methods do.
func (t *Trie[K, V]) search(v K) searchResult[K, V] {
	var r searchResult[K, V]
	n := t.root.Load()
	for n != nil && !n.isLeaf() && n.label.Len() < v.Len() && n.label.IsPrefixOf(v) {
		r.gp, r.gpInfo = r.p, r.pInfo
		r.p, r.pInfo = n, n.info.Load()
		n = n.inner().kid(t.slotOf(v, n.label.Len())).Load()
	}
	// r.node == nil means the descent hit an empty slot of r.p (wide
	// nodes only): the key is absent, and an insert fills the slot by
	// replacing r.p wholesale under r.gp.
	r.node = n
	if n != nil && n.isLeaf() {
		r.rmvd = t.logicallyRemoved(n.info.Load())
	}
	return r
}

// logicallyRemoved implements lines 122-124: a leaf whose info field holds
// the Flag of a general-case replace is logically removed once that
// replace's first child CAS has happened, which is detectable by the old
// child no longer being a child of that CAS's target (Lemma 41). A nil
// target is the root-CAS sentinel: the replace's insert half replaced the
// root node itself, so the check is against the trie's root pointer.
func (t *Trie[K, V]) logicallyRemoved(i *info[K, V]) bool {
	if !i.flagged() {
		return false
	}
	p, old := i.flag.firstCAS()
	if p == nil {
		return t.root.Load() != old
	}
	return !holdsChild(p.inner(), old)
}

// holdsChild reports whether some slot of p currently holds c.
func holdsChild[K keys.Key[K], V any](p *innerNode[K, V], c *node[K, V]) bool {
	for j := 0; j < p.fanout(); j++ {
		if p.kid(j).Load() == c {
			return true
		}
	}
	return false
}

// keyInTrie implements lines 125-126. A nil n (empty slot) is absent.
func keyInTrie[K keys.Key[K], V any](n *node[K, V], v K, rmvd bool) bool {
	return n != nil && n.isLeaf() && n.label.Equal(v) && !rmvd
}

// Contains reports whether the encoded key v is in the set. It only
// reads shared memory and never performs a CAS (the paper's find, lines
// 72-75).
func (t *Trie[K, V]) Contains(v K) bool {
	r := t.search(v)
	return keyInTrie(r.node, v, r.rmvd)
}

// Load returns the value stored under v, or (zero, false) when v is not
// in the set. Like Contains it is read-only and CAS-free: one descent,
// and the value comes back unboxed straight from the leaf. Leaf values
// are immutable (updates install fresh leaves), so the value returned is
// exactly the one bound to v at the linearization point.
func (t *Trie[K, V]) Load(v K) (V, bool) {
	r := t.search(v)
	if !keyInTrie(r.node, v, r.rmvd) {
		var zero V
		return zero, false
	}
	return r.node.leaf().val, true
}
