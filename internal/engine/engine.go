// Package engine implements the non-blocking update protocol of
// Shafiei, "Non-blocking Patricia Tries with Replace Operations"
// (ICDCS 2013), exactly once, generic over the key type. A Trie[K, V]
// is a linearizable set of (already encoded) keys K — and, through the
// value payload V carried unboxed on leaves, a linearizable K → V map
// — with
//
//   - a Contains/Load (the paper's find) that performs no CAS and never
//     writes the trie; its one possible write is a hint stored into the
//     shortcut table, which lets it start below the root (shortcut.go).
//     It is wait-free whenever K has bounded length (Uint64Key,
//     MortonKey) and lock-free for unbounded keys (Bitstring, the
//     paper's Section VI),
//   - lock-free Insert, Delete and value updates, and
//   - a lock-free Replace(old, new) that removes one key and inserts
//     another atomically at a single linearization point.
//
// Like the paper, the engine has one search for find and for every
// update, and both start from the shortcut table. Every internal node,
// the root included, resolves one digit of span key bits (WithSpan); the
// default span 1 is the paper's binary trie.
//
// Coordination follows the flag/help scheme of Ellen et al. (PODC
// 2010), extended per the paper: every update publishes a descriptor
// (the paper's Flag object) carrying everything helpers need, flags the
// internal nodes whose child pointers it will change (in label order,
// to avoid livelock), performs the child CASes, and unflags the
// survivors, each to the token of the child installed under it. Nodes
// removed from the trie stay flagged forever, child pointers are only
// ever swung to freshly allocated nodes, and no info field holds a token
// twice, so neither info nor child fields can suffer ABA. Memory
// reclamation is the garbage collector's job, exactly as in the paper's
// Java setting.
//
// The engine is deliberately key-agnostic: everything it needs from K
// is the small keys.Key interface (bit access, length, prefix tests,
// longest common prefix, a total label order) plus the two dummy keys
// bounding the encoded key space, handed to New. The fixed-width,
// byte-string and Morton-keyed tries are one generic wrapper (the root
// package's trie) over this engine with a key codec each; a new key space
// is a codec, never a fourth copy of this protocol.
//
// The hot paths are allocation-lean (see DESIGN.md): values are stored
// unboxed in the leaf (and the bytes of a BytesValue in the leaf's own
// allocation), descriptors are built from fixed-size arrays
// that live on the caller's stack, and speculative node construction is
// deferred until the captured info values are known not to belong to a
// conflicting update. Unflagging allocates nothing: a node's info is an
// opaque word, and a successful update leaves in each node it changed
// the token of the child its CAS installed there, an address that field
// holds at most once (see the info field). No node is born with an
// Unflag — nil is every info field's first value — and a binary internal
// node is its header and two child slots, 48 bytes with no padding.
package engine

import (
	"sync/atomic"
	"unsafe"

	"nbtrie/internal/keys"
)

// node is the header every node of the paper's Node type starts with, and
// the one type child and root pointers point at. A node is allocated in
// one of two shapes with this header as their first field — leafNode
// (header + value, or for a BytesValue a byteLeaf: header, length, word
// and the value's bytes) or innerNode (header + child slots) — and is a
// leaf iff its gen is the leafGen sentinel; leaf(), byteLeaf() and
// inner() recover the shape, and value() a leaf's value. The
// label is immutable after construction; leaf labels are full-length
// encoded keys, internal labels proper prefixes of them.
//
// The header of a Uint64Key trie is 32 bytes, so a binary internal node
// is 48 bytes, the 48-byte size class, unpadded. Objects of that class sit
// at offsets 0, 48, 32 and 16 modulo 64, so half of them straddle two
// cache lines. A live descent starts at the shortcut table and walks about
// four levels below it (shortcut.go), while n keys hang under n-1 binary
// nodes: bytes per key outweigh lines per level (DESIGN.md §1 has the
// measurement). A leaf, like the node, takes the smallest class it fits in
// (48 bytes for uint64). All pinned by layout_test.go.
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

	// info is the paper's Info field as an opaque word: nil, "never
	// flagged", which every node is born with; a Flag, the address of the
	// update's desc (even); or an Unflag (odd): the token of the child the
	// last update's CAS installed under this node, or after a backtrack a
	// fresh allocation's address plus backtrackTag. An odd word is only
	// ever a *byte or an unsafe.Pointer, never converted to a type that
	// holds pointers, and it keeps what it points into alive. The field's
	// history nil → F1 → U1 → F2 → … has no repeats, so a flag CAS cannot
	// suffer ABA: Flags are fresh descs, a backtrack's Unflag is fresh,
	// and a child X is installed under this node only at the start of its
	// one stay here — X leaves only when X or this node leaves the trie
	// for good — so token(X) is written here at most once, while a delayed
	// flag CAS expecting it keeps X's address from being reused (DESIGN.md
	// §1). A leaf is never the target of a flag CAS; the only write its
	// info ever sees is the plain store of a general-case replace's Flag
	// (nil → Flag, once, never back: Lemma 40).
	info atomic.Pointer[byte]
}

// leafNode is the leaf shape: the header and the value payload, stored
// unboxed (set views instantiate V = struct{}); a BytesValue's leaf is
// a byteLeaf instead, and is read through value(), never leaf().
// Like the label the value is immutable after construction: a value
// update installs a fresh leaf through the same child-CAS path as every
// other update, so the no-ABA argument — child pointers are only ever
// swung to freshly allocated nodes — is untouched, and readers never
// observe a half-written value.
type leafNode[K keys.Key[K], V any] struct {
	node[K, V]
	val V
}

// innerNode is the internal shape: the header and the child slots, all
// of them inline in the node's one allocation. The struct names the
// first two; a wide node's other 2^s-2 follow them in memory (see
// newNode), and kid reaches every slot by its offset from the first.
// Unoccupied slots are nil. Empty slots are never CASed in place — nil
// repeats as an expected value, which would re-open the ABA window — so
// filling or clearing a slot always builds a fresh copy of the whole node
// and swings the parent's (or the root) pointer instead; see copyNodeSet.
type innerNode[K keys.Key[K], V any] struct {
	node[K, V]
	child [2]atomic.Pointer[node[K, V]]
}

// innerAlloc is the object a wide internal node is allocated as: the
// innerNode, then tail — its remaining 2^s-2 slots. A binary node is a
// bare innerNode: Go pads a struct whose last field has size zero, so an
// empty tail would put it back in the 64 B class.
type innerAlloc[K keys.Key[K], V any, T any] struct {
	innerNode[K, V]
	tail T
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

// kid returns the i-th child slot. Every slot lies inline in n's
// allocation, in order from child[0], so slot i is i words past it.
func (n *innerNode[K, V]) kid(i int) *atomic.Pointer[node[K, V]] {
	p := unsafe.Add(unsafe.Pointer(&n.child[0]), uintptr(i)*unsafe.Sizeof(n.child[0]))
	return (*atomic.Pointer[node[K, V]])(p)
}

// fanout returns the number of child slots of an internal node: every
// node of a trie resolves one span-bit digit.
func (t *Trie[K, V]) fanout() int { return 1 << t.span }

// census counts n's non-nil children and returns the last one found
// outside slot skip (the lone sibling when the count is 2). Like every
// child read feeding a copy or contraction, the result is certified by
// the flag CAS on n: a torn census implies n's info changed and the
// attempt dies at flagging (Lemma 31).
func (t *Trie[K, V]) census(n *innerNode[K, V], skip int) (live int, sib *node[K, V]) {
	for j := 0; j < t.fanout(); j++ {
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
// nil — live — and the node is its only allocation; a value of a
// BytesValue type gets its bytes copied into the leaf (newByteLeaf).
func newLeafVal[K keys.Key[K], V any](label K, val V) *node[K, V] {
	if h, ok := bytesValue[V](); ok {
		return newByteLeaf(label, val, h)
	}
	l := &leafNode[K, V]{node: node[K, V]{label: label, gen: leafGen}, val: val}
	return &l.node
}

// value returns the value n, a leaf, holds. A BytesValue's leaf keeps
// no V: the value is rebuilt from the leaf's word and a view of its
// bytes, which is what every reader is handed. Every caller has just
// found n to be a leaf, so for a V too narrow for a hook — Map[uint64],
// the set views — value reads the leafNode without leaf()'s check: that
// keeps it within the inliner's budget, so their reads cost what a bare
// field load does.
func (n *node[K, V]) value() V {
	var v V
	if unsafe.Sizeof(v) >= unsafe.Sizeof([]byte(nil)) {
		return n.wideValue()
	}
	return (*leafNode[K, V])(unsafe.Pointer(n)).val
}

// wideValue is value for a V at least a slice header wide.
func (n *node[K, V]) wideValue() V {
	if h, ok := bytesValue[V](); ok {
		l := n.byteLeaf()
		return h.FromLeaf(l.bytes(), l.w)
	}
	return n.leaf().val
}

// BytesValue is implemented, on its pointer type, by a value type made
// of a byte slice the leaf should own and one word: every leaf of a
// Trie[K, V] whose *V implements BytesValue[V] keeps the word and a copy
// of the bytes, inline behind it in the same allocation (newByteLeaf),
// and no V. The methods are called on a nil *V and must not dereference
// it: LeafBytes splits v into its bytes and its word, and FromLeaf joins
// them back, b being a view of the leaf's own copy. V is passed by value
// so that a stack value stays on the stack. V holds the slice itself, so
// it is at least a slice header wide; a narrower V is never asked
// (bytesValue).
type BytesValue[V any] interface {
	LeafBytes(v V) (b []byte, w uint64)
	FromLeaf(b []byte, w uint64) V
}

// bytesValue returns V's BytesValue hook, if *V implements one. A V
// narrower than a slice header cannot hold its bytes, and V's size is
// fixed per instantiation, so for such V — Map[uint64], the set views —
// the check compiles away and their leaves are built and read as they
// always were; a wider V pays one type assertion per leaf built or read.
func bytesValue[V any]() (BytesValue[V], bool) {
	var v V
	if unsafe.Sizeof(v) < unsafe.Sizeof([]byte(nil)) {
		return nil, false
	}
	h, ok := any((*V)(nil)).(BytesValue[V])
	return h, ok
}

// byteLeaf is the leaf shape of a BytesValue trie: the header, the
// value's length n and word w, and behind them the bytes — inline in a
// tailLeaf's tail when n <= maxTail, else in a separate copy a longLeaf
// points at. An empty value's leaf is the bare byteLeaf. For a
// Uint64Key trie it is 48 B, so a 64 B value's leaf is one 112 B object.
type byteLeaf[K keys.Key[K], V any] struct {
	node[K, V]
	n, w uint64
}

// tailLeaf is a byteLeaf with its value's bytes in tail.
type tailLeaf[K keys.Key[K], V any, T any] struct {
	byteLeaf[K, V]
	tail T
}

// longLeaf is a byteLeaf whose value, longer than maxTail, is the
// separate copy p points at.
type longLeaf[K keys.Key[K], V any] struct {
	byteLeaf[K, V]
	p *byte
}

// byteLeaf returns the byteLeaf n heads; see leaf.
func (n *node[K, V]) byteLeaf() *byteLeaf[K, V] {
	if !n.isLeaf() {
		panic("engine: byteLeaf() on an internal node")
	}
	return (*byteLeaf[K, V])(unsafe.Pointer(n))
}

// bytes returns a view of l's bytes, len == cap == l.n. It always
// points into memory that belongs to l alone, so views from different
// leaves never share an address: the tail, the separate copy, or, for an
// empty value, l's own length word.
func (l *byteLeaf[K, V]) bytes() []byte {
	switch {
	case l.n == 0:
		return unsafe.Slice((*byte)(unsafe.Pointer(&l.n)), 0)
	case l.n > maxTail:
		return unsafe.Slice((*longLeaf[K, V])(unsafe.Pointer(l)).p, l.n)
	}
	return unsafe.Slice((*byte)(unsafe.Add(unsafe.Pointer(l), unsafe.Sizeof(*l))), l.n)
}

// maxTail is the largest tail. Behind the 48 B byteLeaf of a Uint64Key
// trie every tail tailLen picks fills a size class exactly, and a 464 B
// tail the 512 B class, the largest whose pointerful objects carry no
// malloc header.
const maxTail = 464

// tailLen returns the tail a leaf of an n-byte value is allocated with,
// n <= maxTail: n rounded up to the class steps, 16 B up to 208 B (the
// 256 B class) and 32 B above.
func tailLen(n int) int {
	if n <= 208 {
		return (n + 15) &^ 15
	}
	return (n+16+31)&^31 - 16
}

// newByteLeaf returns a leaf for val holding its word and a copy of its
// bytes, inline in a tail of tailLen bytes: one allocation in the
// smallest class that fits. A value longer than maxTail gets its copy
// as a second, separate allocation. Either way no leaf's bytes alias the
// caller's slice or another leaf: a Store of a reused buffer is safe,
// and a dead leaf is never kept alive by a live one.
func newByteLeaf[K keys.Key[K], V any](label K, val V, h BytesValue[V]) *node[K, V] {
	b, w := h.LeafBytes(val)
	var l *byteLeaf[K, V]
	if len(b) > maxTail {
		l = &(&longLeaf[K, V]{p: unsafe.SliceData(make([]byte, len(b)))}).byteLeaf
	} else {
		l = newTailLeaf[K, V](tailLen(len(b)))
	}
	l.label, l.gen, l.n, l.w = label, leafGen, uint64(len(b)), w
	copy(l.bytes(), b)
	return &l.node
}

// newTailLeaf allocates a zero byteLeaf with a tail of n bytes, n a
// tailLen: a bare byteLeaf for 0, else a tailLeaf.
func newTailLeaf[K keys.Key[K], V any](n int) *byteLeaf[K, V] {
	switch n {
	case 0:
		return new(byteLeaf[K, V])
	case 16:
		return &new(tailLeaf[K, V, [16]byte]).byteLeaf
	case 32:
		return &new(tailLeaf[K, V, [32]byte]).byteLeaf
	case 48:
		return &new(tailLeaf[K, V, [48]byte]).byteLeaf
	case 64:
		return &new(tailLeaf[K, V, [64]byte]).byteLeaf
	case 80:
		return &new(tailLeaf[K, V, [80]byte]).byteLeaf
	case 96:
		return &new(tailLeaf[K, V, [96]byte]).byteLeaf
	case 112:
		return &new(tailLeaf[K, V, [112]byte]).byteLeaf
	case 128:
		return &new(tailLeaf[K, V, [128]byte]).byteLeaf
	case 144:
		return &new(tailLeaf[K, V, [144]byte]).byteLeaf
	case 160:
		return &new(tailLeaf[K, V, [160]byte]).byteLeaf
	case 176:
		return &new(tailLeaf[K, V, [176]byte]).byteLeaf
	case 192:
		return &new(tailLeaf[K, V, [192]byte]).byteLeaf
	case 208:
		return &new(tailLeaf[K, V, [208]byte]).byteLeaf
	case 240:
		return &new(tailLeaf[K, V, [240]byte]).byteLeaf
	case 272:
		return &new(tailLeaf[K, V, [272]byte]).byteLeaf
	case 304:
		return &new(tailLeaf[K, V, [304]byte]).byteLeaf
	case 336:
		return &new(tailLeaf[K, V, [336]byte]).byteLeaf
	case 368:
		return &new(tailLeaf[K, V, [368]byte]).byteLeaf
	case 400:
		return &new(tailLeaf[K, V, [400]byte]).byteLeaf
	case 432:
		return &new(tailLeaf[K, V, [432]byte]).byteLeaf
	}
	return &new(tailLeaf[K, V, [464]byte]).byteLeaf
}

// newNode returns an empty internal node with the given label and
// generation and the trie's fanout; the caller stores the children. Its
// info is nil — never flagged — so the node is its only allocation. A
// binary node is a bare innerNode, 48 B for a Uint64Key trie; a wide node
// is an innerAlloc with its other slots inline (layout_test.go).
func (t *Trie[K, V]) newNode(label K, gen uint64) *innerNode[K, V] {
	type slot = atomic.Pointer[node[K, V]]
	switch t.span {
	case 1:
		return &innerNode[K, V]{node: node[K, V]{label: label, gen: gen}}
	case 2:
		return newInner[K, V, [2]slot](label, gen)
	case 3:
		return newInner[K, V, [6]slot](label, gen)
	case 4:
		return newInner[K, V, [14]slot](label, gen)
	case 5:
		return newInner[K, V, [30]slot](label, gen)
	}
	return newInner[K, V, [62]slot](label, gen)
}

// newInner allocates a wide internal node as an innerAlloc with tail T.
func newInner[K keys.Key[K], V any, T any](label K, gen uint64) *innerNode[K, V] {
	a := &innerAlloc[K, V, T]{innerNode: innerNode[K, V]{node: node[K, V]{label: label, gen: gen}}}
	return &a.innerNode
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
		// A byte-valued leaf's copy copies the bytes too (newByteLeaf):
		// the copy must not keep the leaf it displaces alive.
		return newLeafVal(n.label, n.value())
	}
	in, c := n.inner(), t.newNode(n.label, gen)
	for j := 0; j < t.fanout(); j++ {
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

// desc is the paper's Flag object: it describes one update operation
// completely, so that any process reading it can finish the update
// (help). It is the 8-byte header every descriptor shape starts with —
// descOne, descTwo or descGen, the smallest that holds the update — and
// parts recovers the shape's entries from it. A node it flags holds its
// address (word), which keeps the whole shape alive for as long as any
// node or delayed helper still holds it.
type desc[K keys.Key[K], V any] struct {
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
	oldInfo *byte
}

// casEntry is one child CAS: the update swings the pointer its target
// (desc.tgt) holds from oldChild to newChild.
type casEntry[K keys.Key[K], V any] struct {
	oldChild, newChild *node[K, V]
}

// The descriptor shapes. Each starts with the header (offset 0, pinned by
// layout_test.go), so parts can cast back to it; shapeOf picks the shape
// from the two counts alone, so the header is all parts needs. For a
// Uint64Key trie they are 40, 56 and 112 B: the 48, 64 and 112 B size
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
		// reaching it afterwards use the removal check (Snapshot.removed)
		// to decide whether the key is gone.
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

// The odd info words: an Unflag's low bit is set, and its next bit tells
// a backtrack's fresh Unflag from a token. Nodes and descs are 8-byte
// aligned, so no Flag is odd and the two kinds never meet.
const tokenTag, backtrackTag = 1, 3

// token returns the Unflag an update leaves in the node its CAS installed
// x under: x's address plus tokenTag, one byte into x. Every helper
// computes the same word, so the unflag CAS stays idempotent and
// allocates nothing, whoever wins it.
func token[K keys.Key[K], V any](x *node[K, V]) *byte {
	return (*byte)(unsafe.Add(unsafe.Pointer(x), tokenTag))
}

// newUnflag returns a fresh Unflag for a backtrack CAS, which installs no
// child to name: an 8-byte allocation's address plus backtrackTag. Not
// the desc's own address (Ellen et al.'s ⟨CLEAN, d⟩): that would keep the
// failed attempt's nodes alive, and through their captured infos every
// earlier descriptor on the node. Backtracks are rare.
func newUnflag() *byte { return (*byte)(unsafe.Add(unsafe.Pointer(new(uint64)), backtrackTag)) }

// word returns the info word of a node d flags: d's own address.
func (d *desc[K, V]) word() *byte { return (*byte)(unsafe.Pointer(d)) }

// flagged reports whether w is a Flag: neither nil, the info of a live
// leaf, nor an Unflag. It reads no memory.
func flagged(w *byte) bool { return w != nil && uintptr(unsafe.Pointer(w))&1 == 0 }

// backtracked reports whether w is a backtrack's Unflag.
func backtracked(w *byte) bool { return uintptr(unsafe.Pointer(w))&backtrackTag == backtrackTag }

// flagOf returns the desc whose Flag w is; w must be flagged.
func flagOf[K keys.Key[K], V any](w *byte) *desc[K, V] { return (*desc[K, V])(unsafe.Pointer(w)) }

// newFlag allocates the smallest shape holding the first nFlag entries of
// flag, the first nCAS of cas and rmvLeaf, and fills it in. Only a
// general-case replace has a removed leaf, and it has two CASes, so the
// counts alone name the general shape for it.
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
	d.nFlag, d.nCAS, d.tgt = uint8(nFlag), uint8(nCAS), tgt
	return d
}

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
	// mutex and pending flag, written only by Snapshot, share the
	// read-mostly line of root, short, dummyMin and span. 632 bytes
	// in all for a Uint64Key trie, the 640 B size class with the
	// allocator's header (pinned by layout_test.go).
	gate gate

	// root is swapped wholesale by Snapshot (a fresh copy carrying the
	// next generation), so it is an atomic pointer; everything below it
	// is reached through the usual child pointers. Readers may load
	// either side of a racing swap — both are valid linearizable views.
	root atomic.Pointer[node[K, V]]

	// short is the shortcut table of live reads and writers
	// (shortcut.go), nil until the trie first holds shortcutMinKeys keys.
	// Every live descent loads it once, so it sits on root's line.
	short atomic.Pointer[shortcut[K, V]]

	// dummyMin and dummyMax bound the key space; only the ordered walks
	// read them, so dummyMax sits past span, off root's line.
	dummyMin K

	// span is the digit width: every internal node, the root included,
	// resolves the next span key bits through 2^span slots, cutting
	// expected depth span-fold; 1 is exactly the paper's binary trie.
	// Internal labels always end on a digit boundary, a multiple of span
	// (digitFloor), and the digit at the very bottom of a key whose
	// length does not end on one is partial, occupying only the low 2^r
	// slots of its node.
	//
	// Soundness constraint on instantiations: digit extraction must
	// assign distinct slots to distinct keys under a shared node, which
	// holds when all keys have one fixed length (Uint64Key, MortonKey) or
	// all lengths end on a boundary. Variable-length Bitstring keys
	// (lengths 16n+2) violate it for span 4 — a 2-bit tail digit "11"
	// and a 4-bit digit "0011" would share slot 3 — so byte-string tries
	// stay binary.
	span uint32

	dummyMax K

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
	// concurrent operations). It is off root's line.
	count atomic.Int64

	// stats holds the counters that stay zero without contention (see
	// stats.go), on count's line: by value, so each trie owns its own,
	// with no pointer chase on the record paths.
	stats contention
}

// Option configures a Trie.
type Option[K keys.Key[K], V any] func(*Trie[K, V])

// WithSpan sets the digit width s: internal nodes grow 2^s child slots,
// inline in the node's one allocation (a span-4 node is the 32 B header
// and 16 pointers, 160 B), and every level resolves s key bits. s must be
// in [1, 6]; 1 is the paper's binary trie. See the span field for the
// key-length soundness constraint.
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

// digitFloor returns the longest digit boundary that is at most n bits:
// the length of the label of the internal node that separates two keys
// sharing exactly n leading bits.
func (t *Trie[K, V]) digitFloor(n uint32) uint32 { return n - n%t.span }

// slotOf returns the child-slot index the key v selects at an internal
// node whose label is pos bits long. pos is always a digit boundary
// (internal labels end on one) and pos < v.Len(). A binary trie stays on
// the one-shift Bit path.
func (t *Trie[K, V]) slotOf(v K, pos uint32) int {
	if t.span == 1 {
		return v.Bit(pos)
	}
	return v.Digit(pos, t.span)
}

// curGen returns the current snapshot generation — the generation of the
// current root. Mutating operations read it inside the gate, where it
// cannot change for the duration of the operation.
func (t *Trie[K, V]) curGen() uint64 { return t.root.Load().gen }

// searchResult carries the paper's 6-tuple ⟨gp, p, node, gpInfo, pInfo,
// rmvd⟩ returned by searchMut.
type searchResult[K keys.Key[K], V any] struct {
	gp, p, node   *node[K, V]
	gpInfo, pInfo *byte
	rmvd          bool
}

// holdsChild reports whether some slot of p currently holds c.
func (t *Trie[K, V]) holdsChild(p *innerNode[K, V], c *node[K, V]) bool {
	for j := 0; j < t.fanout(); j++ {
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

// Contains reports whether the encoded key v is in the set. It performs
// no CAS and never writes the trie (the paper's find, lines 72-75): it
// is the Snapshot descent run at the live root, started at the node the
// shortcut table holds for v when that node is still in the trie, with
// at most one hint store into the table (shortcut.go).
func (t *Trie[K, V]) Contains(v K) bool {
	s := t.live()
	return s.Contains(v)
}

// Load returns the value stored under v, or (zero, false) when v is not
// in the set. Like Contains it is CAS-free and never writes the trie:
// one descent, from the shortcut table or the root, and the value comes
// back unboxed straight from the leaf. Leaf values are immutable
// (updates install fresh leaves), so the value returned is exactly the
// one bound to v at the linearization point.
func (t *Trie[K, V]) Load(v K) (V, bool) {
	s := t.live()
	return s.Load(v)
}
