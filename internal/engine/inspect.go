package engine

import (
	"fmt"
	"math"
	"strings"
	"unsafe"

	"nbtrie/internal/keys"
)

// The helpers in this file traverse the trie without synchronization and
// are intended for quiescent use (tests, examples, offline inspection).
// Called concurrently with updates they are safe — they only read — but
// may observe a mix of states.

// Len returns the number of live user keys, read from the atomic
// counter maintained on the insert/delete paths (see the count field):
// O(1), allocation-free, exact at quiescence, and under concurrent
// mutation stale by at most the number of in-flight operations. Unlike
// the rest of this file it is safe and meaningful under full
// concurrency.
//
// The raw counter can dip below zero transiently (an insert past its
// linearization point but before its bump, whose key a concurrent
// delete already removed and counted); clamp so callers can use Len as
// a capacity without a makeslice panic.
func (t *Trie[K, V]) Len() int {
	if n := t.count.Load(); n > 0 {
		return int(n)
	}
	return 0
}

// Size returns the number of live user keys in the set by traversal.
// Tests compare it against Len to validate the counter.
func (t *Trie[K, V]) Size() int {
	n := 0
	var zero K
	t.AscendKV(zero, func(K, V) bool {
		n++
		return true
	})
	return n
}

// Validate checks the structural invariants of the trie and returns the
// first violation found, or nil. It must be called at quiescence (no
// concurrent updates). Checked invariants, from the paper's proof,
// generalized to 2^s-child nodes:
//
//   - Invariant 7: if slot i of x holds y then x.label · digit(i) is a
//     prefix of y.label; hence labels strictly lengthen along every path.
//   - Every internal node has at least two non-nil children (Lemma 4;
//     exactly two at span 1), each in the slot its label's digit selects.
//   - Internal labels end on a digit boundary, a multiple of span.
//   - The two dummy leaves are the extreme leaves of the trie.
//   - Leaf labels appear in strictly increasing order.
//   - No reachable node is flagged (Lemma 64: after every help call
//     returns, no reachable node's info is a Flag): every reachable
//     internal node holds nil (never flagged), a backtrack's Unflag or
//     the token of one of its current children, and every reachable leaf
//     holds nil — a Flag on a reachable leaf is an unfinished
//     general-case replace.
//
// extra, when non-nil, runs on every reachable node so instantiations
// can add key-space-specific checks (canonical representation, full
// leaf length, ...); its first error is reported.
func (t *Trie[K, V]) Validate(extra func(label K, leaf bool) error) error {
	root := t.root.Load()
	if root.isLeaf() || root.label.Len() != 0 {
		return fmt.Errorf("root must be an internal node with empty label")
	}
	var leaves []K
	if err := t.validateNode(root, extra, &leaves); err != nil {
		return err
	}
	if len(leaves) < 2 {
		return fmt.Errorf("trie must always hold the two dummy leaves, found %d leaves", len(leaves))
	}
	for i := 1; i < len(leaves); i++ {
		if leaves[i-1].Compare(leaves[i]) >= 0 {
			return fmt.Errorf("leaf labels out of order: %v before %v", leaves[i-1], leaves[i])
		}
	}
	if !leaves[0].Equal(t.dummyMin) {
		return fmt.Errorf("leftmost leaf %v is not the minimum dummy", leaves[0])
	}
	if !leaves[len(leaves)-1].Equal(t.dummyMax) {
		return fmt.Errorf("rightmost leaf %v is not the maximum dummy", leaves[len(leaves)-1])
	}
	return nil
}

func (t *Trie[K, V]) validateNode(n *node[K, V], extra func(K, bool) error, leaves *[]K) error {
	w := n.info.Load()
	switch {
	case flagged(w):
		return fmt.Errorf("reachable node %v is flagged at quiescence", n.label)
	case n.isLeaf() && w != nil:
		return fmt.Errorf("reachable leaf %v holds an info word; leaves are born with nil", n.label)
	}
	if extra != nil {
		if err := extra(n.label, n.isLeaf()); err != nil {
			return err
		}
	}
	if n.isLeaf() {
		*leaves = append(*leaves, n.label)
		return nil
	}
	if t.digitFloor(n.label.Len()) != n.label.Len() {
		return fmt.Errorf("internal label %v does not end on a digit boundary (span %d)", n.label, t.span)
	}
	in := n.inner()
	live := 0
	named := w == nil || backtracked(w)
	for idx := 0; idx < t.fanout(); idx++ {
		c := in.kid(idx).Load()
		if c == nil {
			continue
		}
		live++
		named = named || token(c) == w
		if c.label.Len() <= n.label.Len() {
			return fmt.Errorf("child label length %d not longer than parent's %d", c.label.Len(), n.label.Len())
		}
		if !n.label.IsPrefixOf(c.label) {
			return fmt.Errorf("parent label %v is not a prefix of child label %v", n.label, c.label)
		}
		if t.slotOf(c.label, n.label.Len()) != idx {
			return fmt.Errorf("child in slot %d of %v has wrong branch digit", idx, n.label)
		}
		if err := t.validateNode(c, extra, leaves); err != nil {
			return err
		}
	}
	if live < 2 {
		return fmt.Errorf("internal node %v has %d non-nil children, want >= 2", n.label, live)
	}
	if !named {
		return fmt.Errorf("internal node %v holds the token of a node that is not its child", n.label)
	}
	return nil
}

// Dump renders the trie structure as an indented multi-line string, for
// debugging and the triecli tool; format renders one node (the
// instantiation knows how to decode labels and name its dummies).
// Quiescent use only.
func (t *Trie[K, V]) Dump(format func(label K, leaf bool) string) string {
	var sb strings.Builder
	t.dumpNode(&sb, t.root.Load(), format, 0)
	return sb.String()
}

func (t *Trie[K, V]) dumpNode(sb *strings.Builder, n *node[K, V], format func(K, bool) string, depth int) {
	sb.WriteString(strings.Repeat("  ", depth))
	sb.WriteString(format(n.label, n.isLeaf()))
	sb.WriteByte('\n')
	if n.isLeaf() {
		return
	}
	in := n.inner()
	for idx := 0; idx < t.fanout(); idx++ {
		if c := in.kid(idx).Load(); c != nil {
			t.dumpNode(sb, c, format, depth+1)
		}
	}
}

// Footprint is a census of the heap objects reachable from a trie's
// root, plus its shortcut table: how many there are of each kind and how
// many bytes of heap they are predicted to occupy — unsafe.Sizeof of
// each object rounded up to the allocator's size class. The prediction
// leaves out whatever K and V hold out of line, except the bytes of a
// BytesValue, which belong to the leaf and count in LeafBytes.
type Footprint struct {
	// Objects. Leaves includes the two dummies; Infos counts only the
	// info objects that exist — Flags and backtracks' Unflags: nil and a
	// token are no object.
	Internal, Leaves, Infos int

	// InternalBytes counts each internal node as newNode allocates it,
	// all its slots inline; InfoBytes counts a Flag (none is reachable at
	// quiescence) as its whole descriptor shape and a backtrack's Unflag
	// as 8 B.
	InternalBytes, LeafBytes, InfoBytes uintptr

	// ShortcutBytes is the live descents' shortcut table (shortcut.go): its
	// header and its slots, 0 before the trie first held
	// shortcutMinKeys keys.
	ShortcutBytes uintptr

	// LeafDepths is the trie's shape: the sum over the user leaves (the
	// dummies left out) of each one's depth, the number of internal
	// nodes on its path, the root included.
	LeafDepths int
}

// MeanLeafDepth returns the mean depth of the user leaves, 0 when the
// trie holds none: what UniformShape predicts for uniform keys.
func (f Footprint) MeanLeafDepth() float64 {
	if f.Leaves <= 2 {
		return 0
	}
	return float64(f.LeafDepths) / float64(f.Leaves-2)
}

// Bytes returns the predicted bytes of all census objects.
func (f Footprint) Bytes() uintptr {
	return f.InternalBytes + f.LeafBytes + f.InfoBytes + f.ShortcutBytes
}

// sizeClasses are the Go allocator's small-object size classes
// (runtime/sizeclasses.go), up to its 32 KiB small-object limit: every
// node shape up to span 6 over the repository's key types fits one.
var sizeClasses = [...]uintptr{8, 16, 24, 32, 48, 64, 80, 96, 112, 128, 144, 160, 176, 192,
	208, 224, 240, 256, 288, 320, 352, 384, 416, 448, 480, 512, 576, 640, 704, 768, 896, 1024,
	1152, 1280, 1408, 1536, 1792, 2048, 2304, 2688, 3072, 3200, 3456, 4096, 4864, 5376, 6144,
	6528, 6784, 6912, 8192, 9472, 9728, 10240, 10880, 12288, 13568, 14336, 16384, 18432, 19072,
	20480, 21760, 24576, 27264, 28672, 32768}

// mallocHeader is the word the allocator (Go 1.22 and later) puts in
// front of every small object larger than 512 B that holds pointers, to
// find its pointer bitmap. Every object the census counts holds pointers.
// An object too large for the last class with its header is a large
// object: it gets whole pages of its own and no header.
const mallocHeader, maxHeaderless, pageSize = 8, 512, 8192

// classSize returns the bytes the allocator hands out for an n-byte
// object that holds pointers, malloc header included.
func classSize(n uintptr) uintptr {
	if h := n + mallocHeader; n > maxHeaderless && h <= sizeClasses[len(sizeClasses)-1] {
		return bytesClassSize(h)
	}
	return bytesClassSize(n)
}

// bytesClassSize returns the bytes the allocator hands out for an n-byte
// object with no pointers (such as a byte slice's array), which never
// carries the malloc header.
func bytesClassSize(n uintptr) uintptr {
	for _, c := range sizeClasses {
		if n <= c {
			return c
		}
	}
	return (n + pageSize - 1) / pageSize * pageSize
}

// leafSize returns the bytes of leaf n as newLeafVal allocated it: the
// leafNode's class, or for a BytesValue the class of the byteLeaf and
// its tail, or of the longLeaf and, separately, its copy of a value
// longer than maxTail.
func leafSize[K keys.Key[K], V any](n *node[K, V]) uintptr {
	if _, ok := bytesValue[V](); !ok {
		return classSize(unsafe.Sizeof(leafNode[K, V]{}))
	}
	l := n.byteLeaf()
	if l.n > maxTail {
		return classSize(unsafe.Sizeof(longLeaf[K, V]{})) + bytesClassSize(uintptr(l.n))
	}
	return classSize(unsafe.Sizeof(*l) + uintptr(tailLen(int(l.n))))
}

// Footprint walks the trie and returns its census. Quiescent use only.
func (t *Trie[K, V]) Footprint() Footprint {
	var f Footprint
	t.footprintNode(t.root.Load(), &f, 0)
	if sc := t.short.Load(); sc != nil {
		f.ShortcutBytes = classSize(unsafe.Sizeof(*sc)) + classSize(uintptr(len(sc.slots))*unsafe.Sizeof(sc.slots[0]))
	}
	return f
}

func (t *Trie[K, V]) footprintNode(n *node[K, V], f *Footprint, depth int) {
	switch w := n.info.Load(); {
	case flagged(w):
		f.Infos++
		f.InfoBytes += classSize(flagOf[K, V](w).size())
	case backtracked(w):
		f.Infos++
		f.InfoBytes += classSize(unsafe.Sizeof(uint64(0)))
	}
	if n.isLeaf() {
		f.Leaves++
		f.LeafBytes += leafSize(n)
		if !n.label.Equal(t.dummyMin) && !n.label.Equal(t.dummyMax) {
			f.LeafDepths += depth
		}
		return
	}
	in := n.inner()
	fan := t.fanout()
	tail := uintptr(fan-2) * unsafe.Sizeof(in.child[0]) // a wide node's other slots
	f.Internal++
	f.InternalBytes += classSize(unsafe.Sizeof(*in) + tail)
	for idx := 0; idx < fan; idx++ {
		if c := in.kid(idx).Load(); c != nil {
			t.footprintNode(c, f, depth+1)
		}
	}
}

// UniformShape predicts the census of a trie at digit width span that
// holds n user keys drawn uniformly from a U64Codec key space whose
// width is well above log2 n: the expected MeanLeafDepth and the
// expected count of internal nodes.
//
// U64Codec stores key k as k+1 in width+1 bits, so the first bit is 0 for
// every user key (but 2^width−1) and 1 for the upper dummy. The root,
// which every leaf passes, is therefore one level that at span 1 separates
// only that dummy; below it the keys' other bits are uniform. A leaf's
// path then holds a node at digit j ≥ 1 exactly when another key shares
// the leaf's first j digits and differs in digit j+1. Each of the other
// n−1 user keys does so with probability q_j = 2^(1−j·span)·(1−2^−span)
// and the all-zero lower dummy too, averaged over the leaf, all
// independently, so
//
//	depth = 1 + Σ_{j≥1} (1 − (1−q_j)^n).
//
// At span 1 the sum is the Patricia trie's expected depth log2 n + γ/ln 2
// − 1/2 ≈ log2 n + 0.33 (Knuth; Szpankowski), up to an O(1/n) term and a
// periodic term below 10^−5, so depth ≈ log2 n + 1.33 with the root.
//
// A node at digit j ≥ 1 exists for a j-digit prefix when the keys under
// it fill at least two of its m = 2^span child slots. With p = 2^(1−j·span)
// the chance that one user key has the prefix, the user keys do that with
// probability 1 − (1−p)^n − m·((1−p+p/m)^n − (1−p)^n), for each of the
// 2^(j·span−1) prefixes. Under the all-zero prefix the lower dummy adds
// a node when the user keys fill exactly one slot other than slot 0,
// with probability (m−1)·((1−p+p/m)^n − (1−p)^n). At span 1 these sum to
// n + 1 up to O(1/n), the internal nodes of any binary trie of n + 2
// leaves.
func UniformShape(n int, span uint32) (depth, internal float64) {
	m, x := math.Ldexp(1, int(span)), float64(n)
	depth, internal = 1, 1
	// Past n·p = 10^−7 what is left of either sum is below 10^−6.
	for j := 1; ; j++ {
		p := math.Ldexp(1, 1-j*int(span))
		if x*p < 1e-7 {
			return depth, internal
		}
		depth -= math.Expm1(x * math.Log1p(-p*(1-1/m)))
		none := math.Exp(x * math.Log1p(-p))
		oneSlot := m * (math.Exp(x*math.Log1p(-p+p/m)) - none)
		internal += (1-none-oneSlot)/p + oneSlot*(m-1)/m
	}
}
