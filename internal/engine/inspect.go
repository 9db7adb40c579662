package engine

import (
	"fmt"
	"strings"
	"unsafe"
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
//   - Internal labels are a whole number of digits long.
//   - The two dummy leaves are the extreme leaves of the trie.
//   - Leaf labels appear in strictly increasing order.
//   - No reachable node is flagged (Lemma 64: after every help call
//     returns, no reachable node's info is a Flag): every reachable
//     internal node holds nil (never flagged) or an Unflag header and
//     every reachable leaf holds nil — a Flag on a reachable leaf is an
//     unfinished general-case replace.
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
	switch i := n.info.Load(); {
	case i.flagged():
		return fmt.Errorf("reachable node %v is flagged at quiescence", n.label)
	case n.isLeaf() && i != nil:
		return fmt.Errorf("reachable leaf %v holds an info header; leaves are born with nil", n.label)
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
	if n.label.Len()%t.span != 0 {
		return fmt.Errorf("internal label %v is not a whole number of %d-bit digits", n.label, t.span)
	}
	in := n.inner()
	want := 2
	if t.span > 1 {
		want = 1 << t.span
	}
	if in.fanout() != want {
		return fmt.Errorf("internal node %v has fanout %d, want %d", n.label, in.fanout(), want)
	}
	live := 0
	for idx := 0; idx < in.fanout(); idx++ {
		c := in.kid(idx).Load()
		if c == nil {
			continue
		}
		live++
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
	for idx := 0; idx < in.fanout(); idx++ {
		if c := in.kid(idx).Load(); c != nil {
			t.dumpNode(sb, c, format, depth+1)
		}
	}
}

// Footprint is a census of the heap objects reachable from a trie's
// root: how many there are of each kind and how many bytes of heap they
// are predicted to occupy — unsafe.Sizeof of each object rounded up to
// the allocator's size class. The prediction leaves out whatever K and V
// hold out of line.
type Footprint struct {
	// Objects. Leaves includes the two dummies; Infos counts only the
	// headers that exist — a node nothing has flagged yet has none.
	Internal, Leaves, Infos int

	// InternalBytes includes the slot blocks of wide nodes; InfoBytes
	// counts a Flag (none is reachable at quiescence) as its whole
	// descriptor shape.
	InternalBytes, LeafBytes, InfoBytes uintptr
}

// Bytes returns the predicted bytes of all census objects.
func (f Footprint) Bytes() uintptr { return f.InternalBytes + f.LeafBytes + f.InfoBytes }

// sizeClasses are the Go allocator's small-object size classes up to 1 KiB
// (runtime/sizeclasses.go), enough for every object of a span <= 6 trie
// over the repository's key types.
var sizeClasses = [...]uintptr{8, 16, 24, 32, 48, 64, 80, 96, 112, 128, 144, 160, 176, 192,
	208, 224, 240, 256, 288, 320, 352, 384, 416, 448, 480, 512, 576, 640, 704, 768, 896, 1024}

// classSize returns the bytes the allocator hands out for an n-byte
// object; sizes beyond the table are returned unrounded.
func classSize(n uintptr) uintptr {
	for _, c := range sizeClasses {
		if n <= c {
			return c
		}
	}
	return n
}

// Footprint walks the trie and returns its census. Quiescent use only.
func (t *Trie[K, V]) Footprint() Footprint {
	var f Footprint
	t.footprintNode(t.root.Load(), &f)
	return f
}

func (t *Trie[K, V]) footprintNode(n *node[K, V], f *Footprint) {
	switch i := n.info.Load(); {
	case i.flagged():
		f.Infos++
		f.InfoBytes += classSize(i.flag.size())
	case i != nil:
		f.Infos++
		f.InfoBytes += classSize(unsafe.Sizeof(*i))
	}
	if n.isLeaf() {
		f.Leaves++
		f.LeafBytes += classSize(unsafe.Sizeof(*n.leaf()))
		return
	}
	in := n.inner()
	f.Internal++
	f.InternalBytes += classSize(unsafe.Sizeof(*in))
	if in.ext != nil {
		f.InternalBytes += classSize(unsafe.Sizeof(*in.ext) + uintptr(len(*in.ext))*unsafe.Sizeof((*in.ext)[0]))
	}
	for idx := 0; idx < in.fanout(); idx++ {
		if c := in.kid(idx).Load(); c != nil {
			t.footprintNode(c, f)
		}
	}
}
