package engine

import (
	"testing"
	"unsafe"
)

// Executable invariants of the descriptor layout: every update kind gets
// the smallest shape that holds it, and the nodes help unflags — the CAS
// targets — are exactly the flagged nodes that stay in the trie.

// shapeWant is what a captured descriptor must look like.
type shapeWant struct {
	shape, nFlag, nCAS int
	root               bool // the first CAS swings the trie's root pointer
}

var (
	one     = shapeWant{shapeOne, 1, 1, false}
	oneRoot = shapeWant{shapeOne, 1, 1, true}
	two     = shapeWant{shapeTwo, 2, 1, false}
)

func general(nFlag, nCAS int) shapeWant { return shapeWant{shapeGen, nFlag, nCAS, false} }

// u returns the user key whose encoding is e (U64Codec stores k as k+1 in
// width+1 bits), so the cases below can name keys by their bit patterns:
// at width 7 an encoding is 8 bits, at width 15 four hex digits, one per
// span-4 level.
func u(e uint64) uint64 { return e - 1 }

// shapeCase drives one update kind on a fresh trie holding keys (given
// by encoding); want lists the descriptors the update builds, in order.
type shapeCase struct {
	name         string
	width, span  uint32
	keys         []uint64
	snapshot     bool // take a Snapshot first, so the update renews stale nodes
	op           func(tr testTrie) bool
	want         []shapeWant
	sharedTarget bool // both CASes target one node
}

// Span 1, width 7 (encodings up to 0x80): 0x65 and 0x66 (01100101,
// 01100110) hang under "011001", which hangs under "0"; 0x61 adds "01100"
// between them; 0x29 and 0x2A go under "00" beside the 0^8 dummy.
//
// Span 4, width 15: the root has one slot per first hex digit, and an
// internal node's label is the digits its keys share.
var shapeCases = []shapeCase{
	{name: "insert at a leaf", width: 7, span: 1, keys: []uint64{0x65},
		op: func(tr testTrie) bool { return tr.Insert(u(0x66)) }, want: []shapeWant{one}},
	{name: "insert at an internal node", width: 7, span: 1, keys: []uint64{0x65, 0x66},
		op: func(tr testTrie) bool { return tr.Insert(u(0x79)) }, want: []shapeWant{two}},
	{name: "overwrite", width: 7, span: 1, keys: []uint64{0x65, 0x66},
		op: func(tr testTrie) bool { tr.Store(u(0x65), "v"); return true }, want: []shapeWant{one}},
	{name: "delete", width: 7, span: 1, keys: []uint64{0x65, 0x66},
		op: func(tr testTrie) bool { return tr.Delete(u(0x65)) }, want: []shapeWant{two}},
	{name: "renewal", width: 7, span: 1, keys: []uint64{0x65, 0x66}, snapshot: true,
		op: func(tr testTrie) bool { tr.Store(u(0x65), "v"); return true }, want: []shapeWant{two, two, one}},
	{name: "replace case 1", width: 7, span: 1, keys: []uint64{0x65},
		op: func(tr testTrie) bool { return tr.Replace(u(0x65), u(0x66)) }, want: []shapeWant{one}},
	{name: "replace case 2", width: 7, span: 1, keys: []uint64{0x65, 0x66},
		op: func(tr testTrie) bool { return tr.Replace(u(0x65), u(0x79)) }, want: []shapeWant{two}},
	{name: "replace case 3", width: 7, span: 1, keys: []uint64{0x65, 0x66},
		op: func(tr testTrie) bool { return tr.Replace(u(0x65), u(0x67)) }, want: []shapeWant{two}},
	{name: "replace case 4", width: 7, span: 1, keys: []uint64{0x61, 0x65, 0x66},
		op: func(tr testTrie) bool { return tr.Replace(u(0x65), u(0x70)) }, want: []shapeWant{general(3, 1)}},
	{name: "replace general, leaf insertion point", width: 7, span: 1, keys: []uint64{0x65, 0x66, 0x29},
		op: func(tr testTrie) bool { return tr.Replace(u(0x65), u(0x2A)) }, want: []shapeWant{general(3, 2)}},
	{name: "replace general, internal insertion point", width: 7, span: 1, keys: []uint64{0x65, 0x66, 0x29, 0x2A},
		op: func(tr testTrie) bool { return tr.Replace(u(0x65), u(0x30)) }, want: []shapeWant{general(4, 2)}},
	{name: "replace general, one target", width: 7, span: 1, keys: []uint64{0x61, 0x65, 0x66},
		op: func(tr testTrie) bool { return tr.Replace(u(0x65), u(0x62)) }, want: []shapeWant{general(2, 2)}, sharedTarget: true},

	{name: "fill at the root", width: 15, span: 4,
		op: func(tr testTrie) bool { return tr.Insert(u(0x3000)) }, want: []shapeWant{oneRoot}},
	{name: "clear at the root", width: 15, span: 4, keys: []uint64{0x3000, 0x5000},
		op: func(tr testTrie) bool { return tr.Delete(u(0x3000)) }, want: []shapeWant{oneRoot}},
	{name: "fill under a grandparent", width: 15, span: 4, keys: []uint64{0x3100, 0x3200},
		op: func(tr testTrie) bool { return tr.Insert(u(0x3500)) }, want: []shapeWant{two}},
	{name: "clear under a grandparent", width: 15, span: 4, keys: []uint64{0x3100, 0x3200, 0x3500},
		op: func(tr testTrie) bool { return tr.Delete(u(0x3500)) }, want: []shapeWant{two}},
	{name: "span 4 insert at a leaf", width: 15, span: 4, keys: []uint64{0x3100},
		op: func(tr testTrie) bool { return tr.Insert(u(0x3200)) }, want: []shapeWant{one}},
	{name: "span 4 insert at an internal node", width: 15, span: 4, keys: []uint64{0x3110, 0x3120},
		op: func(tr testTrie) bool { return tr.Insert(u(0x3200)) }, want: []shapeWant{two}},
	{name: "span 4 overwrite", width: 15, span: 4, keys: []uint64{0x3100},
		op: func(tr testTrie) bool { tr.Store(u(0x3100), "v"); return true }, want: []shapeWant{one}},
	{name: "span 4 delete", width: 15, span: 4, keys: []uint64{0x3100, 0x3200},
		op: func(tr testTrie) bool { return tr.Delete(u(0x3100)) }, want: []shapeWant{two}},
	{name: "span 4 renewal", width: 15, span: 4, keys: []uint64{0x3100, 0x3200}, snapshot: true,
		op: func(tr testTrie) bool { tr.Store(u(0x3100), "v"); return true }, want: []shapeWant{two, one}},
	{name: "span 4 replace case 1", width: 15, span: 4, keys: []uint64{0x3100},
		op: func(tr testTrie) bool { return tr.Replace(u(0x3100), u(0x3200)) }, want: []shapeWant{one}},
	{name: "span 4 replace case 2", width: 15, span: 4, keys: []uint64{0x3110, 0x3120},
		op: func(tr testTrie) bool { return tr.Replace(u(0x3110), u(0x3200)) }, want: []shapeWant{two}},
	{name: "span 4 replace case 3", width: 15, span: 4, keys: []uint64{0x3100, 0x3200},
		op: func(tr testTrie) bool { return tr.Replace(u(0x3100), u(0x3210)) }, want: []shapeWant{two}},
	{name: "span 4 replace case 4", width: 15, span: 4, keys: []uint64{0x3121, 0x3122, 0x3150},
		op: func(tr testTrie) bool { return tr.Replace(u(0x3121), u(0x3800)) }, want: []shapeWant{general(3, 1)}},
	{name: "span 4 replace general", width: 15, span: 4, keys: []uint64{0x3110, 0x3120, 0x5110, 0x5120},
		op: func(tr testTrie) bool { return tr.Replace(u(0x3110), u(0x5200)) }, want: []shapeWant{general(3, 2)}, sharedTarget: true},
	{name: "replace fill at the root", width: 15, span: 4, keys: []uint64{0x3000},
		op: func(tr testTrie) bool { return tr.Replace(u(0x3000), u(0x5000)) }, want: []shapeWant{oneRoot}},
	{name: "replace fill, same node", width: 15, span: 4, keys: []uint64{0x3100, 0x3200},
		op: func(tr testTrie) bool { return tr.Replace(u(0x3100), u(0x3500)) }, want: []shapeWant{two}},
	{name: "replace fill under the delete's parent", width: 15, span: 4, keys: []uint64{0x3100, 0x3210, 0x3220, 0x3400},
		op: func(tr testTrie) bool { return tr.Replace(u(0x3100), u(0x3250)) }, want: []shapeWant{general(3, 1)}},
	{name: "replace fill of the delete's grandparent", width: 15, span: 4, keys: []uint64{0x3110, 0x3120, 0x3200},
		op: func(tr testTrie) bool { return tr.Replace(u(0x3110), u(0x3500)) }, want: []shapeWant{general(3, 1)}},
	{name: "replace fill, disjoint", width: 15, span: 4, keys: []uint64{0x3110, 0x3120, 0x5110, 0x5120},
		op: func(tr testTrie) bool { return tr.Replace(u(0x3110), u(0x5130)) }, want: []shapeWant{general(3, 2)}, sharedTarget: true},
}

// run builds the case's trie, drives its update with every descriptor
// that reaches the child CASes captured, and returns the trie and those
// descriptors.
func (c shapeCase) run(t *testing.T) (testTrie, []*udesc) {
	t.Helper()
	tr := karyNew(t, c.width, c.span)
	for _, e := range c.keys {
		if !tr.Insert(u(e)) {
			t.Fatalf("setup: Insert(%#x) failed", e)
		}
	}
	if c.snapshot {
		tr.Trie.Snapshot()
	}
	var got []*udesc
	testHookAfterFlagging = func(d any) { got = append(got, d.(*udesc)) }
	ok := c.op(tr)
	testHookAfterFlagging = nil
	if !ok {
		t.Fatal("the update failed")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	return tr, got
}

// TestDescShapes: each update kind, at span 1 and span 4, builds the
// smallest shape that holds it.
func TestDescShapes(t *testing.T) {
	t.Cleanup(func() { testHookAfterFlagging = nil })
	for _, c := range shapeCases {
		t.Run(c.name, func(t *testing.T) {
			_, got := c.run(t)
			if len(got) != len(c.want) {
				t.Fatalf("the update built %d descriptors, want %d", len(got), len(c.want))
			}
			for j, d := range got {
				w := c.want[j]
				flag, cas, rmvLeaf := d.parts()
				if len(flag) != w.nFlag || len(cas) != w.nCAS {
					t.Errorf("descriptor %d has %d flags and %d CASes, want %d and %d", j, len(flag), len(cas), w.nFlag, w.nCAS)
				}
				if s := shapeOf(len(flag), len(cas)); s != w.shape {
					t.Errorf("descriptor %d is shape %d, want %d", j, s, w.shape)
				}
				if root := d.tgt[0] == rootTgt; root != w.root {
					t.Errorf("descriptor %d swings the root pointer: %v, want %v", j, root, w.root)
				}
				// Exactly the two-CAS replaces remove a leaf behind a
				// logical removal; the fused cases realize both halves in
				// one CAS.
				if wantRmv := w.nCAS == 2; (rmvLeaf != nil) != wantRmv {
					t.Errorf("descriptor %d has removed leaf %v, want one: %v", j, rmvLeaf, wantRmv)
				}
				if shared := len(cas) == 2 && d.tgt[0] == d.tgt[1]; shared != c.sharedTarget {
					t.Errorf("descriptor %d: both CASes target one node: %v, want %v", j, shared, c.sharedTarget)
				}
			}
		})
	}
}

// TestSurvivorsAreCASTargets is the executable form of deriving the
// unflag set from the CAS targets: once the update has returned, every
// flagged node a CAS targeted holds a fresh Unflag, and every other
// flagged node — each one the update removed from the trie — still holds
// the update's Flag.
func TestSurvivorsAreCASTargets(t *testing.T) {
	t.Cleanup(func() { testHookAfterFlagging = nil })
	for _, c := range shapeCases {
		t.Run(c.name, func(t *testing.T) {
			_, got := c.run(t)
			for j, d := range got {
				flag, cas, _ := d.parts()
				target := make([]bool, len(flag))
				for k := range cas {
					if d.tgt[k] != rootTgt {
						target[d.tgt[k]] = true
					}
				}
				for k, f := range flag {
					i := f.n.info.Load()
					switch {
					case target[k] && (i == nil || i.flagged() || i == f.oldInfo):
						t.Errorf("descriptor %d: CAS target %v holds %p, want a fresh Unflag", j, f.n.label, i)
					case !target[k] && i != &d.hdr:
						t.Errorf("descriptor %d: removed node %v holds %p, want the update's Flag", j, f.n.label, i)
					}
				}
			}
		})
	}
}

// TestFootprintCountsFlagShape: a Flag reachable from the root — here
// the general-case Replace parked after its flag CASes — is counted at
// its shape's size class, 128 B, not at its 16 B header.
func TestFootprintCountsFlagShape(t *testing.T) {
	tr := mustNew(t, 7)
	for _, e := range []uint64{0x65, 0x66, 0x29} {
		tr.Insert(u(e))
	}
	before := tr.Footprint()
	stalled, release := stallFirst(t)
	done := make(chan bool)
	go func() { done <- tr.Replace(u(0x65), u(0x2A)) }()
	d := <-stalled
	flag, _, rmvLeaf := d.parts()
	if rmvLeaf == nil {
		t.Fatal("setup: the parked update is not a general-case replace")
	}
	during := tr.Footprint()
	close(release)
	if !<-done {
		t.Fatal("Replace failed")
	}

	want := before.InfoBytes
	for _, f := range flag {
		want += 128
		if f.oldInfo != nil {
			want -= classSize(unsafe.Sizeof(uinfo{}))
		}
	}
	if during.InfoBytes != want {
		t.Errorf("with %d nodes flagged, InfoBytes = %d, want %d (%d before)", len(flag), during.InfoBytes, want, before.InfoBytes)
	}
}
