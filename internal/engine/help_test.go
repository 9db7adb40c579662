package engine

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"nbtrie/internal/keys"
)

// White-box tests of the coordination machinery: the help routine's
// backtrack path, newDesc's duplicate handling and ordering, the
// logical-removal predicate, and createNode's conflict helping — the
// paths a happy-path workload rarely exercises deterministically.

// TestHelpBacktracksOnStaleFlag drives help with a descriptor whose
// oldInfo is stale for its second flag target: flagging must fail
// partway, the already-flagged node must be unflagged by the backtrack
// CASes, and help must report failure.
func TestHelpBacktracksOnStaleFlag(t *testing.T) {
	tr := mustNew(t, 8)
	tr.Insert(3)   // encodes with leading 0 bit: left subtree
	tr.Insert(255) // encodes with leading 1 bit: right subtree

	a := tr.root.Load().inner().child[0].Load()
	b := tr.root.Load().inner().child[1].Load()
	if a.isLeaf() || b.isLeaf() {
		t.Fatal("test setup: expected internal children")
	}
	stale := newUnflag() // never the current info of b
	d := testFlag([]uflag{{a, a.info.Load()}, {b, stale}}, nil)

	if tr.help(tr.lane0(), d) {
		t.Fatal("help must fail when a flag CAS cannot succeed")
	}
	if d.flagDone.Load() {
		t.Error("flagDone must stay false on a failed attempt")
	}
	if flagged(a.info.Load()) {
		t.Error("backtrack CAS must unflag the first node")
	}
	if flagged(b.info.Load()) {
		t.Error("second node must never have been flagged")
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}

	// A backtrack allocates an Unflag only for a node it flagged: one
	// whose first flag CAS fails allocates nothing.
	first := testFlag([]uflag{{b, stale}, {a, a.info.Load()}}, nil)
	if n := testing.AllocsPerRun(10, func() { tr.help(tr.lane0(), first) }); n != 0 {
		t.Errorf("a backtrack that flagged nothing allocates %v objects, want 0", n)
	}
}

// TestNilBornInfoNoABA: an internal node is born with a nil info, and nil
// must be as unrepeatable as any Unflag. A descriptor that captured nil
// for node x goes stale the moment another update flags and unflags x:
// its flag CAS must fail, help must backtrack without touching a child
// pointer, and the trie must be exactly as it was. Then, however often x
// is flagged and unflagged, it holds the token of the child the last
// update installed under it and never again nil or any other value it
// held before — the held set keeps every earlier token, and so its
// child's address, alive, as a delayed flag CAS expecting it would.
func TestNilBornInfoNoABA(t *testing.T) {
	tr := mustNew(t, 8)
	tr.Insert(3) // joins the 0^ℓ dummy and 3 under a fresh internal node x
	r := tr.searchMut(tr.lane0(), tr.enc(2))
	x := r.p
	if x == tr.root.Load() || r.pInfo != nil || !r.node.isLeaf() {
		t.Fatalf("setup: want 2's position under a never-flagged node, got p=%v pInfo=%p", x.label, r.pInfo)
	}
	join := tr.makeInternal(tr.lane0(), tr.copyNode(r.node, tr.curGen()), newTestLeaf(tr, 2), nil)
	if join == nil {
		t.Fatal("setup: makeInternal failed")
	}
	stale := tr.newDesc(tr.lane0(),
		[4]uflag{{x, nil}}, 1,
		[2]*unode{x}, [2]ucas{{r.node, join}}, 1,
		nil)
	if stale == nil {
		t.Fatal("setup: a captured nil must be accepted as an old info value")
	}

	if !tr.Insert(1) { // lands under x: flags it (nil → Flag) and unflags it
		t.Fatal("setup: Insert(1) failed")
	}
	held := map[*byte]bool{nil: true}
	cur := x.info.Load()
	kids := [2]*unode{x.inner().child[0].Load(), x.inner().child[1].Load()}
	if cur != token(kids[0]) && cur != token(kids[1]) {
		t.Fatalf("after one flag/unflag round x must hold the token of the child Insert(1) installed, got %p", cur)
	}
	held[cur] = true
	dump := dumpShape(tr.Trie)

	if tr.help(tr.lane0(), stale) {
		t.Fatal("help must fail: x's info is no longer the captured nil")
	}
	if stale.flagDone.Load() {
		t.Error("flagDone must stay false on a failed attempt")
	}
	if x.info.Load() != cur {
		t.Error("the stale flag and backtrack CASes must leave x's info alone")
	}
	if x.inner().child[0].Load() != kids[0] || x.inner().child[1].Load() != kids[1] {
		t.Error("a failed attempt must not touch a child pointer")
	}
	if tr.Contains(2) || dumpShape(tr.Trie) != dump {
		t.Error("the stale update took effect")
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}

	// 3's leaf still hangs directly under x, so every overwrite of it
	// flags and unflags x.
	for i := 0; i < 200; i++ {
		tr.Store(3, i)
		if tr.searchMut(tr.lane0(), tr.enc(3)).p != x {
			t.Fatal("setup: x is no longer 3's parent")
		}
		u := x.info.Load()
		if u != token(tr.searchMut(tr.lane0(), tr.enc(3)).node) {
			t.Fatalf("round %d: x holds %p, not the token of 3's new leaf", i, u)
		}
		if held[u] {
			t.Fatalf("round %d: x's info repeats an earlier value %p", i, u)
		}
		held[u] = true
	}
}

// TestHelpIsIdempotent re-runs help on an already-completed descriptor:
// every CAS must fail harmlessly and the result stay true.
func TestHelpIsIdempotent(t *testing.T) {
	tr := mustNew(t, 8)
	tr.Insert(7)
	r := tr.searchMut(tr.lane0(), tr.enc(9))
	nodeInfo := r.node.info.Load()
	newNode := tr.makeInternal(tr.lane0(), tr.copyNode(r.node, tr.curGen()), newTestLeaf(tr, 9), nodeInfo)
	if newNode == nil {
		t.Fatal("setup: makeInternal failed")
	}
	d := tr.newDesc(tr.lane0(),
		[4]uflag{{r.p, r.pInfo}}, 1,
		[2]*unode{r.p}, [2]ucas{{r.node, newNode}}, 1,
		nil)
	if d == nil || !tr.help(tr.lane0(), d) {
		t.Fatal("setup: first help must succeed")
	}
	for i := 0; i < 3; i++ {
		if !tr.help(tr.lane0(), d) {
			t.Fatal("replayed help must still report success")
		}
	}
	if !tr.Contains(9) || tr.Size() != 2 {
		t.Error("replayed help corrupted the trie")
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
}

func TestNewDescDuplicateHandling(t *testing.T) {
	tr := mustNew(t, 8)
	tr.Insert(3)
	n := tr.root.Load().inner().child[0].Load()
	info := n.info.Load()

	// Same node twice with the same oldInfo: deduplicated to one entry,
	// which the CAS targets, in the shape the deduplicated count fits.
	d := tr.newDesc(tr.lane0(),
		[4]uflag{{n, info}, {n, info}}, 2,
		[2]*unode{n}, [2]ucas{{nil, newTestLeaf(tr, 1)}}, 1,
		nil)
	if d == nil {
		t.Fatal("duplicates with equal oldInfo must be accepted")
	}
	if d.nFlag != 1 || d.tgt[0] != 0 || d.size() != unsafe.Sizeof(descOne[keys.Uint64Key, any]{}) {
		t.Errorf("dedup left nFlag=%d, CAS target %d, a %d B shape; want 1, 0 and descOne", d.nFlag, d.tgt[0], d.size())
	}

	// Same node with different oldInfo: the node changed between reads.
	if tr.newDesc(tr.lane0(),
		[4]uflag{{n, info}, {n, newUnflag()}}, 2,
		[2]*unode{n}, [2]ucas{{nil, newTestLeaf(tr, 1)}}, 1,
		nil) != nil {
		t.Error("duplicates with different oldInfo must be rejected")
	}

	// A flagged oldInfo: the conflicting update gets helped, nil returned.
	flagged := testFlag(nil, nil)
	if tr.newDesc(tr.lane0(),
		[4]uflag{{n, flagged.word()}}, 1,
		[2]*unode{n}, [2]ucas{{nil, newTestLeaf(tr, 1)}}, 1,
		nil) != nil {
		t.Error("flagged oldInfo must be rejected")
	}
}

func TestNewDescSortsByLabel(t *testing.T) {
	tr := mustNew(t, 8)
	for _, k := range []uint64{3, 9, 200, 77} {
		tr.Insert(k)
	}
	// Gather three internal nodes and pass them in reverse label order.
	var internals []*unode
	var collect func(*unode)
	collect = func(n *unode) {
		if n.isLeaf() {
			return
		}
		internals = append(internals, n)
		collect(n.inner().child[0].Load())
		collect(n.inner().child[1].Load())
	}
	collect(tr.root.Load())
	if len(internals) < 3 {
		t.Fatalf("setup: want >=3 internal nodes, got %d", len(internals))
	}
	ns := [3]*unode{internals[2], internals[0], internals[1]}
	d := tr.newDesc(tr.lane0(),
		[4]uflag{{ns[0], ns[0].info.Load()}, {ns[1], ns[1].info.Load()}, {ns[2], ns[2].info.Load()}}, 3,
		[2]*unode{ns[0]}, [2]ucas{{nil, newTestLeaf(tr, 1)}}, 1,
		nil)
	if d == nil {
		t.Fatal("newDesc failed")
	}
	flag, _, _ := d.parts()
	for i := range flag {
		if i > 0 && flag[i-1].n.label.Compare(flag[i].n.label) >= 0 {
			t.Fatalf("flag entries not sorted at %d", i)
		}
		// The oldInfo permutation must follow its node.
		if flag[i].n.info.Load() != flag[i].oldInfo {
			t.Fatalf("oldInfo not permuted with its node at %d", i)
		}
	}
	// So must the CAS target's index.
	if d.target(flag, 0) != ns[0] {
		t.Fatalf("the CAS target index points at %v, want %v", d.target(flag, 0).label, ns[0].label)
	}
}

func TestLogicallyRemovedPredicate(t *testing.T) {
	tr := mustNew(t, 8)
	tr.Insert(5)
	leaf5 := tr.searchMut(tr.lane0(), tr.enc(5)).node
	live := tr.live()

	if leaf5.info.Load() != nil {
		t.Error("a live leaf must be born with a nil info")
	}
	if live.removed(leaf5.info.Load()) {
		t.Error("unflagged leaf must not be logically removed")
	}
	// Fabricate a replace-style flag whose pNode still points at
	// oldChild: not yet removed.
	p := tr.searchMut(tr.lane0(), tr.enc(5)).p
	d := testFlag([]uflag{{p, nil}}, []ucas{{leaf5, nil}}, 0)
	if live.removed(d.word()) {
		t.Error("leaf still linked under the first CAS's target is not removed")
	}
	// Once the old child is no longer a child of the target, it is removed.
	_, cas, _ := d.parts()
	cas[0].oldChild = newTestLeaf(tr, 9)
	if !live.removed(d.word()) {
		t.Error("leaf unlinked from the first CAS's target must report removed")
	}
}

func TestMakeInternalConflictHelps(t *testing.T) {
	tr := mustNew(t, 8)
	a := newTestLeaf(tr, 5)
	b := newTestLeaf(tr, 5) // identical labels: prefix conflict

	if tr.makeInternal(tr.lane0(), a, b, nil) != nil {
		t.Error("equal labels must yield nil")
	}
	// With a completed Flag as info, makeInternal helps it (idempotent
	// re-help) and still returns nil.
	tr.Insert(7)
	r := tr.searchMut(tr.lane0(), tr.enc(9))
	nodeInfo := r.node.info.Load()
	nn := tr.makeInternal(tr.lane0(), tr.copyNode(r.node, tr.curGen()), newTestLeaf(tr, 9), nodeInfo)
	d := tr.newDesc(tr.lane0(),
		[4]uflag{{r.p, r.pInfo}}, 1,
		[2]*unode{r.p}, [2]ucas{{r.node, nn}}, 1,
		nil)
	tr.help(tr.lane0(), d)
	if tr.makeInternal(tr.lane0(), a, b, d.word()) != nil {
		t.Error("conflict with flagged info must still yield nil")
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
}

// TestTryDeleteRootChildDefensive pins that a delete of a root child
// fails closed: handed a search result whose parent is the binary root
// (no grandparent to re-point), tryDelete refuses and leaves the trie
// untouched. The root must never contract away its dummy subtrees. The
// situation cannot arise through Delete — a leaf directly under the root
// is necessarily one of the two permanent dummies (the 0-prefix and
// 1-prefix subtrees always contain them), and dummy labels never equal
// an encoded user key, so keyInTrie rejects the position first — but a
// malformed result from a white-box caller must not corrupt the trie.
func TestTryDeleteRootChildDefensive(t *testing.T) {
	tr := mustNew(t, 8)
	tr.Insert(7)

	dummy := tr.root.Load().inner().child[0].Load()
	for !dummy.isLeaf() {
		dummy = dummy.inner().child[0].Load()
	}
	if lo, _ := (keys.U64Codec{Width: tr.width}).Bounds(); !dummy.label.Equal(lo) {
		t.Fatal("setup: leftmost leaf should be the 0^ℓ dummy")
	}
	r := searchResult[keys.Uint64Key, any]{
		p:     tr.root.Load(),
		pInfo: tr.root.Load().info.Load(),
		node:  dummy,
		// gp and gpInfo deliberately nil: the root has no parent.
	}
	if tr.tryDelete(tr.lane0(), dummy.label, r) {
		t.Error("tryDelete with nil gp must refuse")
	}
	if !tr.Contains(7) || tr.Size() != 1 {
		t.Error("defensive tryDelete must not disturb the trie")
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
}

// TestOrderedSkipsLogicallyRemoved: a leaf parked as rmvLeaf of a
// completed replace (flag stays forever) must never surface from ordered
// queries even when it is artificially kept reachable — fabricate the
// state directly.
func TestOrderedSkipsLogicallyRemoved(t *testing.T) {
	tr := mustNew(t, 8)
	tr.Insert(50)
	leaf := tr.searchMut(tr.lane0(), tr.enc(50)).node
	// The old child is not a child of the root: "removed".
	d := testFlag([]uflag{{tr.root.Load(), nil}}, []ucas{{newTestLeaf(tr, 1), nil}}, 0)
	leaf.info.Store(d.word())
	if _, ok := tr.Trie.Ceiling(tr.enc(0)); ok {
		t.Error("logically removed leaf surfaced from Ceiling")
	}
	if _, ok := tr.Trie.Floor(tr.enc(255)); ok {
		t.Error("logically removed leaf surfaced from Floor")
	}
	n := 0
	tr.AscendKV(keys.Uint64Key{}, func(keys.Uint64Key, any) bool { n++; return true })
	if n != 0 {
		t.Error("logically removed leaf surfaced from AscendKV")
	}
}

// TestValidateDetectsCorruption checks that the invariant checker is not
// vacuous, by corrupting a trie in ways the algorithm can never produce.
func TestValidateDetectsCorruption(t *testing.T) {
	tr := mustNew(t, 4)
	tr.Insert(3)

	// Swap the root's children: branch bits become wrong.
	c0, c1 := tr.root.Load().inner().child[0].Load(), tr.root.Load().inner().child[1].Load()
	tr.root.Load().inner().child[0].Store(c1)
	tr.root.Load().inner().child[1].Store(c0)
	if tr.Validate() == nil {
		t.Error("Validate must detect swapped children")
	}
	tr.root.Load().inner().child[0].Store(c0)
	tr.root.Load().inner().child[1].Store(c1)
	if err := tr.Validate(); err != nil {
		t.Fatalf("restored trie should validate: %v", err)
	}

	// A reachable flagged node at quiescence is a violation.
	d := testFlag(nil, nil)
	old := c0.info.Load()
	c0.info.Store(d.word())
	if tr.Validate() == nil {
		t.Error("Validate must detect reachable flagged node")
	}

	// An internal node's Unflag is a backtrack's or the token of one of
	// its current children; the token of any other node is stale.
	for _, tc := range []struct {
		w    *byte
		good bool
	}{
		{newUnflag(), true},
		{token(c0.inner().child[1].Load()), true},
		{token(c1), false},
		{token(newTestLeaf(tr, 3)), false},
	} {
		c0.info.Store(tc.w)
		if err := tr.Validate(); (err == nil) != tc.good {
			t.Errorf("internal node holding %p (a child's token or backtrack: %v): Validate = %v", tc.w, tc.good, err)
		}
	}
	c0.info.Store(old)

	// So is a reachable leaf that holds anything but nil: no unflag or
	// backtrack CAS targets a leaf, and a Flag is an unfinished
	// general-case replace.
	leaf := tr.searchMut(tr.lane0(), tr.enc(3)).node
	for _, i := range []*byte{newUnflag(), d.word()} {
		leaf.info.Store(i)
		if tr.Validate() == nil {
			t.Errorf("Validate must detect a reachable leaf holding %+v", i)
		}
	}
	leaf.info.Store(nil)
	if err := tr.Validate(); err != nil {
		t.Fatalf("restored trie should validate: %v", err)
	}

	// The extra (instantiation-supplied) check is consulted too.
	errSentinel := tr.Trie.Validate(func(label keys.Uint64Key, leaf bool) error {
		if leaf {
			return errFake
		}
		return nil
	})
	if errSentinel != errFake {
		t.Errorf("Validate must surface the extra check's error, got %v", errSentinel)
	}
}

var errFake = errFakeType{}

type errFakeType struct{}

func (errFakeType) Error() string { return "fake instantiation error" }

// TestQuickOpSequences is the testing/quick property test over random
// operation sequences: the trie must agree with a map oracle on every
// result and on the final contents.
func TestQuickOpSequences(t *testing.T) {
	type op struct {
		Kind byte
		K    uint16
		K2   uint16
	}
	f := func(ops []op) bool {
		tr := mustNew(t, 16)
		oracle := make(map[uint64]bool)
		for _, o := range ops {
			k, k2 := uint64(o.K), uint64(o.K2)
			switch o.Kind % 4 {
			case 0:
				if tr.Insert(k) != !oracle[k] {
					return false
				}
				oracle[k] = true
			case 1:
				if tr.Delete(k) != oracle[k] {
					return false
				}
				delete(oracle, k)
			case 2:
				if tr.Contains(k) != oracle[k] {
					return false
				}
			case 3:
				want := oracle[k] && !oracle[k2] && k != k2
				if tr.Replace(k, k2) != want {
					return false
				}
				if want {
					delete(oracle, k)
					oracle[k2] = true
				}
			}
		}
		if tr.Validate() != nil {
			return false
		}
		if tr.Size() != len(oracle) {
			return false
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 300,
		Rand:     rand.New(rand.NewSource(11)),
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
