package engine

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"nbtrie/internal/keys"
)

// Tests of the k-ary (span > 1) generalization: the slot fill/clear
// paths that do not exist at span 1, the root-CAS sentinel, digit-based
// contraction, snapshots over wide nodes, and the fanout the digit
// schedule gives each node.

func karyNew(t *testing.T, width, span uint32) testTrie {
	t.Helper()
	return mustNew(t, width, WithSpan[keys.Uint64Key, any](span))
}

func TestKarySpanBounds(t *testing.T) {
	for _, s := range []uint32{0, 7, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("WithSpan(%d) must panic", s)
				}
			}()
			WithSpan[keys.Uint64Key, any](s)
		}()
	}
}

// TestSpanLayout pins the fanout the digit schedule gives each node: two
// slots at span 1, 2^s at a span-s root. (The one-object allocation of
// either shape is pinned by TestLayoutSizes.)
func TestSpanLayout(t *testing.T) {
	bin := mustNew(t, 8)
	for _, k := range []uint64{3, 9, 200, 77} {
		bin.Insert(k)
	}
	var walk func(n *unode)
	walk = func(n *unode) {
		if n.isLeaf() {
			return
		}
		in := n.inner()
		if got := bin.fanout(in); got != 2 {
			t.Fatalf("span-1 internal node %v has fanout %d, want 2", n.label, got)
		}
		for j := 0; j < 2; j++ {
			if c := in.kid(j).Load(); c != nil {
				walk(c)
			}
		}
	}
	walk(bin.root.Load())

	wide := karyNew(t, 8, 4)
	if got := wide.fanout(wide.root.Load().inner()); got != 16 {
		t.Fatalf("span-4 root fanout = %d, want 16", got)
	}
	if err := wide.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestKaryRootFillAndClear drives the two update paths that exist only
// for wide nodes on the root itself, where there is no grandparent and
// the descriptor uses the root-CAS sentinel: filling an empty slot on
// insert and clearing a slot on delete (the root never contracts).
func TestKaryRootFillAndClear(t *testing.T) {
	tr := karyNew(t, 7, 4) // internal keys are 8 bits: two whole digits
	r0 := tr.root.Load()
	if live, _ := tr.census(r0.inner(), -1); live != 2 {
		t.Fatalf("fresh root has %d children, want the 2 dummies", live)
	}

	// Key 47 encodes to 0x30: first digit 3, an empty root slot.
	if !tr.Insert(47) {
		t.Fatal("Insert(47) failed")
	}
	r1 := tr.root.Load()
	if r1 == r0 {
		t.Fatal("slot fill must install a fresh root copy via the root CAS")
	}
	if c := r1.inner().kid(3).Load(); c == nil || !c.isLeaf() {
		t.Fatal("filled slot 3 must hold the new leaf")
	}
	if !tr.Contains(47) || tr.Size() != 1 {
		t.Fatal("Insert(47) not visible")
	}

	if !tr.Insert(79) { // encodes to 0x50: slot 5
		t.Fatal("Insert(79) failed")
	}
	if !tr.Delete(47) {
		t.Fatal("Delete(47) failed")
	}
	r2 := tr.root.Load()
	if r2.inner().kid(3).Load() != nil {
		t.Fatal("slot clear must leave slot 3 empty")
	}
	if tr.Contains(47) || !tr.Contains(79) || tr.Size() != 1 {
		t.Fatal("Delete(47) wrong contents")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestKaryDeepFillAndContract exercises the same paths one level down,
// where the grandparent exists, plus the digit-based contraction: a wide
// node left with exactly two children is replaced by its lone surviving
// subtree, exactly as in the binary protocol.
func TestKaryDeepFillAndContract(t *testing.T) {
	tr := karyNew(t, 7, 4)
	// 48 → 0x31 (digits 3,1) and 49 → 0x32 (digits 3,2) share the first
	// digit, so they join under an internal node with a 4-bit label.
	tr.Insert(48)
	tr.Insert(49)
	a := tr.root.Load().inner().kid(3).Load()
	if a == nil || a.isLeaf() || a.label.Len() != 4 || tr.fanout(a.inner()) != 16 {
		t.Fatalf("expected a wide internal node with a one-digit label under root slot 3")
	}

	// 62 → 0x3F (digits 3,15): an empty slot of a, with the root as gp.
	if !tr.Insert(62) {
		t.Fatal("Insert(62) failed")
	}
	b := tr.root.Load().inner().kid(3).Load()
	if b == a {
		t.Fatal("deep slot fill must swing the grandparent's child to a fresh copy")
	}
	if live, _ := tr.census(b.inner(), -1); live != 3 {
		t.Fatalf("filled node has %d children, want 3", live)
	}

	// Removing 62 brings it back to two children — but via slot clear is
	// wrong (three live before the removal means clear; two means
	// contract). First the clear...
	if !tr.Delete(62) {
		t.Fatal("Delete(62) failed")
	}
	c := tr.root.Load().inner().kid(3).Load()
	if c.isLeaf() || c.inner().kid(15).Load() != nil {
		t.Fatal("slot clear must leave a wide node with slot 15 empty")
	}
	// ...then the contraction: deleting 49 leaves 48 alone under c, and c
	// contracts into 48's leaf.
	if !tr.Delete(49) {
		t.Fatal("Delete(49) failed")
	}
	if d := tr.root.Load().inner().kid(3).Load(); d == nil || !d.isLeaf() {
		t.Fatal("two-child wide node must contract into the surviving leaf")
	}
	if !tr.Contains(48) || tr.Contains(49) || tr.Size() != 1 {
		t.Fatal("wrong contents after contraction")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestKaryReplaceShapes drives Replace through the overlap shapes that
// are new at span > 1: the replacement landing on the removed key's own
// leaf (one CAS), and the insert half ending at an empty slot of the
// removed key's parent (the fused fill+clear copy).
func TestKaryReplaceShapes(t *testing.T) {
	// ri.node == rd.node: with only 48 present, the search for 49 (0x32,
	// digits 3,2) stops at 48's leaf (0x31) under root slot 3.
	tr := karyNew(t, 7, 4)
	tr.Insert(48)
	if !tr.Replace(48, 49) {
		t.Fatal("Replace(48, 49) failed")
	}
	if tr.Contains(48) || !tr.Contains(49) || tr.Size() != 1 {
		t.Fatal("Replace(48, 49) wrong contents")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}

	// ri.p == rd.p with ri.node == nil: 79 (0x50, digit 5) routes to an
	// empty slot of the root, the same node that holds 49's leaf — one
	// copy with both the fill and the clear, one root CAS.
	if !tr.Replace(49, 79) {
		t.Fatal("Replace(49, 79) failed")
	}
	if tr.Contains(49) || !tr.Contains(79) || tr.Size() != 1 {
		t.Fatal("Replace(49, 79) wrong contents")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}

	// Disjoint halves: delete under one wide node, fill under another.
	tr2 := karyNew(t, 7, 4)
	for _, k := range []uint64{48, 49, 111, 112} { // 0x31,0x32 / 0x70,0x71
		tr2.Insert(k)
	}
	if !tr2.Replace(48, 126) { // 126 → 0x7F: empty slot 15 of the 0x7-node
		t.Fatal("Replace(48, 126) failed")
	}
	if tr2.Contains(48) || !tr2.Contains(126) || tr2.Size() != 4 {
		t.Fatal("Replace(48, 126) wrong contents")
	}
	for _, k := range []uint64{49, 111, 112} {
		if !tr2.Contains(k) {
			t.Fatalf("bystander key %d lost", k)
		}
	}
	if err := tr2.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestKarySnapshotFrozen: snapshots must freeze wide structure too —
// slot fills and clears after the snapshot go through copy-on-write and
// never disturb the captured view.
func TestKarySnapshotFrozen(t *testing.T) {
	tr := karyNew(t, 7, 4)
	for _, k := range []uint64{10, 48, 49, 100} {
		tr.Insert(k)
	}
	snap := tr.Trie.Snapshot()
	if snap.Len() != 4 {
		t.Fatalf("snapshot Len = %d, want 4", snap.Len())
	}

	tr.Delete(48)      // slot clear behind the snapshot's back
	tr.Insert(79)      // root slot fill
	tr.Replace(49, 62) // fused under the 0x3-node
	tr.Store(10, "x")  // leaf overwrite

	for _, k := range []uint64{10, 48, 49, 100} {
		if !snap.Contains(tr.enc(k)) {
			t.Errorf("snapshot lost key %d", k)
		}
	}
	for _, k := range []uint64{79, 62} {
		if snap.Contains(tr.enc(k)) {
			t.Errorf("snapshot sees post-snapshot key %d", k)
		}
	}
	if v, ok := snap.Load(tr.enc(10)); !ok || v != nil {
		t.Errorf("snapshot Load(10) = %v, %v; want nil, true", v, ok)
	}
	n := 0
	snap.AscendKV(keys.Uint64Key{}, func(keys.Uint64Key, any) bool { n++; return true })
	if n != 4 {
		t.Errorf("snapshot iteration saw %d keys, want 4", n)
	}
	for _, k := range []uint64{10, 62, 79, 100} {
		if !tr.Contains(k) {
			t.Errorf("live trie lost key %d", k)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestKaryQuickOpSequences is the random op-sequence property test at
// each wide span, at a width whose internal key length (17) is a
// multiple of none of them — every trie has partial bottom digits — and
// at wide roots over binary and k-ary levels, whose digit boundaries
// (3, 3+4, ...) are multiples of no span either.
func TestKaryQuickOpSequences(t *testing.T) {
	for _, sched := range [][2]uint32{{2, 0}, {4, 0}, {6, 0}, {1, 3}, {1, 9}, {4, 3}, {2, 5}, {4, 1}} {
		span, root := sched[0], sched[1]
		type op struct {
			Kind byte
			K    uint16
			K2   uint16
		}
		f := func(ops []op) bool {
			opts := []Option[keys.Uint64Key, any]{WithSpan[keys.Uint64Key, any](span)}
			if root != 0 {
				opts = append(opts, WithRootSpan[keys.Uint64Key, any](root))
			}
			tr := mustNew(t, 16, opts...)
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
			return tr.Validate() == nil && tr.Size() == len(oracle)
		}
		cfg := &quick.Config{
			MaxCount: 150,
			Rand:     rand.New(rand.NewSource(int64(span*16 + root))),
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Errorf("span %d, root span %d: %v", span, root, err)
		}
	}
}

// TestKaryConcurrent is the racy battery for wide nodes: goroutines
// hammer disjoint key ranges (so the final contents are deterministic)
// while a snapshotter forces generation bumps and copy-on-write renewals
// through the wide-node paths. Run under -race in CI.
func TestKaryConcurrent(t *testing.T) {
	const (
		workers = 8
		perW    = 300
	)
	tr := karyNew(t, 16, 4)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	snapDone := make(chan struct{})
	go func() {
		defer close(snapDone)
		for {
			select {
			case <-stop:
				return
			default:
				s := tr.Trie.Snapshot()
				_ = s.Len()
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w * 2048)
			for i := uint64(0); i < perW; i++ {
				tr.Insert(base + i)
			}
			for i := uint64(0); i < perW; i += 2 {
				tr.Delete(base + i)
			}
			for i := uint64(1); i < perW; i += 4 {
				// odd i: survived the deletes; move it up out of the range.
				tr.Replace(base+i, base+1024+i)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-snapDone

	for w := 0; w < workers; w++ {
		base := uint64(w * 2048)
		for i := uint64(0); i < perW; i++ {
			want := i%2 == 1 && i%4 != 1
			if got := tr.Contains(base + i); got != want {
				t.Fatalf("worker %d key %d: Contains = %v, want %v", w, i, got, want)
			}
			if i%4 == 1 {
				if !tr.Contains(base + 1024 + i) {
					t.Fatalf("worker %d replaced key %d missing", w, i)
				}
			}
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Size() != tr.Len() {
		t.Fatalf("Size %d != Len %d at quiescence", tr.Size(), tr.Len())
	}
}

// TestRootSlotHits pins the per-root-slot update counts a wide root
// keeps: every mutating search is counted once, in the slot its key's
// first digit selects, and only WithRootSpan turns the counting on.
func TestRootSlotHits(t *testing.T) {
	if hits := mustNew(t, 10).RootSlotHits(); hits != nil {
		t.Fatalf("a trie without WithRootSpan reports hits %v", hits)
	}
	// Width 10: internal keys are 11 bits, k+1 left-aligned, so the
	// 3-bit root digit of key k is (k+1) >> 8.
	tr := mustNew(t, 10, WithRootSpan[keys.Uint64Key, any](3))
	for _, k := range []uint64{0, 1, 300, 301, 302, 600} {
		tr.Insert(k)
	}
	tr.Contains(600) // reads are not counted
	tr.Replace(600, 1023)
	want := []int64{2, 3, 2, 0, 1, 0, 0, 0} // Replace searches both keys
	hits := tr.RootSlotHits()
	for i := range want {
		if hits[i] != want[i] {
			t.Fatalf("RootSlotHits = %v, want %v", hits, want)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRootSpanCrossSlotReplace is Figure 6's general case with its two
// parents under different root slots, raced: movers shuttle tokens
// between slot 0 or 1 and slot 4 of a 3-bit root while a snapshotter
// takes cuts. A cross-slot Replace neither loses nor duplicates a key:
// every snapshot — an exact cut between whole operations — holds each
// token in exactly one of its two keys, and so does the trie at
// quiescence. The snapshots also force renewals of the wide root. That
// no reader sees a state between a Replace's two child CASes is the map
// battery's linearizability check, run on an 8-shard ShardedMap.
func TestRootSpanCrossSlotReplace(t *testing.T) {
	const tokens = 64
	tr := mustNew(t, 10, WithRootSpan[keys.Uint64Key, any](3))
	// Token i lives at i (root slot 0 or 1) or at 512+i (root slot 4).
	for i := uint64(0); i < tokens; i++ {
		tr.Insert(i)
	}
	exactlyOnce := func(contains func(keys.Uint64Key) bool) error {
		c := keys.U64Codec{Width: 10}
		for i := uint64(0); i < tokens; i++ {
			a, _ := c.Encode(i)
			b, _ := c.Encode(512 + i)
			if contains(a) == contains(b) {
				return fmt.Errorf("token %d: at %d %v, at %d %v — want exactly one", i, i, contains(a), 512+i, contains(b))
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for n := 0; n < 3000; n++ {
				i := uint64(rng.Intn(tokens))
				if !tr.Replace(i, 512+i) {
					tr.Replace(512+i, i)
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	snapErr := make(chan error, 1)
	go func() {
		for cuts := 0; ; cuts++ {
			select {
			case <-stop:
				snapErr <- nil
				return
			default:
			}
			s := tr.Trie.Snapshot()
			if err := exactlyOnce(s.Contains); err != nil || s.Len() != tokens {
				snapErr <- fmt.Errorf("snapshot %d (Len %d): %v", cuts, s.Len(), err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	if err := <-snapErr; err != nil {
		t.Fatal(err)
	}
	if err := exactlyOnce(tr.Trie.Contains); err != nil {
		t.Fatal(err)
	}
	if got := tr.Len(); got != tokens {
		t.Fatalf("Len = %d, want %d", got, tokens)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}
