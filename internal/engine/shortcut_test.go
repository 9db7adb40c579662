package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"nbtrie/internal/keys"
	"nbtrie/internal/linearizable"
)

// Oracles for the live reads' shortcut table (shortcut.go). The trie they
// run on holds the even user keys below 2^14 at width 20, 2^13 keys: the
// table has 2^10 slots and its digit starts at bit 7, so each slot covers
// a block of 16 encoded keys (8 present), and its natural entry is the
// deepest internal node whose label is at most 17 bits.

// shortcutKeys is the number of keys shortcutTrie stores.
const shortcutKeys = 1 << 13

// shortcutTrie returns a trie holding the even user keys below
// 2*shortcutKeys, each bound to itself, with its table built.
func shortcutTrie(t *testing.T, opts ...Option[keys.Uint64Key, any]) testTrie {
	t.Helper()
	tr := mustNew(t, 20, opts...)
	for k := uint64(0); k < 2*shortcutKeys; k += 2 {
		tr.Store(k, k)
	}
	if sc := tr.short.Load(); sc == nil || sc.d == 0 {
		t.Fatalf("setup: %d keys built no table", shortcutKeys)
	}
	return tr
}

// slot returns the table slot of user key k.
func (tt testTrie) slot(k uint64) *atomic.Pointer[unode] {
	sc, v := tt.short.Load(), tt.enc(k)
	return &sc.slots[v.Digit(sc.pos, sc.d)]
}

// startsAtRoot reports whether a live read of k, made now, would begin
// at the root rather than at the node its slot holds.
func (tt testTrie) startsAtRoot(k uint64) bool {
	root := tt.root.Load()
	n, _, _ := tt.start(tt.enc(k), root)
	return n == root
}

// checkLoad fails the test unless a live Load of k returns want (nil for
// absent).
func checkLoad(t *testing.T, tr testTrie, k uint64, want any) {
	t.Helper()
	got, ok := tr.Load(k)
	if ok != (want != nil) || ok && got != want {
		t.Errorf("Load(%d) = %v, %v; want %v", k, got, ok, want)
	}
}

// checkSlots fails the test if any slot holds a node with an empty label:
// a root, current or swapped out by a Snapshot.
func checkSlots(t *testing.T, tr testTrie, when string) {
	t.Helper()
	sc := tr.short.Load()
	filled := 0
	for i := range sc.slots {
		if c := sc.slots[i].Load(); c != nil {
			filled++
			if c.label.Len() == 0 {
				t.Fatalf("%s: slot %d holds a node with an empty label", when, i)
			}
		}
	}
	if filled == 0 {
		t.Fatalf("%s: the reads filled no slot", when)
	}
}

// TestShortcutPoisonedSlotFallsBack: a slot holding a flagged node, a
// node whose label is not a prefix of the key, or nothing costs a read
// one start at the root and nothing else. The answer is right, and the
// read leaves the slot holding a live node the next read starts from.
func TestShortcutPoisonedSlotFallsBack(t *testing.T) {
	tr := shortcutTrie(t)

	// A flagged node: v's parent, removed by v's delete and frozen with
	// v's leaf still under it.
	const v = 200
	x := tr.searchMut(tr.lane0(), tr.enc(v)).p
	if !tr.Delete(v) || !x.info.Load().flagged() {
		t.Fatal("setup: deleting v must leave its old parent flagged")
	}
	far := tr.searchMut(tr.lane0(), tr.enc(2*shortcutKeys-2)).p
	if far.label.IsPrefixOf(tr.enc(1000)) {
		t.Fatal("setup: the far node's label is a prefix of 1000")
	}

	for _, c := range []struct {
		name   string
		k      uint64
		poison *unode
		want   any
	}{
		{"flagged node", v, x, nil},
		{"node off the key's path", 1000, far, uint64(1000)},
		{"empty slot", 1002, nil, uint64(1002)},
	} {
		tr.slot(c.k).Store(c.poison)
		if !tr.startsAtRoot(c.k) {
			t.Errorf("%s: a read of %d does not start at the root", c.name, c.k)
		}
		checkLoad(t, tr, c.k, c.want)
		if got := tr.Contains(c.k); got != (c.want != nil) {
			t.Errorf("%s: Contains(%d) = %v", c.name, c.k, got)
		}
		if tr.startsAtRoot(c.k) {
			t.Errorf("%s: the read left no usable node in the slot of %d", c.name, c.k)
		}
		checkLoad(t, tr, c.k, c.want)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestShortcutNeverCachesARoot: after reads of present keys and of
// absent keys whose path passes only the root, no slot holds a node with
// an empty label — under a binary root, under a wide root, and after a
// Snapshot swapped the root out unflagged while writers renewed under it.
func TestShortcutNeverCachesARoot(t *testing.T) {
	read := func(tr testTrie) {
		for k := uint64(0); k < 1<<20; k += 97 {
			tr.Contains(k)
		}
		for k := uint64(1<<20 - 64); k < 1<<20; k++ {
			tr.Contains(k)
		}
	}
	for _, c := range []struct {
		name string
		opts []Option[keys.Uint64Key, any]
	}{
		{"binary root", nil},
		{"wide root", []Option[keys.Uint64Key, any]{WithRootSpan[keys.Uint64Key, any](4)}},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr := shortcutTrie(t, c.opts...)
			read(tr)
			checkSlots(t, tr, "after reads")

			s := tr.Snapshot()
			defer s.Release()
			for k := uint64(0); k < 2*shortcutKeys; k += 6 {
				tr.Delete(k)
			}
			read(tr)
			checkSlots(t, tr, "after a Snapshot and renewing deletes")
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestShortcutSnapshotReadsPastTable: a held snapshot still reads the
// keys deleted from the live trie after it, while the live table points
// past them, at the renewed nodes of the live generation.
func TestShortcutSnapshotReadsPastTable(t *testing.T) {
	tr := shortcutTrie(t)
	for k := uint64(0); k < 2*shortcutKeys; k += 2 {
		tr.Contains(k)
	}
	s := tr.Snapshot()
	defer s.Release()
	for k := uint64(0); k < 2*shortcutKeys; k += 6 {
		if !tr.Delete(k) {
			t.Fatalf("Delete(%d) failed", k)
		}
	}
	for k := uint64(0); k < 2*shortcutKeys; k += 2 {
		tr.Contains(k)
	}
	g := tr.curGen()
	for k := uint64(0); k < 2*shortcutKeys; k += 6 {
		if tr.Contains(k) {
			t.Fatalf("live Contains(%d) after its delete", k)
		}
		if c := tr.slot(k).Load(); c == nil || c.gen != g || tr.startsAtRoot(k) {
			t.Fatalf("the slot of %d does not point into the live generation", k)
		}
		if v, ok := s.Load(tr.enc(k)); !ok || v != k {
			t.Fatalf("snapshot Load(%d) = %v, %v; want %d, true", k, v, ok, k)
		}
	}
}

// pairBlock sets up the staged races: of the eight keys in the slot of
// a, only a and b = a+8 stay, so their parent p has a 17-bit label, the
// slot's natural entry, and a read of a has stored it there.
func pairBlock(t *testing.T, tr testTrie, a uint64) (p *unode) {
	t.Helper()
	for k := a + 2; k < a+16; k += 2 {
		if k != a+8 && !tr.Delete(k) {
			t.Fatalf("setup: Delete(%d) failed", k)
		}
	}
	tr.Contains(a)
	p = tr.searchMut(tr.lane0(), tr.enc(a)).p
	if p.label.Len() != 17 || tr.slot(a).Load() != p {
		t.Fatalf("setup: the slot of %d does not hold its 17-bit parent", a)
	}
	return p
}

// stallOn parks the update whose first child CAS swings old out, after
// its flag CASes, until release is closed.
func stallOn(t *testing.T, old *unode) (stalled, release chan struct{}) {
	t.Helper()
	stalled, release = make(chan struct{}), make(chan struct{})
	var once atomic.Bool
	testHookAfterFlagging = func(x any) {
		if _, cas, _ := x.(*udesc).parts(); cas[0].oldChild == old && once.CompareAndSwap(false, true) {
			close(stalled)
			<-release
		}
	}
	t.Cleanup(func() { testHookAfterFlagging = nil })
	return stalled, release
}

// TestShortcutStalledContraction stalls the delete of b after it flagged
// the cached node p, which it contracts into a's leaf. Reads through the
// slot fall back to the root and return the state at the delete's
// linearization point: b present while it is parked, absent after.
func TestShortcutStalledContraction(t *testing.T) {
	tr := shortcutTrie(t)
	const a, b = 1600, 1608
	p := pairBlock(t, tr, a)
	stalled, release := stallOn(t, p)
	done := make(chan bool)
	go func() { done <- tr.Delete(b) }()
	<-stalled

	if !p.info.Load().flagged() || !tr.startsAtRoot(a) {
		t.Fatal("while the contraction is parked, a read through the slot must start at the root")
	}
	checkLoad(t, tr, a, uint64(a))
	checkLoad(t, tr, b, uint64(b))

	close(release)
	if !<-done {
		t.Fatal("Delete(b) failed")
	}
	if tr.slot(b).Load() != p || !tr.startsAtRoot(b) {
		t.Fatal("after the contraction the slot holds the removed p, and a read must start at the root")
	}
	checkLoad(t, tr, b, nil)
	checkLoad(t, tr, a, uint64(a))
	if tr.startsAtRoot(a) {
		t.Error("the read left no live node in the slot")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestShortcutStalledRenewal stalls, under a held snapshot, the renewal
// of the cached node p by an insert of c below it. Reads through the
// slot fall back while p is flagged, and after the renewal the insert is
// visible to them even though the slot still holds the old p; the
// snapshot does not see it.
func TestShortcutStalledRenewal(t *testing.T) {
	tr := shortcutTrie(t)
	const a, c = 1600, 1604
	p := pairBlock(t, tr, a)
	s := tr.Snapshot()
	defer s.Release()
	stalled, release := stallOn(t, p)
	done := make(chan bool)
	go func() { done <- tr.Insert(c) }()
	<-stalled

	if !p.info.Load().flagged() || !tr.startsAtRoot(a) {
		t.Fatal("while the renewal is parked, a read through the slot must start at the root")
	}
	checkLoad(t, tr, a, uint64(a))
	checkLoad(t, tr, c, nil)

	close(release)
	if !<-done {
		t.Fatal("Insert(c) failed")
	}
	if tr.slot(c).Load() != p || !tr.startsAtRoot(c) {
		t.Fatal("after the renewal the slot holds the old p, and a read must start at the root")
	}
	if !tr.Contains(c) || !tr.Contains(a) {
		t.Error("a live read misses a key under the renewed node")
	}
	if s.Contains(tr.enc(c)) || !s.Contains(tr.enc(a)) {
		t.Error("the snapshot moved")
	}
	if tr.startsAtRoot(c) {
		t.Error("the read left no live node in the slot")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestShortcutLinearizable records histories of four goroutines running
// Load, Insert, Delete and Replace over a few absent keys of the 2^13-key
// trie: pairs under one cached node, so their updates flag and contract
// it, and a far key, so a Replace between them is Figure 6's general
// case. Each trial takes fresh keys. Every history must linearize, and
// the Loads must have started from the table, not always from the root.
func TestShortcutLinearizable(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const (
		trials  = 40
		workers = 4
		perW    = 12
	)
	tr := shortcutTrie(t)
	var loads, fromTable atomic.Int64
	for trial := uint64(0); trial < trials; trial++ {
		// Odd, so absent: two pairs in one 16-key block, one far key.
		base := 16 * (3 + 7*trial)
		ks := [...]uint64{base + 1, base + 3, base + 9, base + 11, (base + 5001) % (2 * shortcutKeys)}
		for _, k := range ks {
			tr.Contains(k)
		}
		rec := linearizable.NewRecorder()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(seed uint64) {
				defer wg.Done()
				rng := seed*0x9e3779b97f4a7c15 + 1
				next := func(n uint64) uint64 {
					rng ^= rng << 13
					rng ^= rng >> 7
					rng ^= rng << 17
					return rng % n
				}
				for i := 0; i < perW; i++ {
					k, k2 := ks[next(uint64(len(ks)))], ks[next(uint64(len(ks)))]
					switch next(4) {
					case 0:
						rec.RecordOp(func() linearizable.Op {
							if !tr.startsAtRoot(k) {
								fromTable.Add(1)
							}
							loads.Add(1)
							v, ok := tr.Trie.Load(tr.enc(k))
							val, _ := v.(uint64)
							return linearizable.Op{Kind: linearizable.Load, Key: k, Val: val, Result: ok}
						})
					case 1:
						rec.Record(linearizable.Insert, k, 0, func() bool { return tr.Trie.InsertValue(tr.enc(k), uint64(0)) })
					case 2:
						rec.Record(linearizable.Delete, k, 0, func() bool { return tr.Delete(k) })
					case 3:
						rec.Record(linearizable.Replace, k, k2, func() bool { return tr.Replace(k, k2) })
					}
				}
			}(trial*workers + uint64(w))
		}
		wg.Wait()
		if h := rec.History(); !linearizable.Check(h) {
			t.Fatalf("trial %d: history not linearizable: %v", trial, h)
		}
		for _, k := range ks {
			tr.Delete(k)
		}
	}
	t.Logf("%d of %d Loads started from the table", fromTable.Load(), loads.Load())
	if fromTable.Load() == 0 {
		t.Fatal("no Load started from the table")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}
