package engine

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nbtrie/internal/keys"
	"nbtrie/internal/linearizable"
)

// Oracles for the live descents' shortcut table (shortcut.go). The trie they
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
	root, v := tt.root.Load(), tt.enc(k)
	n, _, _ := tt.start(tt.short.Load(), v, v.Len(), root)
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

// shortDescents returns how many mutator descents so far walked at most
// seven levels. On the tries below, a descent from the root walks at
// least eight levels before it passes the level the table caches, and
// one from the table at most five, so a short one started from the
// table.
func shortDescents(tr testTrie) int64 {
	var n int64
	d := tr.StatsSnapshot().Depth
	for _, c := range d.Buckets[:4] {
		n += c
	}
	return n
}

// TestShortcutDeleteChildOfCachedNode deletes b, a leaf directly under
// the cached node p. Its descent from p ends with p as the parent, but
// the contraction of p into a's leaf swings p's own parent, which the
// table does not record: the descent must start over from the root once.
// Without that it retries forever on the root-CAS sentinel, and so would
// the writers of every later test: past the delete's deadline the test
// binary panics, and the test runs first of the Shortcut tests.
func TestShortcutDeleteChildOfCachedNode(t *testing.T) {
	tr := shortcutTrie(t)
	const a, b = 1600, 1608
	p := pairBlock(t, tr, a)
	if tr.startsAtRoot(b) {
		t.Fatal("setup: a descent of b does not start at the cached p")
	}
	done := make(chan bool, 1)
	go func() { done <- tr.Delete(b) }()
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("Delete(b) failed")
		}
	case <-time.After(10 * time.Second):
		panic("TestShortcutDeleteChildOfCachedNode: Delete(b) under the cached node did not return in 10 s; its descent never learned p's parent")
	}
	if !flagged(p.info.Load()) {
		t.Error("the contracted p is not flagged")
	}
	checkLoad(t, tr, b, nil)
	checkLoad(t, tr, a, uint64(a))
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
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
	if !tr.Delete(v) || !flagged(x.info.Load()) {
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
		{"wide root", []Option[keys.Uint64Key, any]{WithSpan[keys.Uint64Key, any](4)}},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr := shortcutTrie(t, c.opts...)
			read(tr)
			checkSlots(t, tr, "after reads")

			tr.Snapshot()
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

	if !flagged(p.info.Load()) || !tr.startsAtRoot(a) {
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

// TestShortcutStalledRenewal stalls, after a Snapshot, the renewal
// of the cached node p by an insert of c below it. The insert does not
// start at the stale p; it renews p from the root. Reads through the
// slot fall back while p is flagged. After the renewal the insert has
// stored p's live renewed copy into the slot, reads start there and see
// c, and the snapshot does not.
func TestShortcutStalledRenewal(t *testing.T) {
	tr := shortcutTrie(t)
	const a, c = 1600, 1604
	p := pairBlock(t, tr, a)
	s := tr.Snapshot()
	stalled, release := stallOn(t, p)
	done := make(chan bool)
	go func() { done <- tr.Insert(c) }()
	<-stalled

	if !flagged(p.info.Load()) || !tr.startsAtRoot(a) {
		t.Fatal("while the renewal is parked, a read through the slot must start at the root")
	}
	checkLoad(t, tr, a, uint64(a))
	checkLoad(t, tr, c, nil)

	close(release)
	if !<-done {
		t.Fatal("Insert(c) failed")
	}
	if r := tr.slot(c).Load(); r == p || r == nil || r.gen != tr.curGen() || !r.label.Equal(p.label) ||
		flagged(r.info.Load()) || tr.startsAtRoot(c) {
		t.Fatal("after the renewal the slot must hold p's live renewed copy, and a read must start there")
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
// both the Loads and the writers must have started from the table, not
// always from the root.
func TestShortcutLinearizable(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const (
		trials  = 40
		workers = 4
		perW    = 12
	)
	tr := shortcutTrie(t)
	short0 := shortDescents(tr)
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
						rec.Record(linearizable.Insert, k, 0, func() bool { _, loaded := tr.Trie.LoadOrStore(tr.enc(k), uint64(0)); return !loaded })
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
	writes := shortDescents(tr) - short0
	t.Logf("%d of %d Loads and %d writer descents started from the table", fromTable.Load(), loads.Load(), writes)
	if fromTable.Load() == 0 {
		t.Fatal("no Load started from the table")
	}
	if writes == 0 {
		t.Fatal("no writer started from the table")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// fig6Case names the Replace case that replaceAt takes for the positions
// rd (of the removed key) and ri (of the inserted one).
func fig6Case(rd, ri searchResult[keys.Uint64Key, any]) string {
	switch {
	case ri.node == rd.node:
		return "case 1"
	case ri.node == rd.p && ri.p == rd.gp:
		return "case 2"
	case ri.p == rd.p:
		return "case 3"
	case ri.node == rd.gp:
		return "case 4"
	}
	return "general"
}

// TestShortcutReplaceFigure6 runs Replace from cached starts in each of
// Figure 6's cases. The block of a is cut down to the keys each case
// needs, so both keys sit under one cached node (the fused cases, some
// with the gp fallback) or under two (the general case). Each Replace
// must move the value and leave a valid trie, and concurrent Replaces
// back and forth from that shape, beside Loads, must linearize.
func TestShortcutReplaceFigure6(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const a = 1600
	for _, c := range []struct {
		want   string
		keep   []uint64 // the keys of a's 16-key block left in place
		vd, vi uint64
		// short is how many of the two descents stay below their cached
		// start; the others end with p at the start and fall back.
		short int64
	}{
		// a and a+8 under the 17-bit p: a+2 lands on a's leaf.
		{"case 1", []uint64{a, a + 8}, a, a + 2, 0},
		// a and a+2 under q (19 bits) under p: a+4 diverges at q.
		{"case 2", []uint64{a, a + 2, a + 8}, a, a + 4, 1},
		// The same shape: a+8 sits beside q, and a+4 lands at q.
		{"case 3", []uint64{a, a + 2, a + 8}, a + 8, a + 4, 0},
		// No 17-bit node: the slot holds the 16-bit one, and a+8
		// diverges at a's grandparent (18 bits).
		{"case 4", []uint64{a, a + 2, a + 4}, a, a + 8, 1},
		// a and a far key: two cached nodes.
		{"general", []uint64{a, a + 2, a + 8}, a, 5001, 2},
	} {
		t.Run(c.want, func(t *testing.T) {
			tr := shortcutTrie(t)
			for k := uint64(a); k < a+16; k += 2 {
				if !slices.Contains(c.keep, k) && !tr.Delete(k) {
					t.Fatalf("setup: Delete(%d) failed", k)
				}
			}
			for _, k := range c.keep {
				tr.Contains(k)
			}
			tr.Contains(c.vi)
			if tr.startsAtRoot(c.vd) || tr.startsAtRoot(c.vi) {
				t.Fatal("setup: a descent does not start from the table")
			}
			rd, ri := tr.searchMut(tr.lane0(), tr.enc(c.vd)), tr.searchMut(tr.lane0(), tr.enc(c.vi))
			if got := fig6Case(rd, ri); got != c.want {
				t.Fatalf("setup: Replace(%d, %d) takes %s", c.vd, c.vi, got)
			}
			short0 := shortDescents(tr)
			if !tr.Replace(c.vd, c.vi) {
				t.Fatalf("Replace(%d, %d) failed", c.vd, c.vi)
			}
			if got := shortDescents(tr) - short0; got != c.short {
				t.Errorf("%d of the Replace's descents stayed below the table, want %d", got, c.short)
			}
			checkLoad(t, tr, c.vd, nil)
			checkLoad(t, tr, c.vi, c.vd)
			for _, k := range c.keep {
				if k != c.vd {
					checkLoad(t, tr, k, k)
				}
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}

			for round := 0; round < 10; round++ {
				// Back to the case's shape, outside the history, which
				// then opens with a Store that binds the value again.
				tr.Replace(c.vi, c.vd)
				rec := linearizable.NewRecorder()
				rec.RecordOp(func() linearizable.Op {
					tr.Store(c.vd, c.vd)
					return linearizable.Op{Kind: linearizable.Store, Key: c.vd, Val: c.vd, Result: true}
				})
				var wg sync.WaitGroup
				for w := 0; w < 3; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for i := 0; i < 8; i++ {
							from, to := c.vd, c.vi
							if (i+w)%2 == 1 {
								from, to = to, from
							}
							if (i+round)%3 == 2 {
								rec.RecordOp(func() linearizable.Op {
									v, ok := tr.Load(from)
									val, _ := v.(uint64)
									return linearizable.Op{Kind: linearizable.Load, Key: from, Val: val, Result: ok}
								})
								continue
							}
							rec.Record(linearizable.Replace, from, to, func() bool { return tr.Replace(from, to) })
						}
					}(w)
				}
				wg.Wait()
				if h := rec.History(); !linearizable.Check(h) {
					t.Fatalf("round %d: history not linearizable: %v", round, h)
				}
				if err := tr.Validate(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestShortcutWideRootCrossSlotReplace moves 64 tokens between root
// slots 0 and 4 of a span-4 trie whose 2^13 keys span the key space, so
// the table indexes from bit 1 and caches 8-bit nodes. Four
// writers Replace from cached starts while snapshots come and go, so
// the descents run both on stale starts, which fall back to the root,
// and on starts renewed since the last snapshot. Every snapshot and the
// final trie hold each token exactly once.
func TestShortcutWideRootCrossSlotReplace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const tokens = 64
	tr := mustNew(t, 20, WithSpan[keys.Uint64Key, any](4))
	for i := uint64(0); i < 1<<13; i++ {
		tr.Store(i<<7, i)
	}
	if sc := tr.short.Load(); sc == nil || sc.d == 0 || sc.pos != 1 {
		t.Fatal("setup: no table indexed from bit 1")
	}
	// Token i lives at lo(i), in root slot 0, or at hi(i), in root slot 4:
	// both absent from the base keys, both under a cached node.
	lo := func(i uint64) uint64 { return i<<7 + 64 }
	hi := func(i uint64) uint64 { return 1<<19 + i<<7 + 64 }
	for i := uint64(0); i < tokens; i++ {
		tr.Store(lo(i), i)
		tr.Contains(lo(i))
		tr.Contains(hi(i))
		if tr.startsAtRoot(lo(i)) || tr.startsAtRoot(hi(i)) {
			t.Fatalf("setup: token %d does not start from the table", i)
		}
	}
	if s0, s1 := tr.slotOf(tr.enc(lo(0)), 0), tr.slotOf(tr.enc(hi(0)), 0); s0 != 0 || s1 != 4 {
		t.Fatalf("setup: tokens in root slots %d and %d", s0, s1)
	}
	exactlyOnce := func(load func(keys.Uint64Key) (any, bool)) error {
		for i := uint64(0); i < tokens; i++ {
			va, okA := load(tr.enc(lo(i)))
			vb, okB := load(tr.enc(hi(i)))
			if okA == okB || okA && va != i || okB && vb != i {
				return fmt.Errorf("token %d: at lo %v %v, at hi %v %v; want it once", i, va, okA, vb, okB)
			}
		}
		return nil
	}

	short0 := shortDescents(tr)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w uint64) {
			defer wg.Done()
			for n := uint64(0); n < 2000; n++ {
				i := (n*7 + w*13) % tokens
				if !tr.Replace(lo(i), hi(i)) {
					tr.Replace(hi(i), lo(i))
				}
			}
		}(uint64(w))
	}
	stop := make(chan struct{})
	snapErr := make(chan error, 1)
	go func() {
		for cut := 0; ; cut++ {
			select {
			case <-stop:
				snapErr <- nil
				return
			default:
			}
			s := tr.Snapshot()
			if err := exactlyOnce(s.Load); err != nil {
				snapErr <- fmt.Errorf("snapshot %d: %v", cut, err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	close(stop)
	if err := <-snapErr; err != nil {
		t.Fatal(err)
	}
	if err := exactlyOnce(tr.Trie.Load); err != nil {
		t.Fatal(err)
	}
	writes := shortDescents(tr) - short0
	t.Logf("%d writer descents started from the table", writes)
	if writes == 0 {
		t.Fatal("no writer started from the table")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}
