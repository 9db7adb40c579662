package engine

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"nbtrie/internal/keys"
)

// Failure-injection tests: a process is stalled right after planting its
// flags — the paper's "if an operation dies while nodes are flagged for
// it, other processes can complete the operation and remove the flags".
// These tests prove the helping path deterministically, not just under
// racy stress. They run here, against the shared engine, once for every
// instantiation in the repository.

// stallFirst installs a hook that blocks the first process to finish
// flagging (simulating a crash) and lets every later caller — the
// helpers — pass through. It returns (stalled, release): stalled is
// signalled once the victim is parked; closing release revives it.
func stallFirst(t *testing.T) (stalled chan *udesc, release chan struct{}) {
	t.Helper()
	stalled = make(chan *udesc, 1)
	release = make(chan struct{})
	var once atomic.Bool
	testHookAfterFlagging = func(d any) {
		if once.CompareAndSwap(false, true) {
			stalled <- d.(*udesc)
			<-release
		}
	}
	t.Cleanup(func() { testHookAfterFlagging = nil })
	return stalled, release
}

// TestHelperCompletesStalledInsert stalls an Insert after flagging; a
// second operation needing the same node must complete the stalled
// insert (its key appears!) before performing its own.
func TestHelperCompletesStalledInsert(t *testing.T) {
	tr := mustNew(t, 8)
	tr.Insert(100)
	stalled, release := stallFirst(t)

	done := make(chan bool)
	go func() { done <- tr.Insert(101) }()
	<-stalled // the inserter is parked with its flags planted

	// 101's leaf is not linked yet: the stalled process never performed
	// its child CAS. A search must not find it...
	if tr.Contains(101) {
		t.Fatal("stalled insert must not be visible before any helper runs")
	}
	// ...but an update that needs the flagged parent must help first.
	// 100 and 101 share a parent, so Insert(102) (same 8-bit prefix
	// region) collides with the planted flag and helps.
	if !tr.Insert(102) {
		t.Fatal("helper insert failed")
	}
	if !tr.Contains(101) {
		t.Fatal("helper must have completed the stalled insert's child CAS")
	}
	if !tr.Contains(102) {
		t.Fatal("helper's own insert lost")
	}

	close(release)
	if !<-done {
		t.Fatal("stalled inserter must still report success")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := tr.Size(); got != 3 {
		t.Fatalf("Size() = %d, want 3", got)
	}
}

// TestHelperCompletesStalledReplace stalls a general-case Replace after
// it flagged four nodes; the helper must then perform BOTH child CASes —
// the old key vanishes and the new key appears atomically even though
// the original process is dead to the world.
func TestHelperCompletesStalledReplace(t *testing.T) {
	tr := mustNew(t, 12)
	tr.Insert(100)  // vd, left region
	tr.Insert(101)  // vd's sibling-ish neighbour (gives vd a grandparent)
	tr.Insert(3000) // far region so the replace takes the general case
	tr.Insert(3001)
	stalled, release := stallFirst(t)

	done := make(chan bool)
	go func() { done <- tr.Replace(100, 3002) }()
	d := <-stalled
	if _, _, rmvLeaf := d.parts(); rmvLeaf == nil {
		t.Fatalf("expected the stall to catch a general-case replace (rmvLeaf set)")
	}

	// An update near the insertion point runs into the flags and helps.
	if !tr.Insert(3003) {
		t.Fatal("helper insert failed")
	}
	if tr.Contains(100) {
		t.Fatal("helper must have completed the replace's delete half")
	}
	if !tr.Contains(3002) {
		t.Fatal("helper must have completed the replace's insert half")
	}

	close(release)
	if !<-done {
		t.Fatal("stalled replacer must still report success")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, k := range []uint64{101, 3000, 3001, 3002, 3003} {
		if !tr.Contains(k) {
			t.Fatalf("key %d lost", k)
		}
	}
}

// carries reports whether d installs the leaf k: as a new child, or as a
// direct child of one (an insert's joining node).
func carries(d *udesc, k keys.Uint64Key) bool {
	_, cas, _ := d.parts()
	for _, e := range cas {
		c := e.newChild
		if c.isLeaf() {
			if c.label.Equal(k) {
				return true
			}
			continue
		}
		in := c.inner()
		for s := 0; s < in.fanout(); s++ {
			if x := in.kid(s).Load(); x != nil && x.isLeaf() && x.label.Equal(k) {
				return true
			}
		}
	}
	return false
}

// TestSnapshotDrainsParkedUpdater pins the gate's blocking, exactly:
// updaters never wait on each other, a Snapshot waits for the updaters in
// flight, and an updater waits only for a Snapshot in progress. Updater A
// is parked after its flag CAS; B, on a disjoint key, completes anyway; a
// Snapshot from C does not return while A is parked; D, started once C is
// pending, does not return before C. Released, A lands in C's snapshot
// and D does not.
func TestSnapshotDrainsParkedUpdater(t *testing.T) {
	tr := mustNew(t, 16)
	for _, k := range []uint64{100, 40000} {
		tr.Insert(k)
	}
	const a, b, d = 101, 40001, 50001
	parked, release := make(chan struct{}), make(chan struct{})
	var once atomic.Bool
	testHookAfterFlagging = func(x any) {
		if carries(x.(*udesc), tr.enc(a)) && once.CompareAndSwap(false, true) {
			close(parked)
			<-release
		}
	}
	defer func() { testHookAfterFlagging = nil }()
	wait := func(c <-chan bool, what string) bool {
		select {
		case ok := <-c:
			return ok
		case <-time.After(5 * time.Second):
			t.Fatalf("%s did not return", what)
			return false
		}
	}

	doneA := make(chan bool, 1)
	go func() { doneA <- tr.Insert(a) }()
	<-parked

	doneB := make(chan bool, 1)
	go func() { doneB <- tr.Insert(b) }()
	if !wait(doneB, "updater B, on a disjoint key, while A is parked,") {
		t.Fatal("Insert(B) = false")
	}

	snapC := make(chan *Snapshot[keys.Uint64Key, any], 1)
	go func() { snapC <- tr.Snapshot() }()
	for deadline := time.Now().Add(5 * time.Second); !tr.gate.pending.Load(); runtime.Gosched() {
		select {
		case <-snapC:
			t.Fatal("Snapshot returned while updater A was parked inside the gate")
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("Snapshot never raised pending")
		}
	}

	doneD := make(chan bool, 1)
	go func() { doneD <- tr.Insert(d) }()
	select {
	case <-snapC:
		t.Fatal("Snapshot returned while updater A was parked inside the gate")
	case <-doneD:
		t.Fatal("updater D returned while the Snapshot it started behind was pending")
	case <-time.After(100 * time.Millisecond):
	}
	if tr.Contains(d) {
		t.Fatal("updater D took effect while the Snapshot it started behind was pending")
	}

	close(release)
	var s *Snapshot[keys.Uint64Key, any]
	select {
	case s = <-snapC:
	case <-time.After(5 * time.Second):
		t.Fatal("Snapshot did not return once A was released")
	}
	if !wait(doneA, "updater A, released,") || !wait(doneD, "updater D") {
		t.Fatal("Insert(A) or Insert(D) = false")
	}

	for k, want := range map[uint64]bool{100: true, 40000: true, a: true, b: true, d: false} {
		if got := s.Contains(tr.enc(k)); got != want {
			t.Errorf("C's snapshot Contains(%d) = %v, want %v", k, got, want)
		}
	}
	if s.Len() != 4 {
		t.Errorf("C's snapshot Len() = %d, want 4", s.Len())
	}
	if !tr.Contains(d) || tr.gate.inflight() != 0 {
		t.Errorf("after the run: Contains(D) = %v, in flight %d", tr.Contains(d), tr.gate.inflight())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderNeverBlocksOnStalledUpdate pins the wait-free find claim: a
// search crossing flagged nodes completes immediately, without helping
// and without waiting for the stalled updater.
func TestReaderNeverBlocksOnStalledUpdate(t *testing.T) {
	tr := mustNew(t, 8)
	tr.Insert(100)
	stalled, release := stallFirst(t)

	done := make(chan bool)
	go func() { done <- tr.Insert(101) }()
	<-stalled

	finished := make(chan struct{})
	go func() {
		for k := uint64(0); k < 256; k++ {
			tr.Contains(k)
		}
		close(finished)
	}()
	select {
	case <-finished:
		// Searches sailed straight through the planted flags.
	case <-time.After(5 * time.Second):
		t.Fatal("wait-free search blocked behind a stalled update")
	}

	close(release)
	<-done
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestLoadPerformsNoCAS verifies the wait-free read path: with an update
// stalled mid-protocol (flags planted, child CASes pending), Load must
// complete, never help, and leave every info field exactly as it found
// it — and it must not allocate.
func TestLoadPerformsNoCAS(t *testing.T) {
	tr := mustNew(t, 8)
	tr.Store(10, "ten")
	tr.Store(20, "twenty")

	entered := make(chan *udesc, 1)
	release := make(chan struct{})
	testHookAfterFlagging = func(d any) {
		entered <- d.(*udesc)
		<-release
	}
	defer func() { testHookAfterFlagging = nil }()

	done := make(chan struct{})
	go func() {
		defer close(done)
		tr.Insert(21) // stalls after its flag CASes succeed
	}()
	d := <-entered

	// The stalled insert is not yet linearized (no child CAS): 21 absent.
	if _, ok := tr.Load(21); ok {
		t.Error("Load observed an update before its linearization point")
	}
	if v, ok := tr.Load(10); !ok || v != "ten" {
		t.Errorf("Load(10) = %v,%v under a stalled update", v, ok)
	}
	if v, ok := tr.Load(20); !ok || v != "twenty" {
		t.Errorf("Load(20) = %v,%v under a stalled update", v, ok)
	}

	// Load must not have helped: every node the stalled update flagged
	// still carries its descriptor (a CAS-ing reader would have completed
	// the child swaps or unflagged them).
	flag, _, _ := d.parts()
	for _, f := range flag {
		if f.n.info.Load() != &d.hdr {
			t.Error("a flag planted by the stalled update was changed by Load")
		}
	}

	// And it must not allocate: the returned value is the leaf's already-
	// boxed payload.
	if n := testing.AllocsPerRun(200, func() {
		if _, ok := tr.Load(10); !ok {
			t.Fatal("Load(10) missed")
		}
	}); n != 0 {
		t.Errorf("Load allocates %v objects per call, want 0", n)
	}

	close(release)
	<-done
	if v, ok := tr.Load(21); !ok || v != nil {
		t.Errorf("Load(21) after release = %v,%v", v, ok)
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
}
