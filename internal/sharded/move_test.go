package sharded

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// newMoveTrie builds the move tests' standard fixture: width 16, 8
// shards, so the top 3 bits route and the shard boundary is computable
// (0..8191 share shard 0, 8192 starts shard 1).
func newMoveTrie(t *testing.T) *Trie[string] {
	t.Helper()
	tr, err := New[string](16, 8)
	if err != nil {
		t.Fatalf("New(16, 8): %v", err)
	}
	return tr
}

func TestMoveKeySameShardIsReplace(t *testing.T) {
	tr := newMoveTrie(t)
	tr.Store(100, "v")
	moved, err := tr.MoveKey(100, 200)
	if !moved || err != nil {
		t.Fatalf("MoveKey(100, 200) = %v, %v", moved, err)
	}
	if v, ok := tr.Load(200); !ok || v != "v" {
		t.Fatalf("Load(200) = %q, %v", v, ok)
	}
	if tr.Contains(100) {
		t.Fatal("source survived a same-shard move")
	}
	if tr.PendingMoves() != 0 {
		t.Fatalf("PendingMoves = %d after same-shard move (no marker should be used)", tr.PendingMoves())
	}
}

func TestMoveKeyCrossShard(t *testing.T) {
	tr := newMoveTrie(t)
	if tr.SameShard(100, 8292) {
		t.Fatal("test premise broken: keys share a shard")
	}
	tr.Store(100, "v")
	moved, err := tr.MoveKey(100, 8292)
	if !moved || err != nil {
		t.Fatalf("MoveKey(100, 8292) = %v, %v", moved, err)
	}
	if v, ok := tr.Load(8292); !ok || v != "v" {
		t.Fatalf("Load(8292) = %q, %v", v, ok)
	}
	if tr.Contains(100) {
		t.Fatal("source survived the move")
	}
	if tr.PendingMoves() != 0 {
		t.Fatalf("PendingMoves = %d after a completed move", tr.PendingMoves())
	}
}

func TestMoveKeyRefusals(t *testing.T) {
	tr := newMoveTrie(t)
	tr.Store(100, "src")
	tr.Store(8292, "dst")

	// Absent source.
	if moved, err := tr.MoveKey(5, 8300); moved || err != nil {
		t.Fatalf("MoveKey(absent) = %v, %v", moved, err)
	}
	// Occupied destination: refused with no side effects, marker dropped.
	if moved, err := tr.MoveKey(100, 8292); moved || err != nil {
		t.Fatalf("MoveKey(occupied dest) = %v, %v", moved, err)
	}
	if v, _ := tr.Load(100); v != "src" {
		t.Fatalf("source changed by a refused move: %q", v)
	}
	if v, _ := tr.Load(8292); v != "dst" {
		t.Fatalf("destination changed by a refused move: %q", v)
	}
	if tr.PendingMoves() != 0 {
		t.Fatalf("PendingMoves = %d after a refused move", tr.PendingMoves())
	}
	// Move to self and out-of-range keys.
	if moved, err := tr.MoveKey(100, 100); moved || err != nil {
		t.Fatalf("MoveKey(self) = %v, %v", moved, err)
	}
	if moved, err := tr.MoveKey(100, 1<<16); moved || err != nil {
		t.Fatalf("MoveKey(out of range) = %v, %v", moved, err)
	}
}

// TestMoveKeyBusy exercises the per-source mutual exclusion: while one
// move of a source is between registration and completion, a second
// MoveKey of the same source fails with ErrMoveBusy instead of risking
// value duplication.
func TestMoveKeyBusy(t *testing.T) {
	tr := newMoveTrie(t)
	tr.Store(100, "v")
	var busyErr error
	tr.moveHook = func(phase int) {
		if phase == 1 {
			// In the move window: marker registered, destination not yet
			// written. A competing move of the same source must refuse.
			_, busyErr = tr.MoveKey(100, 8400)
		}
	}
	moved, err := tr.MoveKey(100, 8292)
	if !moved || err != nil {
		t.Fatalf("MoveKey = %v, %v", moved, err)
	}
	if !errors.Is(busyErr, ErrMoveBusy) {
		t.Fatalf("competing move err = %v, want ErrMoveBusy", busyErr)
	}
	if tr.Contains(8400) {
		t.Fatal("refused competing move left a destination copy")
	}
}

// TestMoveKeyConcurrentOverwriteSurvives lands a Store on the source
// inside the move window (destination inserted, source not yet
// deleted). Phase 3's value-conditional delete must leave the overwrite
// in place — the legal serialization move-then-store — instead of
// erasing an acked write so that it exists at neither key.
func TestMoveKeyConcurrentOverwriteSurvives(t *testing.T) {
	tr := newMoveTrie(t)
	tr.Store(100, "v")
	tr.moveHook = func(phase int) {
		if phase == 2 {
			tr.Store(100, "overwrite")
		}
	}
	moved, err := tr.MoveKey(100, 8292)
	if !moved || err != nil {
		t.Fatalf("MoveKey = %v, %v", moved, err)
	}
	if v, ok := tr.Load(100); !ok || v != "overwrite" {
		t.Fatalf("Load(source) = %q, %v; a mid-move overwrite must survive phase 3", v, ok)
	}
	if v, ok := tr.Load(8292); !ok || v != "v" {
		t.Fatalf("Load(dest) = %q, %v", v, ok)
	}
	if tr.PendingMoves() != 0 {
		t.Fatalf("PendingMoves = %d after a completed move", tr.PendingMoves())
	}
}

// TestMoveKeyOverwriteIdentity is the same race with []byte values and
// an equal-content overwrite: allocation identity, not content, decides
// whether phase 3 deletes — the same test the server's expiry purge
// applies, so an acked SET of identical bytes still survives.
func TestMoveKeyOverwriteIdentity(t *testing.T) {
	tr, err := New[[]byte](16, 8)
	if err != nil {
		t.Fatalf("New(16, 8): %v", err)
	}
	tr.Store(100, []byte("v"))
	tr.moveHook = func(phase int) {
		if phase == 2 {
			tr.Store(100, []byte("v")) // same bytes, fresh allocation
		}
	}
	moved, err := tr.MoveKey(100, 8292)
	if !moved || err != nil {
		t.Fatalf("MoveKey = %v, %v", moved, err)
	}
	if v, ok := tr.Load(100); !ok || string(v) != "v" {
		t.Fatalf("Load(source) = %q, %v; an equal-content overwrite must survive phase 3", v, ok)
	}
	if v, ok := tr.Load(8292); !ok || string(v) != "v" {
		t.Fatalf("Load(dest) = %q, %v", v, ok)
	}
}

// TestMoveKeyStructValues: a struct value that holds a slice — nbtried's
// {bytes, deadline} leaf — is not comparable, so phase 3's identity test
// compares it field by field. The moved value must leave the source,
// and an overwrite of the source mid-move that differs in either field
// must survive there.
func TestMoveKeyStructValues(t *testing.T) {
	type value struct {
		b  []byte
		at uint64
	}
	tr, err := New[value](16, 8)
	if err != nil {
		t.Fatalf("New(16, 8): %v", err)
	}
	tr.Store(100, value{[]byte("v"), 7})
	if moved, err := tr.MoveKey(100, 8292); !moved || err != nil {
		t.Fatalf("MoveKey = %v, %v", moved, err)
	}
	if tr.Contains(100) {
		t.Fatal("a struct value moved but stayed at the source")
	}
	if v, ok := tr.Load(8292); !ok || string(v.b) != "v" || v.at != 7 {
		t.Fatalf("Load(dest) = %+v, %v", v, ok)
	}

	for name, overwrite := range map[string]func(v value) value{
		"new bytes":    func(v value) value { return value{[]byte("v"), v.at} },
		"new deadline": func(v value) value { return value{v.b, v.at + 1} },
	} {
		tr.Store(200, value{[]byte("v"), 7})
		tr.moveHook = func(phase int) {
			if phase == 2 {
				v, _ := tr.Load(200)
				tr.Store(200, overwrite(v))
			}
		}
		if moved, err := tr.MoveKey(200, 8392); !moved || err != nil {
			t.Fatalf("%s: MoveKey = %v, %v", name, moved, err)
		}
		tr.moveHook = nil
		if !tr.Contains(200) {
			t.Fatalf("%s: an overwrite of the source mid-move was deleted by phase 3", name)
		}
		tr.Delete(200)
		tr.Delete(8392)
	}
}

// TestMoveKeyCrashAfterInsert kills the mover (simulated with a hook
// panic) between phase 2 (destination inserted) and phase 3 (source
// deleted): both copies exist, the marker records the move, and
// ResolveMoves completes it — destination kept, source deleted.
func TestMoveKeyCrashAfterInsert(t *testing.T) {
	tr := newMoveTrie(t)
	tr.Store(100, "v")
	tr.moveHook = func(phase int) {
		if phase == 2 {
			panic("simulated mover death after destination insert")
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("hook did not fire")
			}
		}()
		tr.MoveKey(100, 8292)
	}()
	tr.moveHook = nil

	// The interrupted state: at-least-one-copy held as both copies.
	if !tr.Contains(100) || !tr.Contains(8292) {
		t.Fatalf("interrupted move: source=%v dest=%v, want both", tr.Contains(100), tr.Contains(8292))
	}
	if tr.PendingMoves() != 1 {
		t.Fatalf("PendingMoves = %d, want 1 marker", tr.PendingMoves())
	}
	if n := tr.ResolveMoves(); n != 1 {
		t.Fatalf("ResolveMoves = %d, want 1 completed", n)
	}
	if tr.Contains(100) {
		t.Fatal("ResolveMoves kept the source of a committed move")
	}
	if v, ok := tr.Load(8292); !ok || v != "v" {
		t.Fatalf("Load(8292) after resolve = %q, %v", v, ok)
	}
	if tr.PendingMoves() != 0 {
		t.Fatal("marker survived ResolveMoves")
	}
}

// TestMoveKeyCrashBeforeInsert kills the mover between registration and
// the destination insert: the move never became visible, so
// ResolveMoves abandons it — source intact, marker dropped.
func TestMoveKeyCrashBeforeInsert(t *testing.T) {
	tr := newMoveTrie(t)
	tr.Store(100, "v")
	tr.moveHook = func(phase int) {
		if phase == 1 {
			panic("simulated mover death before destination insert")
		}
	}
	func() {
		defer func() { recover() }()
		tr.MoveKey(100, 8292)
	}()
	tr.moveHook = nil

	if tr.Contains(8292) {
		t.Fatal("destination exists though the mover died before inserting")
	}
	if tr.PendingMoves() != 1 {
		t.Fatalf("PendingMoves = %d, want 1 marker", tr.PendingMoves())
	}
	if n := tr.ResolveMoves(); n != 0 {
		t.Fatalf("ResolveMoves = %d, want 0 (abandoned, not completed)", n)
	}
	if v, ok := tr.Load(100); !ok || v != "v" {
		t.Fatalf("abandoned move lost the source: %q, %v", v, ok)
	}
	if tr.PendingMoves() != 0 {
		t.Fatal("marker survived ResolveMoves")
	}
}

// TestMoveKeyReaderWindow pins the mover at each phase boundary (via
// the hook) and probes the map from outside: before the destination
// insert the value is only at the source, between insert and delete a
// reader sees BOTH copies — the documented at-least-one-copy guarantee,
// observed deterministically at the exact instants it is weakest.
func TestMoveKeyReaderWindow(t *testing.T) {
	tr := newMoveTrie(t)
	tr.Store(100, "v")
	entered := make(chan int)
	release := make(chan struct{})
	tr.moveHook = func(phase int) {
		entered <- phase
		<-release
	}
	done := make(chan struct{})
	var moved bool
	var err error
	go func() {
		defer close(done)
		moved, err = tr.MoveKey(100, 8292)
	}()

	// Phase 1: marker registered, destination not yet inserted.
	if p := <-entered; p != 1 {
		t.Fatalf("first hook phase = %d", p)
	}
	if !tr.Contains(100) || tr.Contains(8292) {
		t.Fatalf("phase 1: source=%v dest=%v, want value only at source",
			tr.Contains(100), tr.Contains(8292))
	}
	if tr.PendingMoves() != 1 {
		t.Fatalf("phase 1: PendingMoves = %d", tr.PendingMoves())
	}
	release <- struct{}{}

	// Phase 2: destination inserted, source not yet deleted — the window
	// a concurrent reader can see both copies in, never neither.
	if p := <-entered; p != 2 {
		t.Fatalf("second hook phase = %d", p)
	}
	va, oka := tr.Load(100)
	vb, okb := tr.Load(8292)
	if !oka || !okb || va != "v" || vb != "v" {
		t.Fatalf("phase 2: source=(%q,%v) dest=(%q,%v), want both copies",
			va, oka, vb, okb)
	}
	release <- struct{}{}

	<-done
	if !moved || err != nil {
		t.Fatalf("MoveKey = %v, %v", moved, err)
	}
	if tr.Contains(100) || !tr.Contains(8292) {
		t.Fatalf("after move: source=%v dest=%v", tr.Contains(100), tr.Contains(8292))
	}
}

// TestMoveKeyNeverLost ping-pongs a value between two cross-shard keys
// under concurrent readers. A reader that misses both keys retries; a
// value actually LOST by the protocol would miss forever, which is what
// the bounded retry detects (transient double-misses are expected — a
// whole move can complete between a reader's two probes).
func TestMoveKeyNeverLost(t *testing.T) {
	tr := newMoveTrie(t)
	const a, b = uint64(100), uint64(8292)
	tr.Store(a, "v")

	var stop atomic.Bool
	var lost atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				found := false
				for probe := 0; probe < 200 && !found; probe++ {
					found = tr.Contains(a) || tr.Contains(b)
				}
				if !found {
					lost.Add(1)
					return
				}
			}
		}()
	}
	from, to := a, b
	for i := 0; i < 3000; i++ {
		moved, err := tr.MoveKey(from, to)
		if !moved || err != nil {
			t.Fatalf("iteration %d: MoveKey(%d, %d) = %v, %v", i, from, to, moved, err)
		}
		from, to = to, from
	}
	stop.Store(true)
	wg.Wait()
	if n := lost.Load(); n != 0 {
		t.Fatalf("%d readers found the value at neither key for 200 consecutive probe pairs", n)
	}
	if v, ok := tr.Load(from); !ok || v != "v" {
		t.Fatalf("final Load(%d) = %q, %v", from, v, ok)
	}
	if tr.Contains(to) {
		t.Fatalf("value duplicated: both %d and %d exist after the last move", from, to)
	}
}
