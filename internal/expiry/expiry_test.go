package expiry

import (
	"bytes"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// testClock is a hand-driven millisecond clock.
type testClock struct{ ms atomic.Int64 }

func (c *testClock) now() int64 { return c.ms.Load() }

func newIndex(t testing.TB) (*Index, *testClock) {
	t.Helper()
	clk := &testClock{}
	x, err := New(16, 4, WithClock(clk.now))
	if err != nil {
		t.Fatalf("New(16, 4): %v", err)
	}
	return x, clk
}

// deadline returns k's raw deadline: 0 when k is unarmed or absent.
func deadline(x *Index, k uint64) int64 {
	v, _ := x.db.Load(k)
	return v.DeadlineMS()
}

// TestValueLeafSize pins the leaf: a 32 B engine header plus a 32 B
// Value is exactly the 64 B size class a []byte leaf (56 B) already
// spends, so moving the deadline into the leaf costs unarmed keys nothing.
func TestValueLeafSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Errorf("Value is %d B, want 32 (a []byte header and one uint64)", got)
	}
}

func TestSetLookupClear(t *testing.T) {
	x, _ := newIndex(t)
	if x.Set(7, 1000) {
		t.Fatal("Set armed an absent key")
	}
	if x.ArmedKeys() != 0 {
		t.Fatalf("a refused Set left %d nodes", x.ArmedKeys())
	}
	x.Store(7, []byte("v"))
	if v, ok := x.Lookup(7); !ok || v.At != 0 || string(v.B) != "v" {
		t.Fatalf("Lookup after Store = %+v, %v", v, ok)
	}
	if !x.Set(7, 1000) {
		t.Fatal("Set refused a present key")
	}
	v, ok := x.Lookup(7)
	if !ok || v.DeadlineMS() != 1000 || string(v.B) != "v" {
		t.Fatalf("Lookup = %+v, %v; want v armed at 1000", v, ok)
	}
	// Re-arm: the new arming replaces the old, old node cleaned up.
	x.Set(7, 2000)
	if got := deadline(x, 7); got != 2000 {
		t.Fatalf("deadline after re-arm = %d, want 2000", got)
	}
	if d, ok := x.earliest(); !ok || d != 2000 || x.ArmedKeys() != 1 {
		t.Fatalf("Earliest after re-arm = %d, %v with %d nodes (stale node survived?)", d, ok, x.ArmedKeys())
	}
	if !x.Persist(7) {
		t.Fatal("Persist found nothing")
	}
	if x.Persist(7) {
		t.Fatal("second Persist succeeded")
	}
	if _, ok := x.earliest(); ok {
		t.Fatal("Earliest nonempty after Persist")
	}
	if b, ok := x.Load(7); !ok || string(b) != "v" {
		t.Fatalf("Persist lost the value: %q, %v", b, ok)
	}
	// SETEX, then SET and DEL each retire the arming with the value.
	x.StoreDeadline(7, []byte("w"), 3000)
	x.Store(7, []byte("u"))
	if deadline(x, 7) != 0 || x.ArmedKeys() != 0 {
		t.Fatalf("Store kept the arming: deadline %d, %d nodes", deadline(x, 7), x.ArmedKeys())
	}
	x.StoreDeadline(7, []byte("w"), 3000)
	if !x.Delete(7) || x.ArmedKeys() != 0 || x.Len() != 0 {
		t.Fatalf("Delete left %d nodes, %d keys", x.ArmedKeys(), x.Len())
	}
}

// TestRemoveIsConditional: a purge removes a key only while its leaf
// still holds the arming that fell due. The purge of a superseded arming
// is a no-op, however far past its deadline.
func TestRemoveIsConditional(t *testing.T) {
	x, _ := newIndex(t)
	x.StoreDeadline(3, []byte("v"), 100)
	v1, _ := x.db.Load(3)
	x.Set(3, 200) // v1.At is now a superseded arming
	if x.purge(3, v1.At) {
		t.Fatal("purge succeeded with a superseded arming")
	}
	v2, ok := x.db.Load(3)
	if !ok || v2.DeadlineMS() != 200 {
		t.Fatalf("stale purge disturbed the live arming: %+v, %v", v2, ok)
	}
	if !x.purge(3, v2.At) {
		t.Fatal("purge of the live arming failed")
	}
	if _, ok := x.db.Load(3); ok || x.ArmedKeys() != 0 {
		t.Fatalf("key or node survived its purge (%d nodes)", x.ArmedKeys())
	}
}

func TestEarliestOrdering(t *testing.T) {
	x, _ := newIndex(t)
	x.StoreDeadline(1, nil, 500)
	x.StoreDeadline(2, nil, 100)
	x.StoreDeadline(3, nil, 900)
	if d, ok := x.earliest(); !ok || d != 100 {
		t.Fatalf("Earliest = %d, %v; want 100", d, ok)
	}
	x.Persist(2)
	if d, ok := x.earliest(); !ok || d != 500 {
		t.Fatalf("Earliest after disarming the min = %d, %v; want 500", d, ok)
	}
}

func TestClamping(t *testing.T) {
	x, _ := newIndex(t)
	x.StoreDeadline(1, nil, -50)
	if d := deadline(x, 1); d != 1 {
		t.Fatalf("negative deadline clamped to %d, want 1 (0 means unarmed)", d)
	}
	x.StoreDeadline(2, nil, math.MaxInt64)
	if d := deadline(x, 2); d != MaxDeadlineMS {
		t.Fatalf("huge deadline clamped to %d, want %d", d, MaxDeadlineMS)
	}
	if d, ok := x.earliest(); !ok || d != 1 {
		t.Fatalf("Earliest = %d, %v", d, ok)
	}
}

// TestSetExhaustedMillisecond arms a key at a deadline whose seq slot
// space is already occupied — a mass restore or bulk EXPIREAT aimed at
// one deadline: the arming must terminate by degrading to a neighboring
// millisecond instead of retrying the exhausted slot space forever.
// The lap bound is lowered and the colliding byDeadline nodes planted
// directly (a fresh index's seq counter starts at 0, so an arming probes
// seqs 1, 2, 3, ...); exhausting the real 2^20-slot space exercises the
// identical loop at ~2M trie ops per case.
func TestSetExhaustedMillisecond(t *testing.T) {
	const lap = 8
	defer func(orig int) { setRetryLap = orig }(setRetryLap)
	setRetryLap = lap

	plant := func(t *testing.T, x *Index, d int64) {
		t.Helper()
		for seq := uint64(1); seq <= lap+1; seq++ {
			if _, loaded, ok := x.byDeadline.LoadOrStore(uint64(d)<<seqBits|seq, ^uint64(0)); !ok || loaded {
				t.Fatalf("planting seq %d failed", seq)
			}
		}
	}

	t.Run("degrades later", func(t *testing.T) {
		x, _ := newIndex(t)
		const d = int64(5000)
		plant(t, x, d)
		x.Store(9, []byte("v"))
		x.Set(9, d)
		if got := deadline(x, 9); got != d+1 {
			t.Fatalf("Set on an exhausted millisecond landed at %d, want %d", got, d+1)
		}
	})

	t.Run("walks earlier at the clamp ceiling", func(t *testing.T) {
		x, _ := newIndex(t)
		plant(t, x, MaxDeadlineMS)
		x.StoreDeadline(9, []byte("v"), math.MaxInt64) // clamps to MaxDeadlineMS, which is full
		if got := deadline(x, 9); got != MaxDeadlineMS-1 {
			t.Fatalf("arming at the exhausted ceiling landed at %d, want %d", got, MaxDeadlineMS-1)
		}
	})
}

func TestReap(t *testing.T) {
	x, _ := newIndex(t)
	x.StoreDeadline(10, nil, 100)
	x.StoreDeadline(11, nil, 200)
	x.StoreDeadline(12, nil, 200) // same millisecond: seq disambiguates
	x.StoreDeadline(13, nil, 300)
	x.Store(14, nil)

	if n := x.Reap(50); n != 0 {
		t.Fatalf("Reap(50) purged %d", n)
	}
	// The limit is inclusive: everything due AT now expires too.
	if n := x.Reap(200); n != 3 {
		t.Fatalf("Reap(200) purged %d, want 3", n)
	}
	if x.Len() != 2 || !x.db.Contains(13) || !x.db.Contains(14) {
		t.Fatalf("keyspace after reap holds %d keys", x.Len())
	}
	if d, ok := x.earliest(); !ok || d != 300 {
		t.Fatalf("Earliest after reap = %d, %v", d, ok)
	}
	expired, passes := x.Stats()
	if expired != 3 || passes.Count != 2 {
		t.Fatalf("expired = %d, passes = %d; want 3, 2", expired, passes.Count)
	}
}

// TestReapSkipsRearmed: a node whose key no longer holds its arming —
// re-armed to a later deadline, with the old node's deletion still in
// flight — must not purge the key. The reaper leaves the node to the
// operation that retired its arming.
func TestReapSkipsRearmed(t *testing.T) {
	x, _ := newIndex(t)
	x.StoreDeadline(5, []byte("v"), 100)
	v1, _ := x.db.Load(5)
	x.Set(5, 99999)
	// The re-arm deleted v1's node; put it back, as if that deletion had
	// not landed yet when the reaper scans.
	x.byDeadline.LoadOrStore(v1.At, 5)

	if n := x.Reap(200); n != 0 {
		t.Fatalf("Reap purged %d through a stale node", n)
	}
	if v, ok := x.Lookup(5); !ok || v.DeadlineMS() != 99999 {
		t.Fatalf("re-armed key was purged or disarmed: %+v, %v", v, ok)
	}
	if d, ok := x.earliest(); !ok || d != 100 {
		t.Fatalf("Earliest = %d, %v; the reaper deleted a node it did not retire", d, ok)
	}
}

func TestWakeSignalling(t *testing.T) {
	x, _ := newIndex(t)
	x.Store(1, nil)
	x.Store(2, nil)
	x.wakeAt.Store(5000) // reaper sleeping toward 5000
	x.Set(1, 9000)
	select {
	case <-x.wake:
		t.Fatal("later deadline woke the reaper")
	default:
	}
	x.Set(2, 1000)
	select {
	case <-x.wake:
	default:
		t.Fatal("earlier deadline did not wake the reaper")
	}
}

// TestReaperWakesForEarlierDeadline runs the background reaper on the
// wall clock. It sleeps toward a deadline an hour away; an arming due in
// 20 ms must wake it, and it must purge that key alone. Stop returns
// only once the reaper has exited.
func TestReaperWakesForEarlierDeadline(t *testing.T) {
	x, err := New(16, 0)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now().UnixMilli()
	x.StoreDeadline(1, []byte("late"), now+time.Hour.Milliseconds())
	stop := x.StartReaper()
	defer stop()
	for _, passes := x.Stats(); passes.Count == 0; _, passes = x.Stats() {
		time.Sleep(time.Millisecond) // the opening pass
	}
	x.StoreDeadline(2, []byte("soon"), time.Now().UnixMilli()+20)
	for deadline := time.Now().Add(5 * time.Second); x.Len() != 1; {
		if time.Now().After(deadline) {
			t.Fatalf("the reaper did not purge the earlier arming: %d keys", x.Len())
		}
		time.Sleep(time.Millisecond)
	}
	if !x.db.Contains(1) || x.db.Contains(2) {
		t.Fatal("the reaper purged the wrong key")
	}
	if expired, _ := x.Stats(); expired != 1 {
		t.Fatalf("expired = %d, want 1", expired)
	}
}

// TestConcurrentSetClearRemove hammers a few keys with every keyspace
// write from many goroutines, while others purge. The invariant is the
// node rule: at every pause, each byDeadline node names a key holding
// its arming and each armed key has its node (Validate); and a total
// reap leaves no armed leaf and no node — no orphan arming, no stale
// node.
func TestConcurrentSetClearRemove(t *testing.T) {
	x, clk := newIndex(t)
	clk.ms.Store(500)
	const phases, perPhase = 10, 200
	for phase := 0; phase < phases; phase++ {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := phase * perPhase; i < (phase+1)*perPhase; i++ {
					k := uint64(i % 16)
					switch (g + i) % 8 {
					case 0:
						x.Set(k, int64(1000+i))
					case 1:
						x.Persist(k)
					case 2:
						x.StoreDeadline(k, []byte("e"), int64(i))
					case 3:
						x.Store(k, []byte("s"))
					case 4:
						x.Delete(k)
					case 5:
						x.Rename(k, (k+5)%16)
					case 6:
						x.Load(k) // purges what is due by 500
					case 7:
						x.Reap(int64(i))
					}
				}
			}(g)
		}
		wg.Wait()
		if err := x.Validate(); err != nil {
			t.Fatalf("after phase %d: %v", phase, err)
		}
	}
	n := x.Reap(MaxDeadlineMS)
	if x.ArmedKeys() != 0 {
		t.Fatalf("%d byDeadline nodes after a total reap (purged %d)", x.ArmedKeys(), n)
	}
	for k, v := range x.Snapshot().All() {
		if v.At != 0 {
			t.Fatalf("key %d still armed at %d after a total reap", k, v.DeadlineMS())
		}
	}
}

// TestExpireRacingPurgeKeepsRearmedKey races a purge that saw a key's
// due arming against an EXPIRE that re-arms the key. Because the purge
// is conditional on the arming in the leaf, whichever lands second
// fails: the key is either purged (and the EXPIRE finds nothing to arm)
// or re-armed and alive — never acknowledged as re-armed and gone.
func TestExpireRacingPurgeKeepsRearmedKey(t *testing.T) {
	x, clk := newIndex(t)
	clk.ms.Store(1000)

	// The interleaving, step by step: the purge observes the arming,
	// EXPIRE lands, then the purge commits.
	x.StoreDeadline(1, []byte("v"), 900)
	seen, _ := x.db.Load(1)
	if !x.Set(1, 5000) {
		t.Fatal("EXPIRE of a present key failed")
	}
	if x.purge(1, seen.At) {
		t.Fatal("the purge deleted a key re-armed after it looked")
	}
	if v, ok := x.Lookup(1); !ok || v.DeadlineMS() != 5000 {
		t.Fatalf("re-armed key lost: %+v, %v", v, ok)
	}

	// And raced for real.
	for i := 0; i < 500; i++ {
		x.StoreDeadline(2, []byte("v"), 900)
		var armed bool
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); x.Reap(1000) }()
		go func() { defer wg.Done(); armed = x.Set(2, 5000) }()
		wg.Wait()
		v, ok := x.Lookup(2)
		if armed && (!ok || v.DeadlineMS() != 5000) {
			t.Fatalf("round %d: EXPIRE re-armed the key, then it was lost (%+v, %v)", i, v, ok)
		}
		if !armed && ok {
			t.Fatalf("round %d: EXPIRE failed but the key survived: %+v", i, v)
		}
	}
}

// FuzzExpiryIndexOps drives a byte-coded op sequence against the
// keyspace and a plain (value, deadline) map oracle, with a clock the
// sequence advances. After every op the views must agree on every key's
// value and deadline, on order (Earliest) and on the key and armed
// counts. Single-threaded, so byDeadline must mirror the armed leaves
// exactly.
func FuzzExpiryIndexOps(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x42})
	f.Add([]byte{0x10, 0x05, 0x11, 0x05, 0x37, 0x06, 0x1a, 0x05})
	f.Add([]byte{0x01, 0xFF, 0x22, 0x00, 0x36, 0xFF, 0x05, 0x01, 0x07, 0x23})
	f.Add([]byte{0x09, 0x03, 0x05, 0x03, 0x0a, 0x04, 0x05, 0x24, 0x07, 0x40})
	f.Fuzz(func(t *testing.T, data []byte) {
		x, clk := newIndex(t)
		type entry struct {
			v        []byte
			deadline int64 // 0: unarmed
		}
		oracle := map[uint64]entry{}
		check := func(op string) {
			t.Helper()
			if got, want := x.Len(), len(oracle); got != want {
				t.Fatalf("after %s: Len = %d, oracle %d", op, got, want)
			}
			armed, earliest := 0, int64(math.MaxInt64)
			for k, e := range oracle {
				v, ok := x.db.Load(k)
				if !ok || !bytes.Equal(v.B, e.v) || v.DeadlineMS() != e.deadline {
					t.Fatalf("after %s: key %d = %q@%d, %v; oracle %q@%d", op, k, v.B, v.DeadlineMS(), ok, e.v, e.deadline)
				}
				if e.deadline != 0 {
					armed++
					earliest = min(earliest, e.deadline)
				}
			}
			if got := x.ArmedKeys(); got != armed {
				t.Fatalf("after %s: %d byDeadline nodes, oracle %d armed keys", op, got, armed)
			}
			d, ok := x.earliest()
			if ok != (armed > 0) || (ok && d != earliest) {
				t.Fatalf("after %s: Earliest = %d, %v; oracle min %d of %d armed", op, d, ok, earliest, armed)
			}
			if err := x.Validate(); err != nil {
				t.Fatalf("after %s: %v", op, err)
			}
		}
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			k := uint64(arg % 32)
			d := clampDeadline(int64(op/8) * int64(arg) * 7)
			val := []byte{arg, op}
			switch op % 8 {
			case 0: // SET
				x.Store(k, val)
				oracle[k] = entry{val, 0}
			case 1: // SETEX
				x.StoreDeadline(k, val, d)
				oracle[k] = entry{val, d}
			case 2: // EXPIRE (raw: no clock)
				e, had := oracle[k]
				if got := x.Set(k, d); got != had {
					t.Fatalf("Set(%d) = %v, oracle had %v", k, got, had)
				}
				if had {
					oracle[k] = entry{e.v, d}
				}
			case 3: // PERSIST
				e, had := oracle[k]
				if got := x.Persist(k); got != (had && e.deadline != 0) {
					t.Fatalf("Persist(%d) = %v, oracle %+v, %v", k, got, e, had)
				}
				if had {
					oracle[k] = entry{e.v, 0}
				}
			case 4: // DEL
				_, had := oracle[k]
				if got := x.Delete(k); got != had {
					t.Fatalf("Delete(%d) = %v, oracle had %v", k, got, had)
				}
				delete(oracle, k)
			case 5: // RENAME k → k+arg/32
				to := (k + uint64(arg/32) + 1) % 32
				e, had := oracle[k]
				_, taken := oracle[to]
				if moved := x.Rename(k, to); moved != (had && !taken) {
					t.Fatalf("Rename(%d, %d) = %v; oracle had %v, taken %v", k, to, moved, had, taken)
				}
				if had && !taken {
					delete(oracle, k)
					oracle[to] = e
				}
			case 6: // advance the clock, then GET: due keys read as absent and go
				clk.ms.Add(int64(arg) * 11)
				e, had := oracle[k]
				due := had && e.deadline != 0 && e.deadline <= clk.now()
				v, ok := x.Load(k)
				if ok != (had && !due) || (ok && !bytes.Equal(v, e.v)) {
					t.Fatalf("Load(%d) at %d = %q, %v; oracle %+v, %v", k, clk.now(), v, ok, e, had)
				}
				if due {
					delete(oracle, k)
				}
			case 7: // reap everything due by an arbitrary now
				now := int64(op/8) * int64(arg) * 5
				x.Reap(now)
				for k, e := range oracle {
					if e.deadline != 0 && e.deadline <= clampDeadline(now) {
						delete(oracle, k)
					}
				}
			}
			check([]string{"set", "setex", "expire", "persist", "del", "rename", "get", "reap"}[op%8])
		}
	})
}
