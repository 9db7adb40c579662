package expiry

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nbtrie/internal/engine"
	"nbtrie/internal/keys"
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

// TestValueLeafSize pins the leaf: it keeps no Value, but a 32 B engine
// header, the value's length and its deadline, 48 B, with the bytes
// behind them, so arming a key costs it nothing. With a 64 B value the
// leaf is one 112 B object, 16 B less than the 128 B class a Value
// (slice header and deadline) with the same bytes behind it would take,
// and 8 B less than a 56 B []byte leaf and a separate 64 B copy took as
// two objects: an overwrite allocates that leaf and a 48 B one-node
// Flag, and nothing for the value.
func TestValueLeafSize(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	x, _ := newIndex(t)
	val := bytes.Repeat([]byte{'v'}, 64)
	x.StoreDeadline(7, val, 1000)
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		x.StoreDeadline(7, val, 1000)
	}
	runtime.ReadMemStats(&after)
	objs, b := (after.Mallocs-before.Mallocs)/runs, (after.TotalAlloc-before.TotalAlloc)/runs
	if objs != 2 || b != 112+48 {
		t.Errorf("an overwrite with a 64 B value allocates %d objects, %d B; want 2 objects, %d B (a 112 B leaf)", objs, b, 112+48)
	}
}

// TestSameMeansThisLeaf: rearm's condition matches the leaf the value was
// read from, not its contents. A second store of the very same bytes and
// deadline builds a new leaf, and a Set or Persist conditioned on the
// value read before it must not match, for a tail-sized, an empty and
// a separately copied value alike; conditioned on the new read it does.
func TestSameMeansThisLeaf(t *testing.T) {
	for _, b := range [][]byte{[]byte("value"), {}, bytes.Repeat([]byte{'x'}, 1000)} {
		x, _ := newIndex(t)
		x.StoreDeadline(7, b, 1000)
		v1, _ := x.Lookup(7)
		x.StoreDeadline(7, b, 1000)
		v2, _ := x.Lookup(7)
		if !same(v1, v1) || same(v1, v2) {
			t.Errorf("%d B: same(v1, v1) = %v, same(v1, v2) = %v; want true, false", len(b), same(v1, v1), same(v1, v2))
		}
		if x.rearm(7, v1, 2000) || x.rearm(7, v1, 0) {
			t.Errorf("%d B: a Set or Persist conditioned on the replaced leaf matched", len(b))
		}
		if !x.rearm(7, v2, 0) || deadline(x, 7) != 0 || x.ArmedKeys() != 0 {
			t.Errorf("%d B: Persist conditioned on the live leaf failed", len(b))
		}
		if !x.Set(7, 3000) || deadline(x, 7) != 3000 {
			t.Errorf("%d B: Set after a re-store: deadline %d, want 3000", len(b), deadline(x, 7))
		}
		if v, ok := x.Load(7); !ok || !bytes.Equal(v, b) || v == nil {
			t.Errorf("%d B: Load = %q, %v; want the stored bytes, non-nil", len(b), v, ok)
		}
	}
}

func TestSetLookupClear(t *testing.T) {
	x, _ := newIndex(t)
	if x.Set(7, 1000) {
		t.Fatal("Set armed an absent key")
	}
	if x.ArmedKeys() != 0 {
		t.Fatalf("a refused Set counts %d armed keys", x.ArmedKeys())
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
	// Re-arm: the new deadline replaces the old, and the key counts once.
	x.Set(7, 2000)
	if got := deadline(x, 7); got != 2000 || x.ArmedKeys() != 1 {
		t.Fatalf("after re-arm: deadline %d, %d armed keys; want 2000, 1", got, x.ArmedKeys())
	}
	if !x.Persist(7) {
		t.Fatal("Persist found nothing")
	}
	if x.Persist(7) {
		t.Fatal("second Persist succeeded")
	}
	if x.ArmedKeys() != 0 {
		t.Fatalf("%d armed keys after Persist", x.ArmedKeys())
	}
	if b, ok := x.Load(7); !ok || string(b) != "v" {
		t.Fatalf("Persist lost the value: %q, %v", b, ok)
	}
	// SETEX, then SET and DEL each drop the deadline with the value.
	x.StoreDeadline(7, []byte("w"), 3000)
	x.Store(7, []byte("u"))
	if deadline(x, 7) != 0 || x.ArmedKeys() != 0 {
		t.Fatalf("Store kept the deadline: %d, %d armed keys", deadline(x, 7), x.ArmedKeys())
	}
	x.StoreDeadline(7, []byte("w"), 3000)
	if !x.Delete(7) || x.ArmedKeys() != 0 || x.Len() != 0 {
		t.Fatalf("Delete left %d armed keys, %d keys", x.ArmedKeys(), x.Len())
	}
}

// TestRemoveIsConditional: a purge removes a key only while its leaf is
// due at the purge's now. A key re-armed to a later deadline or disarmed
// survives a purge that saw it due.
func TestRemoveIsConditional(t *testing.T) {
	x, _ := newIndex(t)
	x.StoreDeadline(3, []byte("v"), 100)
	x.Set(3, 200)
	if x.purge(3, 150) {
		t.Fatal("purge at 150 removed a key re-armed to 200")
	}
	v, ok := x.db.Load(3)
	if !ok || v.DeadlineMS() != 200 {
		t.Fatalf("failed purge disturbed the live arming: %+v, %v", v, ok)
	}
	x.Persist(3)
	if x.purge(3, MaxDeadlineMS) {
		t.Fatal("purge removed a disarmed key")
	}
	x.Set(3, 200)
	if !x.purge(3, 200) {
		t.Fatal("purge of a key due at its deadline failed")
	}
	if _, ok := x.db.Load(3); ok || x.ArmedKeys() != 0 {
		t.Fatalf("key survived its purge, or is still counted (%d armed keys)", x.ArmedKeys())
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
	if x.ArmedKeys() != 2 {
		t.Fatalf("%d armed keys, want 2", x.ArmedKeys())
	}
}

func TestReap(t *testing.T) {
	x, _ := newIndex(t)
	x.StoreDeadline(10, nil, 100)
	x.StoreDeadline(11, nil, 200)
	x.StoreDeadline(12, nil, 200) // two keys share a millisecond
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
	if x.ArmedKeys() != 1 {
		t.Fatalf("%d armed keys after reap, want 1", x.ArmedKeys())
	}
	expired, passes := x.Stats()
	if expired != 3 || passes.Count != 2 {
		t.Fatalf("expired = %d, passes = %d; want 3, 2", expired, passes.Count)
	}
}

// TestReapSkipsRearmed: a key whose deadline passed but was moved later
// before the pass ran must not be purged, and a key disarmed since must
// not be either.
func TestReapSkipsRearmed(t *testing.T) {
	x, _ := newIndex(t)
	x.StoreDeadline(5, []byte("v"), 100)
	x.Set(5, 99999)
	x.StoreDeadline(6, []byte("w"), 100)
	x.Persist(6)

	if n := x.Reap(200); n != 0 {
		t.Fatalf("Reap purged %d re-armed or disarmed keys", n)
	}
	if v, ok := x.Lookup(5); !ok || v.DeadlineMS() != 99999 {
		t.Fatalf("re-armed key was purged or disarmed: %+v, %v", v, ok)
	}
	if v, ok := x.Lookup(6); !ok || v.At != 0 {
		t.Fatalf("disarmed key was purged or re-armed: %+v, %v", v, ok)
	}
	if x.ArmedKeys() != 1 {
		t.Fatalf("%d armed keys, want 1", x.ArmedKeys())
	}
}

// TestSweepBound: a key that nothing reads is purged within one full
// sweep of its deadline, from the worst cursor: one just past the key.
// Every other key is armed far in the future, so no tick takes a second
// batch and each tick advances the sweep by the minimum. Below 102,400
// keys a batch is sweepBatch leaves, so a sweep is ⌈n/sweepBatch⌉+1
// ticks; above, the batch grows with n and a sweep stays within
// sweepPeriod plus one tick.
func TestSweepBound(t *testing.T) {
	for _, c := range []struct{ n, bound int }{
		{10_000, (10_000+sweepBatch-1)/sweepBatch + 1},
		{1 << 18, int(sweepPeriod/sweepTick) + 1},
	} {
		clk := &testClock{}
		x, err := New(20, 4, WithClock(clk.now)) // room for 2^18 keys
		if err != nil {
			t.Fatal(err)
		}
		n, victim := uint64(c.n), uint64(c.n/2)
		for k := uint64(0); k < n; k++ {
			x.StoreDeadline(k, nil, MaxDeadlineMS)
		}
		x.StoreDeadline(victim, []byte("v"), 100)
		x.cursor = victim + 1
		clk.ms.Store(100)
		ticks := 0
		for x.db.Contains(victim) {
			if ticks == c.bound {
				t.Fatalf("%d keys: the key outlived %d ticks, one full sweep (%v)", n, c.bound, time.Duration(c.bound)*sweepTick)
			}
			x.tick(clk.now())
			ticks++
		}
		t.Logf("%d keys: purged after %d ticks (bound %d)", n, ticks, c.bound)
		if x.Len() != c.n-1 || x.ArmedKeys() != c.n-1 {
			t.Fatalf("%d keys: the sweep purged keys that were not due: %d keys, %d armed", n, x.Len(), x.ArmedKeys())
		}
		if _, passes := x.Stats(); passes.Count != int64(ticks) {
			t.Fatalf("%d keys: %d passes recorded for %d ticks", n, passes.Count, ticks)
		}
	}
}

// TestSweepTakesMoreWhileDense: a tick keeps taking batches while at
// least a quarter of the armed leaves a batch met were due, and stops
// after one batch when fewer were.
func TestSweepTakesMoreWhileDense(t *testing.T) {
	x, clk := newIndex(t)
	clk.ms.Store(100)
	const n = 3 * sweepBatch
	for k := uint64(0); k < n; k++ {
		x.StoreDeadline(k, nil, 100)
	}
	x.tick(clk.now())
	if x.Len() > n-sweepBatch {
		t.Fatalf("a tick over all-due keys took one batch: %d of %d keys left", x.Len(), n)
	}

	// One key in five due: a batch meets a fifth, and the tick stops.
	x, clk = newIndex(t)
	clk.ms.Store(100)
	for k := uint64(0); k < n; k++ {
		d := int64(MaxDeadlineMS)
		if k%5 == 0 {
			d = 100
		}
		x.StoreDeadline(k, nil, d)
	}
	x.tick(clk.now())
	if purged := n - x.Len(); purged != (sweepBatch+4)/5 {
		t.Fatalf("a tick over sparse due keys purged %d, want one batch's %d", purged, (sweepBatch+4)/5)
	}
	if x.cursor != sweepBatch {
		t.Fatalf("cursor at %d after one batch, want %d", x.cursor, sweepBatch)
	}
}

// TestArmedKeysCostNoHeap: the deadline lives in the leaf, so a keyspace
// whose keys are all armed takes the heap one with none armed takes,
// within 2 B per key.
func TestArmedKeysCostNoHeap(t *testing.T) {
	const n = 100_000
	perKey := func(arm bool) float64 {
		rng := rand.New(rand.NewSource(46))
		before := heapAlloc()
		x, err := New(59, 0)
		if err != nil {
			t.Fatal(err)
		}
		for x.Len() < n {
			k, v := rng.Uint64()>>5, make([]byte, 16)
			if arm {
				x.StoreDeadline(k, v, MaxDeadlineMS)
			} else {
				x.Store(k, v)
			}
		}
		b := float64(heapAlloc()-before) / n
		runtime.KeepAlive(x)
		return b
	}
	unarmed, armed := perKey(false), perKey(true)
	t.Logf("heap bytes per key: %.1f unarmed, %.1f armed", unarmed, armed)
	if math.Abs(armed-unarmed) > 2 {
		t.Errorf("an armed key costs %+.1f B more than an unarmed one, want within 2 B", armed-unarmed)
	}
}

// TestReaperSweepsOnTheWallClock runs the background reaper on the wall
// clock: its opening pass purges a key already due, its ticks purge a key
// due 20 ms later, and a key due in an hour survives. Stop returns only
// once the reaper has exited.
func TestReaperSweepsOnTheWallClock(t *testing.T) {
	x, err := New(16, 0)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now().UnixMilli()
	x.StoreDeadline(1, []byte("late"), now+time.Hour.Milliseconds())
	x.StoreDeadline(2, []byte("gone"), now-1)
	stop := x.StartReaper()
	defer stop()
	for _, passes := x.Stats(); passes.Count == 0; _, passes = x.Stats() {
		time.Sleep(time.Millisecond) // the opening pass
	}
	if x.db.Contains(2) {
		t.Fatal("the opening pass left a due key")
	}
	x.StoreDeadline(3, []byte("soon"), time.Now().UnixMilli()+20)
	for deadline := time.Now().Add(5 * time.Second); x.Len() != 1; {
		if time.Now().After(deadline) {
			t.Fatalf("the reaper did not purge the key due in 20 ms: %d keys", x.Len())
		}
		time.Sleep(time.Millisecond)
	}
	if !x.db.Contains(1) {
		t.Fatal("the reaper purged a key due in an hour")
	}
	if expired, _ := x.Stats(); expired != 2 {
		t.Fatalf("expired = %d, want 2", expired)
	}
}

// TestConcurrentSetClearRemove hammers a few keys with every keyspace
// write from many goroutines, while others purge lazily, by full passes
// and by sweep steps. The invariant is the counter's: at every pause,
// ArmedKeys equals the number of armed leaves (Validate); and a total
// reap leaves no armed leaf and a count of 0.
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
		wg.Add(1)
		go func() { // the one sweeper: the cursor is the reaper's alone
			defer wg.Done()
			for i := phase * perPhase; i < (phase+1)*perPhase; i++ {
				x.step(int64(i), 3)
			}
		}()
		wg.Wait()
		if err := x.Validate(); err != nil {
			t.Fatalf("after phase %d: %v", phase, err)
		}
	}
	n := x.Reap(MaxDeadlineMS)
	if x.ArmedKeys() != 0 {
		t.Fatalf("%d armed keys counted after a total reap (purged %d)", x.ArmedKeys(), n)
	}
	for k, v := range x.Snapshot().All() {
		if v.At != 0 {
			t.Fatalf("key %d still armed at %d after a total reap", k, v.DeadlineMS())
		}
	}
}

// TestExpireRacingPurgeKeepsRearmedKey races a purge that saw a key due
// against an EXPIRE that re-arms the key. Because the purge is
// conditional on the deadline in the leaf, whichever lands second fails:
// the key is either purged (and the EXPIRE finds nothing to arm) or
// re-armed and alive — never acknowledged as re-armed and gone.
func TestExpireRacingPurgeKeepsRearmedKey(t *testing.T) {
	x, clk := newIndex(t)
	clk.ms.Store(1000)

	// The interleaving, step by step: the purge observes the due key,
	// EXPIRE lands, then the purge commits.
	x.StoreDeadline(1, []byte("v"), 900)
	if !x.Set(1, 5000) {
		t.Fatal("EXPIRE of a present key failed")
	}
	if x.purge(1, clk.now()) {
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
// value and deadline and on the key and armed counts (Validate checks
// the count against the leaves too). A sweep step of a few leaves must
// purge exactly the keys it passed that are due by the clock.
func FuzzExpiryIndexOps(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x42})
	f.Add([]byte{0x10, 0x05, 0x11, 0x05, 0x37, 0x06, 0x1a, 0x05})
	f.Add([]byte{0x01, 0xFF, 0x22, 0x00, 0x36, 0xFF, 0x05, 0x01, 0x07, 0x23})
	f.Add([]byte{0x09, 0x03, 0x05, 0x03, 0x0a, 0x04, 0x05, 0x24, 0x07, 0x40})
	f.Add([]byte{0x01, 0x03, 0x0a, 0x07, 0x13, 0x21, 0x06, 0x30, 0x08, 0x02, 0x08, 0x05, 0x08, 0x01})
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
			armed := 0
			for k, e := range oracle {
				v, ok := x.db.Load(k)
				if !ok || !bytes.Equal(v.B, e.v) || v.DeadlineMS() != e.deadline {
					t.Fatalf("after %s: key %d = %q@%d, %v; oracle %q@%d", op, k, v.B, v.DeadlineMS(), ok, e.v, e.deadline)
				}
				if e.deadline != 0 {
					armed++
				}
			}
			if got := x.ArmedKeys(); got != armed {
				t.Fatalf("after %s: ArmedKeys = %d, oracle %d armed keys", op, got, armed)
			}
			if err := x.Validate(); err != nil {
				t.Fatalf("after %s: %v", op, err)
			}
		}
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			k := uint64(arg % 32)
			d := int64(clampDeadline(int64(op/9) * int64(arg) * 7))
			val := []byte{arg, op}
			switch op % 9 {
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
				now := int64(op/9) * int64(arg) * 5
				x.Reap(now)
				for k, e := range oracle {
					if e.deadline != 0 && e.deadline <= now {
						delete(oracle, k)
					}
				}
			case 8: // one sweep step of a few leaves at the clock's now
				from := x.cursor
				x.step(clk.now(), int(arg%8)+1)
				to := x.cursor
				for k, e := range oracle {
					passed := k >= from && (to == 0 || k < to)
					if passed && e.deadline != 0 && e.deadline <= clk.now() {
						delete(oracle, k)
					}
				}
			}
			check([]string{"set", "setex", "expire", "persist", "del", "rename", "get", "reap", "sweep"}[op%9])
		}
	})
}

// footprint returns the census of x's trie. nbtrie.Map keeps its engine
// trie unexported, so the test reaches it through Map.t.e by reflection.
func footprint(x *Index) engine.Footprint {
	e := reflect.ValueOf(x.db).Elem().FieldByName("t").FieldByName("e")
	return (*engine.Trie[keys.Uint64Key, Value])(e.UnsafePointer()).Footprint()
}

// TestKeyspaceRetention holds the keyspace's heap to its census, after a
// fill and after churn. 2^16 keys with 64 B values, every value written
// from one reused buffer as the server writes from its connection's
// arena, are stored, then go through two rounds of overwrite (SET), SETEX,
// EXPIRE then PERSIST (rearm) and RENAME to a fresh key (Replace), a
// quarter of the keys each. Every leaf must hold its own bytes, the ones
// last stored, and no dead leaf may stay reachable: at both points the
// live heap must be within 5 % of Footprint, which counts each leaf at its
// 112 B class. A leaf copy that kept pointing into the leaf it displaced
// would keep that leaf alive as well.
//
// Per key, the filled keyspace must take at most 163 B, about what the
// srv-* benchmark workloads read. Churn flags more internal nodes, each
// of which then holds a token, which is no object, so after it the
// ceiling is the layout's: a 112 B leaf, a 48 B node and the shortcut
// table's share, plus 1 B for the heap the census does not see (0.2 B
// when this was written).
func TestKeyspaceRetention(t *testing.T) {
	const (
		n     = 1 << 16
		now   = int64(1) << 40
		later = now + 1e9
	)
	rng := rand.New(rand.NewSource(53))
	ks := make([]uint64, n)
	gen := make([]uint8, n)
	used := make(map[uint64]bool, 2*n)
	fresh := func() uint64 {
		for {
			if k := rng.Uint64() >> 5; !used[k] {
				used[k] = true
				return k
			}
		}
	}
	for i := range ks {
		ks[i] = fresh()
	}
	buf := make([]byte, 64)
	value := func(i int, g uint8) []byte {
		for j := range buf {
			buf[j] = byte(i) ^ byte(i>>8)*7 ^ byte(j)*31 ^ g*101
		}
		return buf
	}

	before := heapAlloc()
	x, err := New(59, 0, WithClock(func() int64 { return now }))
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range ks {
		x.Store(k, value(i, 0))
	}
	check := func(when string, ceiling float64) {
		t.Helper()
		measured := float64(heapAlloc() - before)
		for i, k := range ks {
			if v, ok := x.Load(k); !ok || !bytes.Equal(v, value(i, gen[i])) {
				t.Fatalf("%s: key %d reads %x, %v; want %x", when, i, v, ok, value(i, gen[i]))
			}
		}
		if err := x.Validate(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		f := footprint(x)
		predicted := float64(f.Bytes())
		t.Logf("%s, %d keys: measured %.1f B/key, Footprint %.1f B/key (%d leaves, %d internal, %d infos, %d B of shortcut table)",
			when, n, measured/n, predicted/n, f.Leaves, f.Internal, f.Infos, f.ShortcutBytes)
		if f.Leaves != n+2 {
			t.Errorf("%s: census counts %d leaves, want %d", when, f.Leaves, n+2)
		}
		if d := (measured - predicted) / predicted; d < -0.05 || d > 0.05 {
			t.Errorf("%s: measured heap %.0f B vs Footprint %.0f B: off by %.1f %%, want within 5 %%", when, measured, predicted, 100*d)
		}
		if ceiling == 0 {
			ceiling = 112 + 48 + 1 + float64(f.ShortcutBytes)/n
		}
		if perKey := measured / n; perKey > ceiling {
			t.Errorf("%s: the keyspace holds %.1f B per key, want <= %.1f", when, perKey, ceiling)
		}
	}
	check("filled", 163)
	for round := 1; round <= 2; round++ {
		for i, k := range ks {
			switch i % 4 {
			case 0:
				x.Store(k, value(i, uint8(round)))
				gen[i] = uint8(round)
			case 1:
				x.StoreDeadline(k, value(i, uint8(round)), later)
				gen[i] = uint8(round)
			case 2:
				if !x.Set(k, later) || !x.Persist(k) {
					t.Fatalf("key %d: EXPIRE then PERSIST failed", i)
				}
			case 3:
				nk := fresh()
				if !x.Rename(k, nk) {
					t.Fatalf("key %d: RENAME failed", i)
				}
				ks[i] = nk
			}
		}
	}
	check("churned", 0)
	runtime.KeepAlive(used) // allocated before the first reading
	runtime.KeepAlive(x)
}

// heapAlloc returns the live heap after a forced collection.
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
