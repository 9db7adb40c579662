package engine

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"nbtrie/internal/keys"
)

// Snapshot battery: frozen-view semantics, the generation-aware removal
// check, O(1) cost pins, and prefix-consistency under concurrent
// writers. These run once here, against the shared engine, for every
// instantiation in the repository.

func (tt testTrie) Snapshot() *Snapshot[keys.Uint64Key, any] { return tt.Trie.Snapshot() }

func snapKeys(s *Snapshot[keys.Uint64Key, any], width uint32) []uint64 {
	var out []uint64
	var zero keys.Uint64Key
	s.AscendKV(zero, func(k keys.Uint64Key, _ any) bool {
		out = append(out, keys.U64Codec{Width: width}.Decode(k))
		return true
	})
	return out
}

// TestSnapshotFrozenView takes a snapshot and then mutates the live trie
// through every update path (insert, delete, overwrite, replace): the
// snapshot must keep answering with the state at the snapshot point
// while the live trie moves on, and the live trie must stay valid.
func TestSnapshotFrozenView(t *testing.T) {
	tr := mustNew(t, 16)
	for k := uint64(0); k < 200; k++ {
		tr.Store(k, k)
	}
	s := tr.Snapshot()
	if s.Len() != 200 {
		t.Fatalf("snapshot Len = %d, want 200", s.Len())
	}

	// Mutate the live trie heavily after the snapshot.
	for k := uint64(0); k < 100; k++ {
		tr.Delete(k) // remove the low half
	}
	for k := uint64(200); k < 300; k++ {
		tr.Store(k, k) // insert a new range
	}
	for k := uint64(100); k < 150; k++ {
		tr.Store(k, k+1000) // overwrite values
	}
	if !tr.Trie.Replace(tr.enc(150), tr.enc(1150)) {
		t.Fatal("replace must succeed on a live key")
	}

	// The snapshot still shows exactly the pre-mutation state.
	for k := uint64(0); k < 200; k++ {
		v, ok := s.Load(tr.enc(k))
		if !ok || v.(uint64) != k {
			t.Fatalf("snapshot lost key %d (ok=%v v=%v)", k, ok, v)
		}
	}
	if s.Contains(tr.enc(250)) || s.Contains(tr.enc(1150)) {
		t.Error("snapshot sees post-snapshot inserts")
	}
	got := snapKeys(s, 16)
	if len(got) != 200 {
		t.Fatalf("snapshot Ascend yielded %d keys, want 200", len(got))
	}
	for i, k := range got {
		if k != uint64(i) {
			t.Fatalf("snapshot Ascend out of order or wrong at %d: %d", i, k)
		}
	}

	// And the live trie shows only the post-mutation state.
	if tr.Contains(50) || !tr.Contains(250) || tr.Contains(150) || !tr.Contains(1150) {
		t.Error("live trie state wrong after mutations")
	}
	if v, _ := tr.Load(120); v.(uint64) != 1120 {
		t.Error("live overwrite lost")
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
}

// TestSnapshotGenerationAwareRemoval pins the one subtle sharing case: a
// general-case replace after the snapshot plants its Flag in the info
// field of a leaf the snapshot still reaches. The snapshot's removal
// check must see that the Flag belongs to a newer generation and keep
// the leaf live in its view.
func TestSnapshotGenerationAwareRemoval(t *testing.T) {
	tr := mustNew(t, 16)
	// Spread keys so Replace(5, 40000) hits the general case (disjoint
	// parts of the trie).
	for _, k := range []uint64{1, 5, 9, 33000, 41000, 49000} {
		tr.Insert(k)
	}
	s := tr.Snapshot()
	if !tr.Replace(5, 40000) {
		t.Fatal("replace must succeed")
	}
	if tr.Contains(5) || !tr.Contains(40000) {
		t.Fatal("live trie must reflect the replace")
	}
	if !s.Contains(tr.enc(5)) {
		t.Error("snapshot must still contain the replaced-away key: its removal is from a newer generation")
	}
	if s.Contains(tr.enc(40000)) {
		t.Error("snapshot must not contain the post-snapshot key")
	}
	keys := snapKeys(s, 16)
	if len(keys) != 6 || keys[1] != 5 {
		t.Errorf("snapshot Ascend sees %v, want the six pre-replace keys", keys)
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
}

// TestSnapshotO1 pins Snapshot's cost as independent of map size: the
// allocation count must be identical for a 100-key and a 100_000-key
// trie, and tiny.
func TestSnapshotO1(t *testing.T) {
	small := mustNew(t, 32)
	for k := uint64(0); k < 100; k++ {
		small.Insert(k)
	}
	big := mustNew(t, 32)
	n := uint64(100_000)
	if testing.Short() {
		n = 10_000
	}
	for k := uint64(0); k < n; k++ {
		big.Insert(k)
	}
	allocsSmall := testing.AllocsPerRun(100, func() { small.Snapshot() })
	allocsBig := testing.AllocsPerRun(100, func() { big.Snapshot() })
	if allocsSmall != allocsBig {
		t.Errorf("Snapshot allocs depend on size: %.0f (100 keys) vs %.0f (%d keys)", allocsSmall, allocsBig, n)
	}
	if allocsBig > 2 {
		t.Errorf("Snapshot allocates %.0f objects; want <= 2 (root copy + snapshot header)", allocsBig)
	}
}

// TestSnapshotReadAllocsPinned keeps the live read path at zero
// allocations while snapshots exist and copy-on-write renewal churns the
// upper trie: snapshots must not tax readers.
func TestSnapshotReadAllocsPinned(t *testing.T) {
	tr := mustNew(t, 32)
	for k := uint64(0); k < 4096; k++ {
		tr.Store(k, k)
	}
	s := tr.Snapshot()
	// Force renewal work: mutations after the snapshot rebuild stale paths.
	for k := uint64(0); k < 4096; k += 7 {
		tr.Store(k, k+1)
	}
	probe := tr.enc(1234)
	if a := testing.AllocsPerRun(200, func() { tr.Trie.Contains(probe) }); a != 0 {
		t.Errorf("live Contains allocates %.1f/op with an active snapshot; want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() { tr.Trie.Load(probe) }); a != 0 {
		t.Errorf("live Load allocates %.1f/op with an active snapshot; want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() { s.Contains(probe) }); a != 0 {
		t.Errorf("snapshot Contains allocates %.1f/op; want 0", a)
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
}

// TestSnapshotPrefixConsistency is the linearizability check: writers
// insert strictly ascending private sequences while snapshots are taken
// concurrently. Every snapshot must show, for every writer, a prefix of
// that writer's sequence (an insert acknowledged before the snapshot is
// in it; one acknowledged after is not; nothing in between is skipped),
// and two walks of the same snapshot must agree exactly.
func TestSnapshotPrefixConsistency(t *testing.T) {
	const writers = 4
	iters := 3000
	if testing.Short() {
		iters = 500
	}
	tr := mustNew(t, 32)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w uint64) {
			defer wg.Done()
			base := w << 20
			for i := 0; i < iters && !stop.Load(); i++ {
				tr.Insert(base + uint64(i))
			}
		}(uint64(w))
	}

	for round := 0; round < 20; round++ {
		s := tr.Snapshot()
		counts := make([]uint64, writers)
		seen := 0
		prev := int64(-1)
		var zero keys.Uint64Key
		ok := true
		s.AscendKV(zero, func(k keys.Uint64Key, _ any) bool {
			u := keys.U64Codec{Width: 32}.Decode(k)
			if int64(u) <= prev {
				t.Errorf("snapshot Ascend not strictly ascending: %d after %d", u, prev)
				ok = false
				return false
			}
			prev = int64(u)
			w := u >> 20
			i := u & (1<<20 - 1)
			if i != counts[w] {
				t.Errorf("writer %d: key %d appears but %d is missing — not a prefix", w, i, counts[w])
				ok = false
				return false
			}
			counts[w]++
			seen++
			return true
		})
		if !ok {
			break
		}
		if seen != s.Len() {
			t.Errorf("snapshot Len() = %d but Ascend yielded %d", s.Len(), seen)
		}
		// A second walk of the same snapshot must agree exactly even
		// though writers are still running: the view is frozen.
		again := 0
		s.AscendKV(zero, func(keys.Uint64Key, any) bool { again++; return true })
		if again != seen {
			t.Errorf("snapshot not frozen: first walk %d keys, second %d", seen, again)
		}
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
}

// TestSnapshotQuickCheckAgainstModel drives random mutations with a
// snapshot taken mid-sequence and compares both the final live trie and
// the snapshot against model maps.
func TestSnapshotQuickCheckAgainstModel(t *testing.T) {
	tr := mustNew(t, 16)
	model := map[uint64]uint64{}
	rnd := func(i int) uint64 { return uint64((i*2654435761 + 12345) % 5000) }
	for i := 0; i < 4000; i++ {
		k := rnd(i)
		if i%3 == 0 {
			tr.Trie.Delete(tr.enc(k))
			delete(model, k)
		} else {
			tr.Store(k, k+uint64(i))
			model[k] = k + uint64(i)
		}
	}
	snapModel := make(map[uint64]uint64, len(model))
	for k, v := range model {
		snapModel[k] = v
	}
	s := tr.Snapshot()
	for i := 4000; i < 8000; i++ {
		k := rnd(i)
		if i%3 == 0 {
			tr.Trie.Delete(tr.enc(k))
			delete(model, k)
		} else {
			tr.Store(k, k+uint64(i))
			model[k] = k + uint64(i)
		}
	}
	if s.Len() != len(snapModel) {
		t.Errorf("snapshot Len = %d, model has %d", s.Len(), len(snapModel))
	}
	for k, want := range snapModel {
		v, ok := s.Load(tr.enc(k))
		if !ok || v.(uint64) != want {
			t.Fatalf("snapshot key %d: got (%v, %v), want %d", k, v, ok, want)
		}
	}
	walked := 0
	var zero keys.Uint64Key
	s.AscendKV(zero, func(k keys.Uint64Key, v any) bool {
		u := keys.U64Codec{Width: 16}.Decode(k)
		if want, ok := snapModel[u]; !ok || v.(uint64) != want {
			t.Fatalf("snapshot Ascend yields %d=%v; model says (%v, %v)", u, v, snapModel[u], ok)
		}
		walked++
		return true
	})
	if walked != len(snapModel) {
		t.Errorf("snapshot Ascend walked %d keys, model has %d", walked, len(snapModel))
	}
	if tr.Trie.Len() != len(model) {
		t.Errorf("live Len = %d, model has %d", tr.Trie.Len(), len(model))
	}
	for k, want := range model {
		v, ok := tr.Load(k)
		if !ok || v.(uint64) != want {
			t.Fatalf("live key %d: got (%v, %v), want %d", k, v, ok, want)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
}

// u64Trie is a Trie with unboxed uint64 values, whose overwrite costs are
// the ones the allocation pins name: a 48 B leaf and a 48 B one-CAS Flag.
func u64Trie(width uint32) (*Trie[keys.Uint64Key, uint64], func(uint64) keys.Uint64Key) {
	c := keys.U64Codec{Width: width}
	lo, hi := c.Bounds()
	return New[keys.Uint64Key, uint64](lo, hi), func(k uint64) keys.Uint64Key {
		e, _ := c.Encode(k)
		return e
	}
}

// overwriteAll stores val under every key of ks and returns what one
// overwrite cost on average, in heap objects and bytes, rounded.
func overwriteAll(tr *Trie[keys.Uint64Key, uint64], ks []keys.Uint64Key, val uint64) (objs, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, k := range ks {
		tr.Store(k, val)
	}
	runtime.ReadMemStats(&after)
	n := float64(len(ks))
	return math.Round(float64(after.Mallocs-before.Mallocs) / n), math.Round(float64(after.TotalAlloc-before.TotalAlloc) / n)
}

// TestSnapshotRenewsEachNodeOnce pins what a snapshot costs writers: a
// generation's worth of renewals, once. A 2^16-key overwrite costs 2
// objects and 96 B with no snapshot. The first overwrite pass after a
// Snapshot also renews, once, every internal node below the root on its
// path, one 48 B copy and a 64 B two-node Flag per node, 4 objects and
// 208 B in all; the second pass meets no stale node and costs 2 and 96
// again. Renewal is decided by the nodes' generation alone, so the first
// pass renews n nodes even when the snapshot was dropped before it. A
// snapshot that is kept reads its own cut throughout.
func TestSnapshotRenewsEachNodeOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 1 << 16
	for _, dropped := range []bool{false, true} {
		t.Run(map[bool]string{false: "kept", true: "dropped"}[dropped], func(t *testing.T) {
			tr, enc := u64Trie(32)
			ks := make([]keys.Uint64Key, n)
			for i := range ks {
				ks[i] = enc(uint64(i) * 40503)
				tr.Store(ks[i], 0)
			}
			pass := func(name string, val uint64, wantObjs, wantBytes float64, wantRenewals int64) {
				t.Helper()
				r0 := tr.StatsSnapshot().SnapshotRenewals
				objs, bytes := overwriteAll(tr, ks, val)
				if objs != wantObjs || bytes != wantBytes {
					t.Errorf("%s: an overwrite costs %.0f objects and %.0f B, want %.0f and %.0f", name, objs, bytes, wantObjs, wantBytes)
				}
				if got := tr.StatsSnapshot().SnapshotRenewals - r0; got != wantRenewals {
					t.Errorf("%s: %d renewals, want %d", name, got, wantRenewals)
				}
				if got := tr.Len(); got != n {
					t.Errorf("%s: live Len = %d, want %d", name, got, n)
				}
			}
			var s *Snapshot[keys.Uint64Key, uint64]
			frozen := func(when string) {
				t.Helper()
				if s == nil {
					return
				}
				for i, k := range ks {
					if v, ok := s.Load(k); !ok || v != 1 {
						t.Fatalf("%s: snapshot reads key %d as (%d, %v), want (1, true)", when, i, v, ok)
					}
				}
				walked := 0
				var zero keys.Uint64Key
				s.AscendKV(zero, func(_ keys.Uint64Key, v uint64) bool {
					if v == 1 {
						walked++
					}
					return true
				})
				if walked != n || s.Len() != n {
					t.Errorf("%s: snapshot walks %d keys of value 1, Len %d, want %d", when, walked, s.Len(), n)
				}
			}

			pass("no snapshot", 1, 2, 96, 0)
			if dropped {
				tr.Snapshot()
				runtime.GC()
			} else {
				s = tr.Snapshot()
			}
			// n+2 leaves hang under n+1 internal nodes; the root is fresh.
			pass("first pass after a Snapshot", 2, 4, 208, n)
			frozen("after the first pass")
			pass("second pass", 3, 2, 96, 0)
			frozen("after the second pass")
			if err := tr.Validate(nil); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestReleaseKeepsOtherSnapshotsFrozen takes two overlapping snapshots,
// the second after the lower half of the keys was overwritten, so the
// two share the upper half's nodes. Through a full overwrite, a delete
// and a general-case Replace, each reads its own cut: loads, a walk and
// Len. Then either one is released first, by dropping it (a snapshot
// needs no other release) and collecting it, and the one still held
// reads its cut again through a second full overwrite. The first
// overwrite renewed every node on the keys' paths, so the second renews
// nothing.
func TestReleaseKeepsOtherSnapshotsFrozen(t *testing.T) {
	const n = 1 << 10
	for _, first := range []int{0, 1} {
		t.Run(fmt.Sprintf("release-%d-first", first), func(t *testing.T) {
			tr, enc := u64Trie(32)
			ks := make([]keys.Uint64Key, n)
			for i := range ks {
				ks[i] = enc(uint64(i) << 16)
				tr.Store(ks[i], 0)
			}
			var snaps [2]*Snapshot[keys.Uint64Key, uint64]
			snaps[0] = tr.Snapshot()
			for _, k := range ks[:n/2] {
				tr.Store(k, 1)
			}
			snaps[1] = tr.Snapshot()
			want := func(s, i int) uint64 { // key i's value in snapshot s
				if s == 1 && i < n/2 {
					return 1
				}
				return 0
			}
			frozen := func(when string, si int) {
				t.Helper()
				s := snaps[si]
				for i, k := range ks {
					if v, ok := s.Load(k); !ok || v != want(si, i) {
						t.Fatalf("%s: snapshot %d reads key %d as (%d, %v), want (%d, true)", when, si, i, v, ok, want(si, i))
					}
				}
				if s.Contains(enc(n<<16 | 5)) {
					t.Errorf("%s: snapshot %d sees the Replace's new key", when, si)
				}
				walked, i := 0, 0
				var zero keys.Uint64Key
				s.AscendKV(zero, func(k keys.Uint64Key, v uint64) bool {
					if i < n && k.Equal(ks[i]) && v == want(si, i) {
						walked++
					}
					i++
					return true
				})
				if walked != n || i != n || s.Len() != n {
					t.Errorf("%s: snapshot %d walks %d keys (%d as cut), Len %d, want %d", when, si, i, walked, s.Len(), n)
				}
			}

			for _, k := range ks {
				tr.Store(k, 2)
			}
			tr.Delete(ks[1])
			if !tr.Replace(ks[2], enc(n<<16|5)) {
				t.Fatal("Replace of a live key failed")
			}
			frozen("both held", 0)
			frozen("both held", 1)

			snaps[first] = nil
			runtime.GC()
			r0 := tr.StatsSnapshot().SnapshotRenewals
			for _, k := range ks {
				tr.Store(k, 3)
			}
			if r := tr.StatsSnapshot().SnapshotRenewals - r0; r != 0 {
				t.Errorf("second full overwrite: %d renewals, want 0", r)
			}
			frozen(fmt.Sprintf("snapshot %d released", first), 1-first)
			if err := tr.Validate(nil); err != nil {
				t.Error(err)
			}
		})
	}
}
