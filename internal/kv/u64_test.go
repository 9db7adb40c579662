package kv

import (
	"math/rand"
	"sort"
	"testing"

	"nbtrie/internal/engine"
	"nbtrie/internal/keys"
)

// mustNew builds a U64[any] — the loosest fixed-width instantiation,
// letting the white-box tests exercise the set view and arbitrary value
// payloads on the same trie. Allocation pins use concrete
// instantiations instead (see alloc_test.go).
func mustNew(t *testing.T, width uint32, opts ...engine.Option[keys.Uint64Key, any]) *U64[any] {
	t.Helper()
	tr, err := NewU64(width, opts...)
	if err != nil {
		t.Fatalf("NewU64(%d): %v", width, err)
	}
	return tr
}

// keysOf returns every key of tr in increasing encoded-key order.
func keysOf[U any, K keys.Key[K], V any, C Codec[U, K]](tr *Trie[U, K, V, C]) []U {
	var out []U
	tr.AllKV(func(u U, _ V) bool {
		out = append(out, u)
		return true
	})
	return out
}

func TestNewWidthValidation(t *testing.T) {
	for _, w := range []uint32{0, 64, 100} {
		if _, err := NewU64[any](w); err == nil {
			t.Errorf("NewU64(%d) should fail", w)
		}
	}
	for _, w := range []uint32{1, 32, 63} {
		if _, err := NewU64[any](w); err != nil {
			t.Errorf("NewU64(%d): %v", w, err)
		}
	}
}

func TestEmptyTrie(t *testing.T) {
	tr := mustNew(t, 16)
	if tr.Contains(0) || tr.Contains(42) || tr.Contains(65535) {
		t.Error("empty trie should contain nothing")
	}
	if n := tr.Size(); n != 0 {
		t.Errorf("Size() = %d, want 0", n)
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestInsertContainsDelete(t *testing.T) {
	tr := mustNew(t, 16)
	ks := []uint64{0, 1, 2, 100, 65535, 32768, 7}
	for _, k := range ks {
		if !tr.Insert(k) {
			t.Fatalf("Insert(%d) = false on empty slot", k)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("after inserts: %v", err)
	}
	for _, k := range ks {
		if !tr.Contains(k) {
			t.Errorf("Contains(%d) = false after insert", k)
		}
	}
	if tr.Contains(3) || tr.Contains(101) {
		t.Error("Contains reports absent key as present")
	}
	if got := tr.Size(); got != len(ks) {
		t.Errorf("Size() = %d, want %d", got, len(ks))
	}
	for _, k := range ks {
		if !tr.Delete(k) {
			t.Errorf("Delete(%d) = false on present key", k)
		}
		if tr.Contains(k) {
			t.Errorf("Contains(%d) = true after delete", k)
		}
	}
	if got := tr.Size(); got != 0 {
		t.Errorf("Size() = %d after deleting all, want 0", got)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("after deletes: %v", err)
	}
}

func TestInsertDuplicate(t *testing.T) {
	tr := mustNew(t, 8)
	if !tr.Insert(5) || tr.Insert(5) {
		t.Error("second Insert(5) should return false")
	}
	if got := tr.Size(); got != 1 {
		t.Errorf("Size() = %d, want 1", got)
	}
}

func TestDeleteAbsent(t *testing.T) {
	tr := mustNew(t, 8)
	if tr.Delete(5) {
		t.Error("Delete on empty trie should return false")
	}
	tr.Insert(5)
	if tr.Delete(6) {
		t.Error("Delete(6) should return false when only 5 present")
	}
	if !tr.Contains(5) {
		t.Error("failed Delete must not disturb other keys")
	}
}

func TestBoundaryKeys(t *testing.T) {
	// Extreme user keys map next to the dummies; make sure they work.
	tr := mustNew(t, 8)
	for _, k := range []uint64{0, 255} {
		if !tr.Insert(k) || !tr.Contains(k) {
			t.Errorf("boundary key %d not usable", k)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, k := range []uint64{0, 255} {
		if !tr.Delete(k) {
			t.Errorf("Delete(%d) failed", k)
		}
	}
}

func TestReplaceSemantics(t *testing.T) {
	// All four presence combinations of (old, new).
	cases := []struct {
		name     string
		pre      []uint64
		old, new uint64
		want     bool
		post     []uint64
	}{
		{"old present, new absent", []uint64{1, 2}, 1, 3, true, []uint64{2, 3}},
		{"old absent", []uint64{2}, 1, 3, false, []uint64{2}},
		{"new present", []uint64{1, 3}, 1, 3, false, []uint64{1, 3}},
		{"both fail", []uint64{3}, 1, 3, false, []uint64{3}},
		{"same key present", []uint64{1}, 1, 1, false, []uint64{1}},
		{"same key absent", []uint64{2}, 1, 1, false, []uint64{2}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := mustNew(t, 8)
			for _, k := range c.pre {
				tr.Insert(k)
			}
			if got := tr.Replace(c.old, c.new); got != c.want {
				t.Fatalf("Replace(%d,%d) = %v, want %v", c.old, c.new, got, c.want)
			}
			got := keysOf(tr)
			if !equalU64(got, c.post) {
				t.Fatalf("post state %v, want %v", got, c.post)
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestReplaceExhaustiveSmall drives Replace through every special case by
// enumerating all source/destination pairs over every set of up to three
// keys in a 4-bit key space. The special cases of Figure 6 (shared leaf,
// shared parent, grandparent overlap) all occur among these runs.
func TestReplaceExhaustiveSmall(t *testing.T) {
	const width = 4
	const universe = 1 << width
	sets := [][]uint64{{}}
	for a := uint64(0); a < universe; a++ {
		sets = append(sets, []uint64{a})
		for b := a + 1; b < universe; b++ {
			sets = append(sets, []uint64{a, b})
			for c := b + 1; c < universe; c++ {
				sets = append(sets, []uint64{a, b, c})
			}
		}
	}
	for _, set := range sets {
		for vd := uint64(0); vd < universe; vd++ {
			for vi := uint64(0); vi < universe; vi++ {
				tr := mustNew(t, width)
				in := make(map[uint64]bool, len(set))
				for _, k := range set {
					tr.Insert(k)
					in[k] = true
				}
				want := in[vd] && !in[vi] && vd != vi
				if got := tr.Replace(vd, vi); got != want {
					t.Fatalf("set %v: Replace(%d,%d) = %v, want %v", set, vd, vi, got, want)
				}
				if want {
					delete(in, vd)
					in[vi] = true
				}
				for k := uint64(0); k < universe; k++ {
					if tr.Contains(k) != in[k] {
						t.Fatalf("set %v after Replace(%d,%d): Contains(%d) = %v, want %v",
							set, vd, vi, k, tr.Contains(k), in[k])
					}
				}
				if err := tr.Validate(); err != nil {
					t.Fatalf("set %v after Replace(%d,%d): %v", set, vd, vi, err)
				}
			}
		}
	}
}

func TestSequentialOracle(t *testing.T) {
	for _, width := range []uint32{4, 10, 63} {
		for seed := int64(0); seed < 4; seed++ {
			tr := mustNew(t, width)
			rng := rand.New(rand.NewSource(seed))
			keyRange := uint64(1) << min(width, 12)
			oracle := make(map[uint64]bool)
			for i := 0; i < 20000; i++ {
				k := rng.Uint64() % keyRange
				switch rng.Intn(4) {
				case 0:
					if got, want := tr.Insert(k), !oracle[k]; got != want {
						t.Fatalf("w=%d seed=%d op=%d Insert(%d)=%v want %v", width, seed, i, k, got, want)
					}
					oracle[k] = true
				case 1:
					if got, want := tr.Delete(k), oracle[k]; got != want {
						t.Fatalf("w=%d seed=%d op=%d Delete(%d)=%v want %v", width, seed, i, k, got, want)
					}
					delete(oracle, k)
				case 2:
					k2 := rng.Uint64() % keyRange
					want := oracle[k] && !oracle[k2] && k != k2
					if got := tr.Replace(k, k2); got != want {
						t.Fatalf("w=%d seed=%d op=%d Replace(%d,%d)=%v want %v", width, seed, i, k, k2, got, want)
					}
					if want {
						delete(oracle, k)
						oracle[k2] = true
					}
				case 3:
					if got, want := tr.Contains(k), oracle[k]; got != want {
						t.Fatalf("w=%d seed=%d op=%d Contains(%d)=%v want %v", width, seed, i, k, got, want)
					}
				}
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("w=%d seed=%d: %v", width, seed, err)
			}
			wantKeys := make([]uint64, 0, len(oracle))
			for k := range oracle {
				wantKeys = append(wantKeys, k)
			}
			sort.Slice(wantKeys, func(i, j int) bool { return wantKeys[i] < wantKeys[j] })
			if got := keysOf(tr); !equalU64(got, wantKeys) {
				t.Fatalf("w=%d seed=%d final keys mismatch: got %d keys, want %d", width, seed, len(got), len(wantKeys))
			}
		}
	}
}

func TestOutOfRangeKeysAreAbsent(t *testing.T) {
	tr := mustNew(t, 8)
	tr.Insert(3)
	for _, k := range []uint64{256, 1 << 20, ^uint64(0)} {
		if tr.Insert(k) {
			t.Errorf("Insert(%d) on width-8 trie must return false", k)
		}
		if tr.Contains(k) {
			t.Errorf("Contains(%d) on width-8 trie must return false", k)
		}
		if tr.Delete(k) {
			t.Errorf("Delete(%d) on width-8 trie must return false", k)
		}
		if tr.Replace(3, k) || tr.Replace(k, 5) {
			t.Errorf("Replace involving out-of-range %d must return false", k)
		}
		if tr.Store(k, "v") {
			t.Errorf("Store(%d) on width-8 trie must return false", k)
		}
		if _, ok := tr.Load(k); ok {
			t.Errorf("Load(%d) on width-8 trie must report absent", k)
		}
		if _, ok := tr.Ceiling(k); ok {
			t.Errorf("Ceiling(%d) on width-8 trie must be empty", k)
		}
		if f, ok := tr.Floor(k); !ok || f != 3 {
			t.Errorf("Floor(%d) = %d,%v; want the max key 3", k, f, ok)
		}
	}
	if !tr.Contains(3) {
		t.Error("in-range key lost during out-of-range probing")
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
}

func TestKeysSortedAndRangeStops(t *testing.T) {
	tr := mustNew(t, 8)
	for _, k := range []uint64{9, 3, 200, 77} {
		tr.Insert(k)
	}
	if got := keysOf(tr); !equalU64(got, []uint64{3, 9, 77, 200}) {
		t.Errorf("Keys() = %v", got)
	}
	var seen []uint64
	tr.AllKV(func(k uint64, _ any) bool {
		seen = append(seen, k)
		return len(seen) < 2
	})
	if len(seen) != 2 {
		t.Errorf("AllKV should stop after fn returns false, saw %v", seen)
	}
}

func TestDumpSmoke(t *testing.T) {
	tr := mustNew(t, 4)
	tr.Insert(5)
	tr.Insert(6)
	s := tr.Dump()
	if s == "" {
		t.Error("Dump returned empty string")
	}
}

// (Corruption-detection tests for Validate live in internal/engine,
// which owns the node structure; see engine's inspect tests.)

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
