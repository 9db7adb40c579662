package kv

import (
	"math/rand"
	"sync"
	"testing"
)

// White-box tests of the value layer: map semantics against an oracle,
// value transport through Replace, and the wait-free (CAS-free) Load.

func TestMapBasicSemantics(t *testing.T) {
	tr := mustNew(t, 8)

	if _, ok := tr.Load(5); ok {
		t.Error("Load on empty trie must miss")
	}
	if !tr.Store(5, "a") {
		t.Error("Store(5) must succeed")
	}
	if v, ok := tr.Load(5); !ok || v != "a" {
		t.Errorf("Load(5) = %v,%v want a,true", v, ok)
	}
	if !tr.Store(5, "b") { // overwrite
		t.Error("overwriting Store(5) must succeed")
	}
	if v, _ := tr.Load(5); v != "b" {
		t.Errorf("Load(5) after overwrite = %v, want b", v)
	}

	if v, loaded, ok := tr.LoadOrStore(5, "c"); !ok || !loaded || v != "b" {
		t.Errorf("LoadOrStore(present) = %v,%v want b,true", v, loaded)
	}
	if v, loaded, ok := tr.LoadOrStore(6, "c"); !ok || loaded || v != "c" {
		t.Errorf("LoadOrStore(absent) = %v,%v want c,false", v, loaded)
	}

	if tr.CompareAndSwap(5, "wrong", "x") {
		t.Error("CAS with wrong old value must fail")
	}
	if tr.CompareAndSwap(99, "b", "x") {
		t.Error("CAS on absent key must fail")
	}
	if !tr.CompareAndSwap(5, "b", "x") {
		t.Error("CAS with right old value must succeed")
	}
	if v, _ := tr.Load(5); v != "x" {
		t.Errorf("Load(5) after CAS = %v, want x", v)
	}

	if tr.CompareAndDelete(5, "wrong") || !tr.Contains(5) {
		t.Error("CompareAndDelete with wrong value must not delete")
	}
	if !tr.CompareAndDelete(5, "x") || tr.Contains(5) {
		t.Error("CompareAndDelete with right value must delete")
	}
	if tr.CompareAndDelete(5, "x") {
		t.Error("CompareAndDelete on absent key must fail")
	}

	// The set API observes map-stored keys (value nil vs. set insert).
	if !tr.Contains(6) || !tr.Delete(6) {
		t.Error("set view of a stored key broken")
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
}

// TestMapSequentialOracle replays a random workload over the full map
// surface against a Go map oracle.
func TestMapSequentialOracle(t *testing.T) {
	const keyRange = 256
	tr := mustNew(t, 8)
	rng := rand.New(rand.NewSource(7))
	oracle := make(map[uint64]int)
	for i := 0; i < 30000; i++ {
		k := rng.Uint64() % keyRange
		val := rng.Intn(8)
		switch rng.Intn(7) {
		case 0: // Store
			if !tr.Store(k, val) {
				t.Fatalf("op %d: Store(%d) failed", i, k)
			}
			oracle[k] = val
		case 1: // Load
			ov, oOK := oracle[k]
			v, ok := tr.Load(k)
			if ok != oOK || (ok && v != ov) {
				t.Fatalf("op %d: Load(%d) = %v,%v want %v,%v", i, k, v, ok, ov, oOK)
			}
		case 2: // LoadOrStore
			ov, oOK := oracle[k]
			v, loaded, ok := tr.LoadOrStore(k, val)
			if !ok {
				t.Fatalf("op %d: LoadOrStore(%d) rejected an in-range key", i, k)
			}
			if loaded != oOK {
				t.Fatalf("op %d: LoadOrStore(%d) loaded=%v want %v", i, k, loaded, oOK)
			}
			if loaded && v != ov {
				t.Fatalf("op %d: LoadOrStore(%d) = %v want %v", i, k, v, ov)
			}
			if !loaded {
				oracle[k] = val
			}
		case 3: // CompareAndSwap
			old := rng.Intn(8)
			ov, oOK := oracle[k]
			want := oOK && ov == old
			if got := tr.CompareAndSwap(k, old, val); got != want {
				t.Fatalf("op %d: CAS(%d,%d,%d) = %v want %v", i, k, old, val, got, want)
			}
			if want {
				oracle[k] = val
			}
		case 4: // CompareAndDelete
			old := rng.Intn(8)
			ov, oOK := oracle[k]
			want := oOK && ov == old
			if got := tr.CompareAndDelete(k, old); got != want {
				t.Fatalf("op %d: CompareAndDelete(%d,%d) = %v want %v", i, k, old, got, want)
			}
			if want {
				delete(oracle, k)
			}
		case 5: // Delete
			_, oOK := oracle[k]
			if got := tr.Delete(k); got != oOK {
				t.Fatalf("op %d: Delete(%d) = %v want %v", i, k, got, oOK)
			}
			delete(oracle, k)
		case 6: // Replace carries the value to the new key
			k2 := rng.Uint64() % keyRange
			ov, oOK := oracle[k]
			_, o2OK := oracle[k2]
			want := oOK && !o2OK && k != k2
			if got := tr.Replace(k, k2); got != want {
				t.Fatalf("op %d: Replace(%d,%d) = %v want %v", i, k, k2, got, want)
			}
			if want {
				delete(oracle, k)
				oracle[k2] = ov
			}
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Size() != len(oracle) {
		t.Fatalf("size %d, oracle %d", tr.Size(), len(oracle))
	}
	for k, ov := range oracle {
		if v, ok := tr.Load(k); !ok || v != ov {
			t.Fatalf("final Load(%d) = %v,%v want %v,true", k, v, ok, ov)
		}
	}
}

// TestReplaceCarriesValue pins the value-transport semantics of Replace
// through each of the paper's structural cases by replaying replaces at
// many key distances.
func TestReplaceCarriesValue(t *testing.T) {
	tr := mustNew(t, 8)
	rng := rand.New(rand.NewSource(3))
	oracle := make(map[uint64]int)
	for i := 0; i < 4000; i++ {
		k := rng.Uint64() % 64
		if rng.Intn(2) == 0 {
			tr.Store(k, int(k))
			oracle[k] = int(k)
		}
		k2 := rng.Uint64() % 64
		ov, oOK := oracle[k]
		_, o2OK := oracle[k2]
		want := oOK && !o2OK && k != k2
		if got := tr.Replace(k, k2); got != want {
			t.Fatalf("Replace(%d,%d) = %v want %v", k, k2, got, want)
		}
		if want {
			delete(oracle, k)
			oracle[k2] = ov
			if v, ok := tr.Load(k2); !ok || v != ov {
				t.Fatalf("Replace(%d,%d) dropped the value: got %v,%v want %v", k, k2, v, ok, ov)
			}
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// (TestLoadPerformsNoCAS — the stalled-update wait-free-read proof —
// lives in internal/engine, next to the failure-injection hook it uses.)

// TestConcurrentLoadOrStore: many goroutines race LoadOrStore on the same
// keys; for each key exactly one value wins and every goroutine observes
// that winner.
func TestConcurrentLoadOrStore(t *testing.T) {
	const (
		goroutines = 8
		keyCount   = 64
	)
	tr := mustNew(t, 8)
	got := make([][]any, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		got[g] = make([]any, keyCount)
		go func(g int) {
			defer wg.Done()
			for k := uint64(0); k < keyCount; k++ {
				v, _, _ := tr.LoadOrStore(k, g)
				got[g][k] = v
			}
		}(g)
	}
	wg.Wait()
	for k := uint64(0); k < keyCount; k++ {
		winner, ok := tr.Load(k)
		if !ok {
			t.Fatalf("key %d missing after LoadOrStore race", k)
		}
		for g := 0; g < goroutines; g++ {
			if got[g][k] != winner {
				t.Fatalf("key %d: goroutine %d saw %v, winner %v", k, g, got[g][k], winner)
			}
		}
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
}

// TestConcurrentCompareAndSwap uses CAS loops as contended counters: the
// final count must equal the number of successful increments.
func TestConcurrentCompareAndSwap(t *testing.T) {
	const (
		goroutines = 8
		increments = 2000
	)
	tr := mustNew(t, 4)
	tr.Store(1, 0)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < increments; i++ {
				for {
					v, ok := tr.Load(1)
					if !ok {
						panic("counter key vanished")
					}
					if tr.CompareAndSwap(1, v, v.(int)+1) {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	if v, _ := tr.Load(1); v != goroutines*increments {
		t.Fatalf("counter = %v, want %d", v, goroutines*increments)
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
}

// TestConcurrentStoreDeleteAccounting mixes upserts, CompareAndDelete and
// plain deletes on a tiny key space and checks per-key consistency at
// quiescence: whatever survived must be a value some goroutine stored.
func TestConcurrentStoreDeleteAccounting(t *testing.T) {
	const (
		goroutines = 8
		ops        = 5000
		keyRange   = 8
	)
	tr := mustNew(t, 4)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < ops; i++ {
				k := rng.Uint64() % keyRange
				switch rng.Intn(3) {
				case 0:
					tr.Store(k, g)
				case 1:
					if v, ok := tr.Load(k); ok {
						if _, isInt := v.(int); !isInt {
							panic("torn value observed")
						}
					}
				case 2:
					if v, ok := tr.Load(k); ok {
						tr.CompareAndDelete(k, v)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for k := uint64(0); k < keyRange; k++ {
		if v, ok := tr.Load(k); ok {
			if g, isInt := v.(int); !isInt || g < 0 || g >= goroutines {
				t.Fatalf("key %d holds impossible value %v", k, v)
			}
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestAscendKV checks the ordered value iteration and its pruning.
func TestAscendKV(t *testing.T) {
	tr := mustNew(t, 8)
	for _, k := range []uint64{3, 9, 77, 200} {
		tr.Store(k, int(k)*10)
	}
	var ks []uint64
	tr.AscendKV(0, func(k uint64, v any) bool {
		ks = append(ks, k)
		if v != int(k)*10 {
			t.Errorf("AscendKV(%d) value %v", k, v)
		}
		return true
	})
	if len(ks) != 4 || ks[0] != 3 || ks[3] != 200 {
		t.Errorf("AscendKV(0) keys = %v", ks)
	}
	ks = nil
	tr.AscendKV(10, func(k uint64, v any) bool {
		ks = append(ks, k)
		return true
	})
	if len(ks) != 2 || ks[0] != 77 || ks[1] != 200 {
		t.Errorf("AscendKV(10) keys = %v", ks)
	}
	ks = nil
	tr.AscendKV(9, func(k uint64, v any) bool {
		ks = append(ks, k)
		return false // early stop
	})
	if len(ks) != 1 || ks[0] != 9 {
		t.Errorf("AscendKV(9) with early stop = %v", ks)
	}
	tr.AscendKV(201, func(k uint64, v any) bool {
		t.Errorf("AscendKV(201) yielded %d", k)
		return true
	})
	tr.AscendKV(1<<20, func(k uint64, v any) bool {
		t.Errorf("AscendKV out of range yielded %d", k)
		return true
	})
}
