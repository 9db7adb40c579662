// Package strtrie tests the Section VI byte-string key space: the
// generic kv.Trie over keys.StringCodec, driven as kv.String. It holds
// tests only; the code under test lives in internal/kv and
// internal/keys.
package strtrie

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"nbtrie/internal/kv"
	"nbtrie/internal/settest"
)

// stringAdapter drives the byte-string trie through the uint64-based
// conformance kit by printing keys in decimal (order differs from
// numeric, which the kit never relies on).
type stringAdapter struct{ t *kv.String[any] }

func key(k uint64) []byte { return []byte(fmt.Sprintf("%020d", k)) }

func (a stringAdapter) Insert(k uint64) bool   { return a.t.Insert(key(k)) }
func (a stringAdapter) Delete(k uint64) bool   { return a.t.Delete(key(k)) }
func (a stringAdapter) Contains(k uint64) bool { return a.t.Contains(key(k)) }
func (a stringAdapter) Replace(old, new uint64) bool {
	return a.t.Replace(key(old), key(new))
}

// keysOf returns every key of tr in increasing encoded-key order.
func keysOf(tr *kv.String[any]) [][]byte {
	var out [][]byte
	tr.AllKV(func(k []byte, _ any) bool {
		out = append(out, k)
		return true
	})
	return out
}

func TestConformance(t *testing.T) {
	settest.Run(t, func(uint64) settest.Set { return stringAdapter{t: kv.NewString[any]()} })
}

func TestVariableLengthKeys(t *testing.T) {
	tr := kv.NewString[any]()
	ks := [][]byte{
		[]byte("a"), []byte("ab"), []byte("abc"), []byte("b"),
		[]byte("zebra"), []byte("z"), {0}, {0, 0}, {0xff, 0xff, 0xff, 0xff},
	}
	for _, k := range ks {
		if !tr.Insert(k) {
			t.Fatalf("Insert(%q) failed", k)
		}
	}
	for _, k := range ks {
		if !tr.Contains(k) {
			t.Fatalf("Contains(%q) = false", k)
		}
		if tr.Insert(k) {
			t.Fatalf("duplicate Insert(%q) succeeded", k)
		}
	}
	// Prefix relations between source keys must not confuse membership.
	if tr.Contains([]byte("abcd")) || tr.Contains([]byte("zeb")) {
		t.Error("prefix/extension of a stored key reported present")
	}
	if got := tr.Size(); got != len(ks) {
		t.Fatalf("Size() = %d, want %d", got, len(ks))
	}
	for _, k := range ks {
		if !tr.Delete(k) {
			t.Fatalf("Delete(%q) failed", k)
		}
	}
	if got := tr.Size(); got != 0 {
		t.Fatalf("Size() = %d after draining", got)
	}
}

func TestKeysEncodedOrder(t *testing.T) {
	// Prefix-free word sets come out in plain lexicographic order.
	tr := kv.NewString[any]()
	words := []string{"pear", "apple", "banana", "cherry", "zebra"}
	for _, w := range words {
		tr.Insert([]byte(w))
	}
	got := keysOf(tr)
	want := make([]string, len(words))
	copy(want, words)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("keysOf returned %d keys", len(got))
	}
	for i := range want {
		if string(got[i]) != want[i] {
			t.Fatalf("keysOf[%d] = %q, want %q", i, got[i], want[i])
		}
	}

	// The Section VI terminator sorts a proper prefix after its
	// extensions (11 > 01/10); pin that documented quirk.
	tr2 := kv.NewString[any]()
	tr2.Insert([]byte("app"))
	tr2.Insert([]byte("applesauce"))
	got2 := keysOf(tr2)
	if string(got2[0]) != "applesauce" || string(got2[1]) != "app" {
		t.Fatalf("encoded order of prefix pair = %q", got2)
	}
}

func TestReplaceAcrossLengths(t *testing.T) {
	tr := kv.NewString[any]()
	tr.Insert([]byte("short"))
	if !tr.Replace([]byte("short"), []byte("a much longer key than before")) {
		t.Fatal("replace to longer key failed")
	}
	if tr.Contains([]byte("short")) || !tr.Contains([]byte("a much longer key than before")) {
		t.Fatal("replace semantics wrong")
	}
}

func TestEmptyKeyPanics(t *testing.T) {
	tr := kv.NewString[any]()
	defer func() {
		if recover() == nil {
			t.Error("empty key must panic (encoding collides with the 111 dummy)")
		}
	}()
	tr.Insert(nil)
}

func TestQuickRandomByteKeys(t *testing.T) {
	tr := kv.NewString[any]()
	oracle := make(map[string]bool)
	f := func(k []byte, insert bool) bool {
		if len(k) == 0 {
			return true
		}
		if insert {
			want := !oracle[string(k)]
			if tr.Insert(k) != want {
				return false
			}
			oracle[string(k)] = true
		} else {
			want := oracle[string(k)]
			if tr.Delete(k) != want {
				return false
			}
			delete(oracle, string(k))
		}
		return tr.Contains(k) == oracle[string(k)]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentReplaceConservation(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	tr := kv.NewString[any]()
	const initial = 100
	for i := 0; i < initial; i++ {
		tr.Insert([]byte(fmt.Sprintf("task-%03d", i*7)))
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 4000; i++ {
				from := []byte(fmt.Sprintf("task-%03d", rng.Intn(1000)))
				to := []byte(fmt.Sprintf("task-%03d", rng.Intn(1000)))
				tr.Replace(from, to)
			}
		}(int64(g))
	}
	wg.Wait()
	if got := tr.Size(); got != initial {
		t.Fatalf("Size() = %d after replace-only churn, want %d", got, initial)
	}
}

func TestValidateAfterChurn(t *testing.T) {
	tr := kv.NewString[any]()
	if err := tr.Validate(); err != nil {
		t.Fatalf("fresh trie: %v", err)
	}
	rng := rand.New(rand.NewSource(8))
	live := make(map[string]bool)
	for i := 0; i < 3000; i++ {
		k := []byte(fmt.Sprintf("key-%d", rng.Intn(500)))
		if rng.Intn(2) == 0 {
			tr.Insert(k)
			live[string(k)] = true
		} else {
			tr.Delete(k)
			delete(live, string(k))
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("after churn: %v", err)
	}
	if tr.Size() != len(live) {
		t.Fatalf("Size() = %d, oracle %d", tr.Size(), len(live))
	}
}

// (Validate corruption-detection is tested white-box in internal/engine,
// which owns the node structure shared by every instantiation.)

func TestLongKeysCrossWordBoundaries(t *testing.T) {
	tr := kv.NewString[any]()
	long := bytes.Repeat([]byte("x"), 100) // 1602 encoded bits
	tr.Insert(long)
	if !tr.Contains(long) {
		t.Fatal("long key lost")
	}
	almost := bytes.Repeat([]byte("x"), 99)
	if tr.Contains(almost) {
		t.Fatal("prefix of long key misreported")
	}
}

func TestMapOperations(t *testing.T) {
	tr := kv.NewString[any]()
	k := []byte("alpha")
	if _, ok := tr.Load(k); ok {
		t.Error("Load on empty trie must miss")
	}
	tr.Store(k, 1)
	if v, ok := tr.Load(k); !ok || v != 1 {
		t.Errorf("Load = %v,%v", v, ok)
	}
	tr.Store(k, 2) // overwrite
	if v, _ := tr.Load(k); v != 2 {
		t.Errorf("Load after overwrite = %v", v)
	}
	if v, loaded, _ := tr.LoadOrStore(k, 9); !loaded || v != 2 {
		t.Errorf("LoadOrStore(present) = %v,%v", v, loaded)
	}
	if v, loaded, _ := tr.LoadOrStore([]byte("beta"), 9); loaded || v != 9 {
		t.Errorf("LoadOrStore(absent) = %v,%v", v, loaded)
	}
	if tr.CompareAndSwap(k, 1, 3) || !tr.CompareAndSwap(k, 2, 3) {
		t.Error("CompareAndSwap semantics wrong")
	}
	if tr.CompareAndDelete(k, 99) || !tr.CompareAndDelete(k, 3) {
		t.Error("CompareAndDelete semantics wrong")
	}
	if tr.Contains(k) {
		t.Error("key survived CompareAndDelete")
	}
	// Replace carries the value to the new key.
	if !tr.Replace([]byte("beta"), []byte("gamma")) {
		t.Error("Replace failed")
	}
	if v, ok := tr.Load([]byte("gamma")); !ok || v != 9 {
		t.Errorf("Replace dropped the value: %v,%v", v, ok)
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
}

func TestAllKV(t *testing.T) {
	tr := kv.NewString[any]()
	tr.Store([]byte("a"), 1)
	tr.Store([]byte("b"), 2)
	got := map[string]any{}
	tr.AllKV(func(k []byte, v any) bool {
		got[string(k)] = v
		return true
	})
	if len(got) != 2 || got["a"] != 1 || got["b"] != 2 {
		t.Errorf("AllKV = %v", got)
	}
	n := 0
	tr.AllKV(func([]byte, any) bool { n++; return false })
	if n != 1 {
		t.Errorf("AllKV early stop visited %d", n)
	}
}

func TestConcurrentMapOps(t *testing.T) {
	tr := kv.NewString[any]()
	keys := [][]byte{[]byte("x"), []byte("xy"), []byte("xyz"), []byte("y")}
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				k := keys[(g+i)%len(keys)]
				switch i % 3 {
				case 0:
					tr.Store(k, g)
				case 1:
					if v, ok := tr.Load(k); ok {
						if n, isInt := v.(int); !isInt || n < 0 || n >= goroutines {
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
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}
