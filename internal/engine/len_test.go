package engine

import (
	"sync"
	"testing"
)

// The Len counter is bumped only by the initiating goroutine of a
// successful insert or delete, after the operation's linearization
// point, at update's two count sites (map.go) that every single-key write
// form shares. These tests pin the two halves of that contract: every
// key-count-changing path moves it by exactly one, every neutral path
// (failed ops, overwrites, replaces) leaves it alone, and after any
// amount of concurrent hammering it agrees with a full traversal.

func TestLenSequential(t *testing.T) {
	tr := mustNew(t, 8)
	check := func(want int, what string) {
		t.Helper()
		if got := tr.Len(); got != want {
			t.Fatalf("after %s: Len() = %d, want %d", what, got, want)
		}
		if got, size := tr.Len(), tr.Size(); got != size {
			t.Fatalf("after %s: Len() = %d but Size() = %d", what, got, size)
		}
	}
	check(0, "construction")

	tr.Insert(10)
	check(1, "insert")
	tr.Insert(10) // duplicate: no change
	check(1, "duplicate insert")

	tr.Store(20, "v") // store-insert
	check(2, "store-insert")
	tr.Store(20, "w") // store-overwrite: no change
	check(2, "store-overwrite")

	tr.Trie.LoadOrStore(tr.enc(30), "x") // stores
	check(3, "LoadOrStore store")
	tr.Trie.LoadOrStore(tr.enc(30), "y") // loads: no change
	check(3, "LoadOrStore load")

	tr.Trie.CompareAndSwap(tr.enc(30), "x", "z") // value only: no change
	check(3, "CompareAndSwap")

	if !tr.Replace(10, 11) {
		t.Fatal("Replace(10, 11) failed")
	}
	check(3, "replace") // net zero: one key out, one in
	tr.Replace(10, 12)  // old absent: failed replace, no change
	check(3, "failed replace")

	if !tr.Trie.CompareAndDelete(tr.enc(30), "z") {
		t.Fatal("CompareAndDelete failed")
	}
	check(2, "CompareAndDelete")
	tr.Trie.CompareAndDelete(tr.enc(30), "z") // absent: no change
	check(2, "failed CompareAndDelete")

	tr.Delete(11)
	check(1, "delete")
	tr.Delete(11) // absent: no change
	check(1, "duplicate delete")

	tr.Trie.Swap(tr.enc(40), "a") // swap-insert
	check(2, "Swap insert")
	tr.Trie.Swap(tr.enc(40), "b") // swap-overwrite: no change
	check(2, "Swap overwrite")

	if _, loaded := tr.Trie.LoadOrStore(tr.enc(50), "c"); loaded {
		t.Fatal("LoadOrStore of an absent key loaded")
	}
	check(3, "second LoadOrStore store")

	isB := func(v any) bool { return v == "b" }
	tr.Trie.CompareAndSwapFunc(tr.enc(40), isB, "e") // value only: no change
	check(3, "CompareAndSwapFunc")
	tr.Trie.CompareAndSwapFunc(tr.enc(60), isB, "e") // absent: no insert
	check(3, "CompareAndSwapFunc on an absent key")

	isE := func(v any) bool { return v == "e" }
	tr.Trie.DeleteFunc(tr.enc(50), isE) // cond says no: no change
	check(3, "refused DeleteFunc")
	if !tr.Trie.DeleteFunc(tr.enc(40), isE) {
		t.Fatal("DeleteFunc failed")
	}
	check(2, "DeleteFunc")

	if _, loaded := tr.Trie.LoadAndDelete(tr.enc(50)); !loaded {
		t.Fatal("LoadAndDelete failed")
	}
	check(1, "LoadAndDelete")
	tr.Trie.LoadAndDelete(tr.enc(50)) // absent: no change
	check(1, "failed LoadAndDelete")

	tr.Delete(20)
	check(0, "final delete")
}

// TestLenConcurrent hammers one trie from many goroutines with every
// mutating operation and requires the counter to agree exactly with a
// traversal at quiescence: each successful operation must have been
// counted exactly once no matter how much helping went on.
func TestLenConcurrent(t *testing.T) {
	const (
		workers = 8
		rounds  = 3000
		width   = 10
		space   = 1 << width
	)
	tr := mustNew(t, width)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := seed*2654435761 + 1
			next := func() uint64 {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return rng
			}
			for i := 0; i < rounds; i++ {
				k := next() % space
				switch next() % 10 {
				case 0:
					tr.Insert(k)
				case 1:
					tr.Delete(k)
				case 2:
					tr.Store(k, seed)
				case 3:
					tr.Trie.LoadOrStore(tr.enc(k), seed)
				case 4:
					tr.Trie.CompareAndDelete(tr.enc(k), seed)
				case 5:
					tr.Replace(k, next()%space)
				case 6:
					tr.Trie.Swap(tr.enc(k), seed)
				case 7:
					tr.Trie.LoadAndDelete(tr.enc(k))
				case 8:
					tr.Trie.DeleteFunc(tr.enc(k), func(v any) bool { return v != seed })
				case 9:
					tr.Trie.CompareAndSwapFunc(tr.enc(k), func(v any) bool { return v != seed }, seed)
				}
			}
		}(uint64(w) + 1)
	}
	wg.Wait()
	if got, size := tr.Len(), tr.Size(); got != size {
		t.Fatalf("at quiescence Len() = %d but traversal Size() = %d", got, size)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}
