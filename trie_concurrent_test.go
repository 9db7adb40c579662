package nbtrie

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// Concurrency tests. The algorithm's correctness does not depend on
// parallel hardware, but forcing several OS threads maximizes genuine
// interleavings; the -race detector validates the memory-model claims.

func withThreads(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestConcurrentDisjointInserts gives each goroutine a private slice of
// the key space; afterwards every inserted key must be present. Updates
// to disjoint parts of the trie must not disturb one another (a headline
// claim of the paper).
func TestConcurrentDisjointInserts(t *testing.T) {
	withThreads(t, 8)
	const (
		goroutines = 8
		perG       = 2000
	)
	tr := mustNew(t, 20)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			for i := uint64(0); i < perG; i++ {
				if !tr.Insert(base + i) {
					t.Errorf("Insert(%d) returned false for a unique key", base+i)
					return
				}
			}
		}(uint64(g) * perG)
	}
	wg.Wait()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := tr.e.Size(); got != goroutines*perG {
		t.Fatalf("Size() = %d, want %d", got, goroutines*perG)
	}
	for k := uint64(0); k < goroutines*perG; k++ {
		if !tr.Contains(k) {
			t.Fatalf("key %d lost", k)
		}
	}
}

// TestConcurrentDisjointMixed partitions the key space and runs a random
// mixed workload (including replaces within the partition) against a
// per-goroutine oracle. Because partitions are disjoint, each goroutine's
// operations are sequential with respect to its own keys, so the oracle
// must match exactly.
func TestConcurrentDisjointMixed(t *testing.T) {
	withThreads(t, 8)
	const (
		goroutines = 8
		span       = uint64(512)
		ops        = 30000
	)
	tr := mustNew(t, 20)
	var wg sync.WaitGroup
	oracles := make([]map[uint64]bool, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		oracles[g] = make(map[uint64]bool)
		go func(g int) {
			defer wg.Done()
			base := uint64(g) * span
			rng := rand.New(rand.NewSource(int64(g)))
			oracle := oracles[g]
			for i := 0; i < ops; i++ {
				k := base + rng.Uint64()%span
				switch rng.Intn(4) {
				case 0:
					if got, want := tr.Insert(k), !oracle[k]; got != want {
						t.Errorf("g%d Insert(%d)=%v want %v", g, k, got, want)
						return
					}
					oracle[k] = true
				case 1:
					if got, want := tr.Delete(k), oracle[k]; got != want {
						t.Errorf("g%d Delete(%d)=%v want %v", g, k, got, want)
						return
					}
					delete(oracle, k)
				case 2:
					k2 := base + rng.Uint64()%span
					want := oracle[k] && !oracle[k2] && k != k2
					if got := tr.Replace(k, k2); got != want {
						t.Errorf("g%d Replace(%d,%d)=%v want %v", g, k, k2, got, want)
						return
					}
					if want {
						delete(oracle, k)
						oracle[k2] = true
					}
				case 3:
					if got, want := tr.Contains(k), oracle[k]; got != want {
						t.Errorf("g%d Contains(%d)=%v want %v", g, k, got, want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for g, oracle := range oracles {
		base := uint64(g) * span
		for k := base; k < base+span; k++ {
			if got, want := tr.Contains(k), oracle[k]; got != want {
				t.Fatalf("g%d final Contains(%d)=%v want %v", g, k, got, want)
			}
		}
	}
}

// TestConcurrentContendedCounting hammers a tiny key range from many
// goroutines and then checks per-key accounting: for every key, the
// number of successful inserts minus successful deletes must be 0 or 1
// and must equal its final presence. This holds in every linearization.
func TestConcurrentContendedCounting(t *testing.T) {
	withThreads(t, 8)
	const (
		goroutines = 8
		keyRange   = 16
		ops        = 20000
	)
	tr := mustNew(t, 8)
	var ins, del [keyRange]atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < ops; i++ {
				k := rng.Uint64() % keyRange
				if rng.Intn(2) == 0 {
					if tr.Insert(k) {
						ins[k].Add(1)
					}
				} else {
					if tr.Delete(k) {
						del[k].Add(1)
					}
				}
			}
		}(int64(g))
	}
	wg.Wait()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < keyRange; k++ {
		diff := ins[k].Load() - del[k].Load()
		if diff != 0 && diff != 1 {
			t.Fatalf("key %d: inserts-deletes = %d, must be 0 or 1", k, diff)
		}
		if got, want := tr.Contains(uint64(k)), diff == 1; got != want {
			t.Fatalf("key %d: Contains=%v but accounting says %v", k, got, want)
		}
	}
}

// TestConcurrentReplaceConservation checks the atomicity consequence of
// replace: every successful replace removes one key and adds one, so
// under a replace-only workload the set's cardinality is invariant.
func TestConcurrentReplaceConservation(t *testing.T) {
	withThreads(t, 8)
	const (
		goroutines = 8
		initial    = 200
		keyRange   = uint64(4096)
		ops        = 15000
	)
	tr := mustNew(t, 12)
	for k := uint64(0); k < initial; k++ {
		tr.Insert(k * (keyRange / initial))
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < ops; i++ {
				tr.Replace(rng.Uint64()%keyRange, rng.Uint64()%keyRange)
			}
		}(int64(g))
	}
	wg.Wait()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := tr.e.Size(); got != initial {
		t.Fatalf("Size() = %d after replace-only load, want %d", got, initial)
	}
}

// TestConcurrentReplaceAndFind runs replaces against concurrent wait-free
// finds; finds must never crash, never block, and must always return a
// coherent answer for keys that are permanently present.
func TestConcurrentReplaceAndFind(t *testing.T) {
	withThreads(t, 8)
	const anchored = uint64(1_000_000 - 1)
	tr := mustNew(t, 20)
	tr.Insert(anchored)
	for k := uint64(0); k < 128; k++ {
		tr.Insert(k)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
					tr.Replace(rng.Uint64()%512, rng.Uint64()%512)
				}
			}
		}(int64(g))
	}
	for i := 0; i < 50000; i++ {
		if !tr.Contains(anchored) {
			t.Error("anchored key vanished during concurrent replaces")
			break
		}
	}
	close(stop)
	wg.Wait()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentHighContentionMixed is a catch-all stress run over a tiny
// key range with all four operations plus invariant validation; primarily
// valuable under -race.
func TestConcurrentHighContentionMixed(t *testing.T) {
	withThreads(t, 8)
	const (
		goroutines = 8
		keyRange   = 8
		ops        = 10000
	)
	tr := mustNew(t, 6)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < ops; i++ {
				k := rng.Uint64() % keyRange
				switch rng.Intn(4) {
				case 0:
					tr.Insert(k)
				case 1:
					tr.Delete(k)
				case 2:
					tr.Replace(k, rng.Uint64()%keyRange)
				case 3:
					tr.Contains(k)
				}
			}
		}(int64(g))
	}
	wg.Wait()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}
