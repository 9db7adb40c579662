package sharded

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"nbtrie/internal/engine"
	"nbtrie/internal/keys"
	"nbtrie/internal/kv"
)

// TestShardCanonicalShape is the per-shard leg of the canonical-shape
// oracle (internal/engine/canonical_test.go): whatever concurrent
// history of Store, Delete, same-shard Replace, cross-shard MoveKey and
// Snapshot produced it, each shard must be, label for label, the trie a
// single thread builds from that shard's surviving keys, and must pass
// Validate.
func TestShardCanonicalShape(t *testing.T) {
	const width, workers, steps = 8, 4, 3000
	for _, span := range []uint32{1, 4} {
		tr, err := NewSpan[uint64](width, 4, span)
		if err != nil {
			t.Fatal(err)
		}
		low := uint64(1)<<(width-tr.ShardBits()) - 1 // the per-shard key bits
		stop := make(chan struct{})
		snapDone := make(chan struct{})
		go func() {
			defer close(snapDone)
			for {
				select {
				case <-stop:
					return
				default:
					tr.Snapshot()
					for k := uint64(0); k < 2000; k++ {
						_ = tr.Contains(k % (1 << width))
					}
				}
			}
		}()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for step := 0; step < steps; step++ {
					k := rng.Uint64() % (1 << width)
					switch op := rng.Intn(100); {
					case op < 35:
						tr.Store(k, uint64(step))
					case op < 60:
						tr.Delete(k)
					case op < 85:
						if _, err := tr.Replace(k, k&^low|rng.Uint64()&low); err != nil {
							t.Errorf("same-shard Replace: %v", err)
						}
					default:
						if _, err := tr.MoveKey(k, rng.Uint64()%(1<<width)); err != nil && !errors.Is(err, ErrMoveBusy) {
							t.Errorf("MoveKey: %v", err)
						}
					}
				}
			}(int64(100*span) + int64(w))
		}
		wg.Wait()
		close(stop)
		<-snapDone
		if n := tr.PendingMoves(); n != 0 {
			t.Fatalf("span %d: %d cross-shard moves still marked in flight", span, n)
		}
		for i, sh := range tr.shards {
			if err := sh.Validate(); err != nil {
				t.Fatalf("span %d shard %d: %v", span, i, err)
			}
			var survivors []uint64
			sh.AllKV(func(k uint64, _ uint64) bool {
				survivors = append(survivors, k)
				return true
			})
			ref, err := kv.NewU64(width-tr.ShardBits(), engine.WithSpan[keys.Uint64Key, uint64](span))
			if err != nil {
				t.Fatal(err)
			}
			// Descending: as unlike the concurrent history as any order.
			for j := len(survivors) - 1; j >= 0; j-- {
				ref.Insert(survivors[j])
			}
			if got, want := sh.Dump(), ref.Dump(); got != want {
				t.Errorf("span %d shard %d: quiescent shape differs from the sequentially built trie over the same %d keys\n--- got\n%s--- want\n%s",
					span, i, len(survivors), got, want)
			}
		}
	}
}

// heapAlloc returns the live heap after a forced collection.
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestFootprintMatchesHeap is the sharded leg of the engine's census
// check (internal/engine/layout_test.go): summed over 8 shards, the
// size-class-predicted bytes of 2^16 uniform keys and the measured
// HeapAlloc growth agree within 5 %.
func TestFootprintMatchesHeap(t *testing.T) {
	const n, shards = 1 << 16, 8
	rng := rand.New(rand.NewSource(21))
	ks := make([]uint64, 0, n)
	seen := make(map[uint64]bool, n)
	for len(ks) < n {
		k := rng.Uint64() >> 1
		if !seen[k] {
			seen[k] = true
			ks = append(ks, k)
		}
	}
	seen = nil

	before := heapAlloc()
	tr, err := New[uint64](63, shards)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range ks {
		tr.Store(k, uint64(i))
	}
	measured := float64(heapAlloc() - before)

	f := tr.Footprint()
	if f.Leaves != n+2*shards || f.Internal != n+shards {
		t.Errorf("census = %+v, want %d leaves and %d internal nodes", f, n+2*shards, n+shards)
	}
	predicted := float64(f.Bytes())
	t.Logf("%d keys over %d shards: measured %.1f B/key, predicted %.1f B/key", n, shards, measured/n, predicted/n)
	if d := (measured - predicted) / predicted; d < -0.05 || d > 0.05 {
		t.Errorf("measured heap %.0f B vs predicted %.0f B: off by %.1f %%, want within 5 %%", measured, predicted, 100*d)
	}
	runtime.KeepAlive(tr)
	runtime.KeepAlive(ks)
}
