package nbtrie

import (
	"errors"
	"sync"
	"testing"

	"nbtrie/internal/settest"
)

// shardedMapAdapter drives ShardedMap[uint64] through the settest map
// battery. The battery replaces between uniformly random key pairs, so
// it runs against a single-shard instance — the one configuration whose
// ReplaceKey covers the full key space; every routing path it exercises
// (locate, stitched Ascend, the ShardOf arithmetic) is the same code
// that runs multi-shard. Multi-shard behaviour — seam ordering, the
// cross-shard refusal, boundary keys — is pinned by the dedicated tests
// below and in internal/sharded, and the registry's set battery
// (TestConformanceAllImplementations) hammers a default-sharded instance
// concurrently.
type shardedMapAdapter struct {
	m *ShardedMap[uint64]
}

func (a shardedMapAdapter) Load(k uint64) (uint64, bool) { return a.m.Load(k) }
func (a shardedMapAdapter) Store(k, v uint64) bool       { return a.m.Store(k, v) }
func (a shardedMapAdapter) LoadOrStore(k, v uint64) (uint64, bool) {
	actual, loaded, _ := a.m.LoadOrStore(k, v)
	return actual, loaded
}
func (a shardedMapAdapter) Delete(k uint64) bool { return a.m.Delete(k) }
func (a shardedMapAdapter) CompareAndSwap(k, old, new uint64) bool {
	return a.m.CompareAndSwap(k, old, new)
}
func (a shardedMapAdapter) CompareAndDelete(k, old uint64) bool {
	return a.m.CompareAndDelete(k, old)
}
func (a shardedMapAdapter) ReplaceKey(old, new uint64) bool {
	swapped, err := a.m.ReplaceKey(old, new)
	if err != nil {
		panic(err) // single-shard: every in-range pair is same-shard
	}
	return swapped
}

func TestShardedMapConformance(t *testing.T) {
	settest.RunMap(t, func(keyRange uint64) settest.Map {
		m, err := NewShardedMap[uint64](widthForRange(keyRange), 1)
		if err != nil {
			t.Fatalf("NewShardedMap: %v", err)
		}
		return shardedMapAdapter{m}
	})
}

// TestShardedMapBasics exercises the public multi-shard surface: shard
// accounting, boundary keys, the ReplaceKey error contract and the
// stitched iterators.
func TestShardedMapBasics(t *testing.T) {
	m, err := NewShardedMap[string](10, 8)
	if err != nil {
		t.Fatal(err)
	}
	if m.Width() != 10 || m.Shards() != 8 {
		t.Fatalf("Width/Shards = %d/%d, want 10/8", m.Width(), m.Shards())
	}
	span := uint64(1 << 10 / 8)

	// One entry per shard, inserted in reverse, plus both sides of a seam.
	for idx := uint64(8); idx > 0; idx-- {
		base := (idx - 1) * span
		if !m.Store(base, "base") {
			t.Fatalf("Store(%d) failed", base)
		}
	}
	m.Store(span-1, "last-of-0")
	if m.Len() != 9 {
		t.Fatalf("Len = %d, want 9", m.Len())
	}

	var ks []uint64
	for k, v := range m.All() {
		ks = append(ks, k)
		if v == "" {
			t.Fatalf("key %d lost its value", k)
		}
	}
	want := []uint64{0, span - 1, span, 2 * span, 3 * span, 4 * span, 5 * span, 6 * span, 7 * span}
	if len(ks) != len(want) {
		t.Fatalf("All yielded %v, want %v", ks, want)
	}
	for i := range want {
		if ks[i] != want[i] {
			t.Fatalf("All[%d] = %d, want %d (stitched order broken)", i, ks[i], want[i])
		}
	}

	// Ascend resumes across the seam.
	ks = nil
	for k := range m.Ascend(span - 1) {
		ks = append(ks, k)
	}
	if len(ks) != 8 || ks[0] != span-1 || ks[1] != span {
		t.Fatalf("Ascend(seam-1) = %v", ks)
	}

	// Same-shard ReplaceKey works; cross-shard refuses with ErrCrossShard
	// and changes nothing.
	if !m.SameShard(0, span-1) || m.SameShard(0, span) {
		t.Fatal("SameShard disagrees with the partition")
	}
	if swapped, err := m.ReplaceKey(span-1, span-2); err != nil || !swapped {
		t.Fatalf("same-shard ReplaceKey = %v, %v", swapped, err)
	}
	if v, ok := m.Load(span - 2); !ok || v != "last-of-0" {
		t.Fatalf("value did not travel: %q,%v", v, ok)
	}
	if swapped, err := m.ReplaceKey(span-2, span+1); !errors.Is(err, ErrCrossShard) || swapped {
		t.Fatalf("cross-shard ReplaceKey = %v, %v; want false, ErrCrossShard", swapped, err)
	}
	if !m.Contains(span-2) || m.Contains(span+1) {
		t.Fatal("cross-shard ReplaceKey must leave the map unchanged")
	}

	// Out-of-range keys: absent everywhere, nil error on ReplaceKey.
	if m.Store(1<<10, "x") || m.Contains(1<<10) {
		t.Error("out-of-range key must be rejected")
	}
	if swapped, err := m.ReplaceKey(0, 1<<10); swapped || err != nil {
		t.Errorf("out-of-range ReplaceKey = %v, %v; want false, nil", swapped, err)
	}
}

// TestShardedMapSwapFamily covers the sync.Map-style primitives on a
// non-comparable value type, where CompareAndSwap would panic and
// CompareAndSwapFunc is the conditional update.
func TestShardedMapSwapFamily(t *testing.T) {
	m, err := NewShardedMap[[]byte](16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if prev, loaded, ok := m.Swap(7, []byte("a")); !ok || loaded || prev != nil {
		t.Fatalf("Swap(absent) = %q, %v, %v", prev, loaded, ok)
	}
	if prev, loaded, ok := m.Swap(7, []byte("b")); !ok || !loaded || string(prev) != "a" {
		t.Fatalf("Swap(present) = %q, %v, %v; want the replaced a", prev, loaded, ok)
	}
	if _, _, ok := m.Swap(1<<16, []byte("x")); ok {
		t.Fatal("Swap stored an out-of-range key")
	}
	isB := func(v []byte) bool { return string(v) == "b" }
	if m.CompareAndSwapFunc(8, isB, []byte("c")) || m.Contains(8) {
		t.Fatal("CompareAndSwapFunc stored an absent key")
	}
	if !m.CompareAndSwapFunc(7, isB, []byte("c")) || m.CompareAndSwapFunc(7, isB, []byte("d")) {
		t.Fatal("CompareAndSwapFunc ignored its condition")
	}
	if v, loaded := m.LoadAndDelete(7); !loaded || string(v) != "c" || m.Len() != 0 {
		t.Fatalf("LoadAndDelete = %q, %v with %d keys left", v, loaded, m.Len())
	}
	if _, loaded := m.LoadAndDelete(7); loaded {
		t.Fatal("LoadAndDelete of an absent key loaded")
	}
}

// TestShardedMapDefaultShards: shards = 0 picks the documented default.
func TestShardedMapDefaultShards(t *testing.T) {
	m, err := NewShardedMap[int](30, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := m.Shards(); n < 1 || n > 256 || n&(n-1) != 0 {
		t.Fatalf("default shard count %d is not a power of two in [1, 256]", n)
	}
}

// TestShardedMapConcurrent hammers a multi-shard map from goroutines
// pinned to different shards plus one roaming across all of them,
// mixing same-shard ReplaceKey into the traffic.
func TestShardedMapConcurrent(t *testing.T) {
	m, err := NewShardedMap[uint64](12, 4)
	if err != nil {
		t.Fatal(err)
	}
	span := uint64(1 << 12 / 4)
	var wg sync.WaitGroup
	for g := 0; g < 5; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := uint64(g%4) * span
			for i := uint64(0); i < 3000; i++ {
				k := base + i%span
				if g == 4 { // roamer: uniform over the whole space
					k = (i * 2654435761) % (1 << 12)
				}
				switch i % 4 {
				case 0:
					m.Store(k, k)
				case 1:
					if v, ok := m.Load(k); ok && v != k && v != k^1 {
						panic("foreign value")
					}
				case 2:
					m.Delete(k)
				case 3:
					if _, err := m.ReplaceKey(k, k^1); err != nil {
						panic(err) // sibling keys always share a shard
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestShardedMapLoadDoesNotAllocate pins the public wait-free read path
// of the sharded map at multi-shard configuration: Load and Contains
// must stay allocation-free through the routing layer (the satellite
// twin of the registry-level Contains pin).
func TestShardedMapLoadDoesNotAllocate(t *testing.T) {
	m, err := NewShardedMap[int](20, 8)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 1<<20; k += 1 << 14 {
		m.Store(k, int(k)+7) // every shard gets entries
	}
	hit := uint64(3 << 14)
	if n := testing.AllocsPerRun(500, func() {
		if v, ok := m.Load(hit); !ok || v != int(hit)+7 {
			t.Fatal("Load(hit) wrong")
		}
		if _, ok := m.Load(hit + 1); ok {
			t.Fatal("Load(miss) false positive")
		}
		if !m.Contains(hit) {
			t.Fatal("Contains missed")
		}
	}); n != 0 {
		t.Errorf("ShardedMap read path allocates %v objects per call, want 0", n)
	}
}
