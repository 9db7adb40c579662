package nbtrie

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"nbtrie/internal/engine"
	"nbtrie/internal/keys"
	"nbtrie/internal/settest"
)

// shardedMapAdapter drives ShardedMap[uint64] through the settest map
// battery at 8 shards: its replaces between uniformly random key pairs
// mostly cross shards, which is one atomic Replace like any other.
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
		panic(err) // ReplaceKey's error is always nil
	}
	return swapped
}

func TestShardedMapConformance(t *testing.T) {
	settest.RunMap(t, func(keyRange uint64) settest.Map {
		m, err := NewShardedMap[uint64](widthForRange(keyRange), 8)
		if err != nil {
			t.Fatalf("NewShardedMap: %v", err)
		}
		return shardedMapAdapter{m}
	})
}

// TestShardedMapNewValidation pins the constructor contract: width
// bounds, the power-of-two shard count, the 0 = default rule, and the
// clamp that leaves each shard at least one key bit.
func TestShardedMapNewValidation(t *testing.T) {
	for _, width := range []uint32{0, 64} {
		if _, err := NewShardedMap[int](width, 4); err == nil {
			t.Errorf("width %d must be rejected", width)
		}
	}
	for _, shards := range []int{-1, 3, 5, 6, 7, 257, 512} {
		if _, err := NewShardedMap[int](20, shards); err == nil {
			t.Errorf("shard count %d must be rejected", shards)
		}
	}
	m, err := NewShardedMap[int](20, 256)
	if err != nil || m.Shards() != 256 || m.Width() != 20 {
		t.Fatalf("NewShardedMap(20, 256) = %d shards, width %d, err %v", m.Shards(), m.Width(), err)
	}
	d, err := NewShardedMap[int](30, 0)
	if err != nil || d.Shards() != defaultShards() {
		t.Fatalf("NewShardedMap(30, 0) = %d shards, err %v; want the default %d", d.Shards(), err, defaultShards())
	}
	narrow, err := NewShardedMap[int](2, 256)
	if err != nil || narrow.Shards() != 2 {
		t.Fatalf("width 2 with 256 requested shards: got %d shards, err %v; want 2", narrow.Shards(), err)
	}
	for k := uint64(0); k < 4; k++ {
		if !narrow.Store(k, int(k)) || !narrow.Contains(k) {
			t.Errorf("clamped map cannot hold key %d", k)
		}
	}
	if err := narrow.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedMapNewSpan pins the k-ary composition: NewShardedMapSpan
// validates the span range, and a span-4 map under an 8-shard root
// serves stores, loads, deletes and ReplaceKey within and across shards
// with its invariants intact. The root digit takes the top 3 of 20 key
// bits, so the span need not divide what is left below it.
func TestShardedMapNewSpan(t *testing.T) {
	for _, span := range []uint32{0, 7, 100} {
		if _, err := NewShardedMapSpan[int](20, 4, span); err == nil {
			t.Errorf("span %d must be rejected", span)
		}
	}
	m, err := NewShardedMapSpan[int](20, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.Shards() != 8 || m.Width() != 20 {
		t.Fatalf("NewShardedMapSpan(20, 8, 4) = %d shards, width %d", m.Shards(), m.Width())
	}
	const n = 2000
	for k := uint64(0); k < n; k++ {
		if !m.Store(k<<9, int(k)) { // spread over every shard
			t.Fatalf("Store(%d) failed", k<<9)
		}
	}
	for k := uint64(0); k < n; k++ {
		if v, ok := m.Load(k << 9); !ok || v != int(k) {
			t.Fatalf("Load(%d) = %d, %v", k<<9, v, ok)
		}
	}
	if swapped, err := m.ReplaceKey(5<<9, 5<<9|1); err != nil || !swapped {
		t.Fatalf("same-shard ReplaceKey = %v, %v", swapped, err)
	}
	if swapped, err := m.ReplaceKey(7<<9, 1<<19|1); err != nil || !swapped {
		t.Fatalf("cross-shard ReplaceKey = %v, %v", swapped, err)
	}
	if m.Contains(5<<9) || !m.Contains(5<<9|1) || m.Contains(7<<9) || !m.Contains(1<<19|1) {
		t.Fatal("ReplaceKey moved the wrong key")
	}
	for k := uint64(0); k < n; k += 2 {
		if !m.Delete(k << 9) {
			t.Fatalf("Delete(%d) failed", k<<9)
		}
	}
	if got, want := m.Len(), n/2; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestShardBoundaryKeys drives the first and last key of every shard's
// slice — where an off-by-one in the root digit would misfile or collide
// — through store, load and delete, and checks that ShardEngineStats
// counts each update in its own shard. The trie stores k+1, so shard i's
// slice of a width-10, 8-shard map is [128i-1, 128i+127), and the last
// shard also holds key 1023.
func TestShardBoundaryKeys(t *testing.T) {
	const width, shards, span = 10, 8, 128
	for _, s := range []uint32{1, 4} {
		m, err := NewShardedMapSpan[uint64](width, shards, s)
		if err != nil {
			t.Fatal(err)
		}
		var boundary []uint64
		for i := uint64(0); i < shards; i++ {
			boundary = append(boundary, max(i*span, 1)-1, i*span+span-2)
		}
		boundary = append(boundary, 1<<width-1)
		for _, k := range boundary {
			if !m.Store(k, k*3) {
				t.Fatalf("Store(%d) failed", k)
			}
		}
		for i := range shards {
			want := int64(2)
			if i == shards-1 {
				want = 3
			}
			if got := m.ShardEngineStats(i).DepthSamples; got != want {
				t.Errorf("span %d: shard %d counted %d updates, want %d", s, i, got, want)
			}
		}
		for _, k := range boundary {
			if v, ok := m.Load(k); !ok || v != k*3 {
				t.Fatalf("Load(%d) = %d,%v want %d,true", k, v, ok, k*3)
			}
		}
		// The first key of a slice does not shadow the last of the one
		// before: they sit under different root slots.
		for i := uint64(1); i < shards; i++ {
			if !m.Delete(i*span-1) || !m.Contains(i*span-2) {
				t.Fatalf("span %d: deleting %d disturbed %d", s, i*span-1, i*span-2)
			}
		}
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardedMapBasics exercises the public multi-shard surface: shard
// accounting and iteration across the slices.
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
	m.Store(span-2, "last-of-0")
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
	want := []uint64{0, span - 2, span, 2 * span, 3 * span, 4 * span, 5 * span, 6 * span, 7 * span}
	if len(ks) != len(want) {
		t.Fatalf("All yielded %v, want %v", ks, want)
	}
	for i := range want {
		if ks[i] != want[i] {
			t.Fatalf("All[%d] = %d, want %d (order broken across root slots)", i, ks[i], want[i])
		}
	}

	// Ascend resumes across the seam.
	ks = nil
	for k := range m.Ascend(span - 2) {
		ks = append(ks, k)
	}
	if len(ks) != 8 || ks[0] != span-2 || ks[1] != span {
		t.Fatalf("Ascend(seam) = %v", ks)
	}

	if m.Store(1<<10, "x") || m.Contains(1<<10) {
		t.Error("out-of-range key must be rejected")
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedMapReplaceContract pins ReplaceKey on a multi-shard map:
// within a shard and across shards the value travels and the error is
// nil; onto a present key, from an absent one, or with either key out of
// range it reports false with a nil error and changes nothing.
func TestShardedMapReplaceContract(t *testing.T) {
	m, err := NewShardedMap[string](10, 8)
	if err != nil {
		t.Fatal(err)
	}
	span := uint64(1 << 10 / 8)
	m.Store(0, "base")
	m.Store(3, "payload")

	if swapped, err := m.ReplaceKey(3, 9); err != nil || !swapped {
		t.Fatalf("same-shard ReplaceKey = %v, %v", swapped, err)
	}
	if v, ok := m.Load(9); !ok || v != "payload" || m.Contains(3) {
		t.Fatalf("same-shard ReplaceKey: Load(9) = %q,%v, old key present %v", v, ok, m.Contains(3))
	}
	if swapped, err := m.ReplaceKey(9, 5*span+1); err != nil || !swapped {
		t.Fatalf("cross-shard ReplaceKey = %v, %v", swapped, err)
	}
	if v, ok := m.Load(5*span + 1); !ok || v != "payload" || m.Contains(9) {
		t.Fatalf("cross-shard ReplaceKey: Load(%d) = %q,%v, old key present %v", 5*span+1, v, ok, m.Contains(9))
	}

	if swapped, err := m.ReplaceKey(5*span+1, 0); swapped || err != nil {
		t.Fatalf("ReplaceKey onto a present key = %v, %v; want false, nil", swapped, err)
	}
	if swapped, err := m.ReplaceKey(span+1, 2*span); swapped || err != nil || m.Contains(2*span) {
		t.Fatalf("cross-shard ReplaceKey from an absent key = %v, %v; want false, nil", swapped, err)
	}
	if swapped, err := m.ReplaceKey(0, 1<<10); swapped || err != nil {
		t.Fatalf("out-of-range new key: ReplaceKey = %v, %v; want false, nil", swapped, err)
	}
	if swapped, err := m.ReplaceKey(1<<10, 9); swapped || err != nil || m.Contains(9) {
		t.Fatalf("out-of-range old key: ReplaceKey = %v, %v; want false, nil", swapped, err)
	}
	if v0, _ := m.Load(0); v0 != "base" || m.Len() != 2 {
		t.Fatalf("refused ReplaceKeys changed the map: Load(0) = %q, Len = %d", v0, m.Len())
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedMapSequentialOracle replays random workloads of every map
// operation, ReplaceKey between uniform key pairs included, against a Go
// map at 1, 4 and 32 shards. Most of its replaces cross shards, and
// each must behave as the unsharded Replace does.
func TestShardedMapSequentialOracle(t *testing.T) {
	const width = 9
	for _, shardCount := range []int{1, 4, 32} {
		m, err := NewShardedMap[uint64](width, shardCount)
		if err != nil {
			t.Fatal(err)
		}
		keyRange := uint64(1) << width
		rng := rand.New(rand.NewSource(int64(shardCount)))
		oracle := make(map[uint64]uint64)
		for i := 0; i < 20000; i++ {
			k := rng.Uint64() % keyRange
			val := rng.Uint64() % 64
			switch rng.Intn(9) {
			case 0:
				if !m.Store(k, val) {
					t.Fatalf("shards=%d op=%d: Store(%d) failed", shardCount, i, k)
				}
				oracle[k] = val
			case 1:
				ov, oOK := oracle[k]
				if v, ok := m.Load(k); ok != oOK || (ok && v != ov) {
					t.Fatalf("shards=%d op=%d: Load(%d) = %d,%v want %d,%v", shardCount, i, k, v, ok, ov, oOK)
				}
			case 2:
				_, oOK := oracle[k]
				if got := m.Delete(k); got != oOK {
					t.Fatalf("shards=%d op=%d: Delete(%d) = %v want %v", shardCount, i, k, got, oOK)
				}
				delete(oracle, k)
			case 3:
				ov, oOK := oracle[k]
				old := rng.Uint64() % 64
				want := oOK && ov == old
				if got := m.CompareAndSwap(k, old, val); got != want {
					t.Fatalf("shards=%d op=%d: CAS(%d) = %v want %v", shardCount, i, k, got, want)
				}
				if want {
					oracle[k] = val
				}
			case 4:
				ov, oOK := oracle[k]
				v, loaded, ok := m.LoadOrStore(k, val)
				if !ok || loaded != oOK || (loaded && v != ov) || (!loaded && v != val) {
					t.Fatalf("shards=%d op=%d: LoadOrStore(%d) = %d,%v,%v oracle %d,%v", shardCount, i, k, v, loaded, ok, ov, oOK)
				}
				if !loaded {
					oracle[k] = val
				}
			case 5:
				k2 := rng.Uint64() % keyRange
				ov, oOK := oracle[k]
				_, o2OK := oracle[k2]
				want := oOK && !o2OK && k != k2
				if swapped, err := m.ReplaceKey(k, k2); err != nil || swapped != want {
					t.Fatalf("shards=%d op=%d: ReplaceKey(%d,%d) = %v, %v want %v, nil", shardCount, i, k, k2, swapped, err, want)
				}
				if want {
					delete(oracle, k)
					oracle[k2] = ov
				}
			case 6:
				ov, oOK := oracle[k]
				prev, loaded, ok := m.Swap(k, val)
				if !ok || loaded != oOK || (loaded && prev != ov) {
					t.Fatalf("shards=%d op=%d: Swap(%d) = %d,%v,%v oracle %d,%v", shardCount, i, k, prev, loaded, ok, ov, oOK)
				}
				oracle[k] = val
			case 7:
				ov, oOK := oracle[k]
				if v, loaded := m.LoadAndDelete(k); loaded != oOK || (loaded && v != ov) {
					t.Fatalf("shards=%d op=%d: LoadAndDelete(%d) = %d,%v oracle %d,%v", shardCount, i, k, v, loaded, ov, oOK)
				}
				delete(oracle, k)
			case 8:
				ov, oOK := oracle[k]
				old := rng.Uint64() % 64
				want := oOK && ov == old
				if got := m.CompareAndSwapFunc(k, func(v uint64) bool { return v == old }, val); got != want {
					t.Fatalf("shards=%d op=%d: CompareAndSwapFunc(%d) = %v want %v", shardCount, i, k, got, want)
				}
				if want {
					oracle[k] = val
				}
			}
		}
		if m.Len() != len(oracle) {
			t.Fatalf("shards=%d: Len = %d, oracle %d", shardCount, m.Len(), len(oracle))
		}
		for k, ov := range oracle {
			if v, ok := m.Load(k); !ok || v != ov {
				t.Fatalf("shards=%d final: Load(%d) = %d,%v want %d,true", shardCount, k, v, ok, ov)
			}
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("shards=%d: %v", shardCount, err)
		}
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
// pinned to different shards plus one roaming across all of them, with
// ReplaceKey moving keys to the neighbouring shard. Run with -race.
func TestShardedMapConcurrent(t *testing.T) {
	m, err := NewShardedMap[uint64](12, 4)
	if err != nil {
		t.Fatal(err)
	}
	const keySpace = 1 << 12
	span := uint64(keySpace / 4)
	var wg sync.WaitGroup
	for g := 0; g < 5; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := uint64(g%4) * span
			for i := uint64(0); i < 3000; i++ {
				k := base + i%span
				if g == 4 { // roamer: uniform over the whole space
					k = (i * 2654435761) % keySpace
				}
				switch i % 4 {
				case 0:
					m.Store(k, k%span)
				case 1:
					if v, ok := m.Load(k); ok && v != k%span {
						panic("foreign value")
					}
				case 2:
					m.Delete(k)
				case 3:
					if _, err := m.ReplaceKey(k, (k+span)%keySpace); err != nil {
						panic(err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
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

// TestShardedReadPathDoesNotAllocate pins Load and Contains in every
// root slot, a hit and two misses each, and on an out-of-range key: none
// of them may allocate.
func TestShardedReadPathDoesNotAllocate(t *testing.T) {
	m, err := NewShardedMap[uint64](16, 8)
	if err != nil {
		t.Fatal(err)
	}
	span := uint64(1) << (16 - 3)
	for k := uint64(0); k < 1<<16; k += 3 {
		m.Store(k, k)
	}
	if n := testing.AllocsPerRun(500, func() {
		for i := uint64(0); i < 8; i++ {
			base := i * span
			hit := base + (3-base%3)%3
			if v, ok := m.Load(hit); !ok || v != hit {
				t.Fatalf("Load(%d) in shard %d missed", hit, i)
			}
			if m.Contains(hit+1) || m.Contains(hit+2) {
				t.Fatalf("Contains false positive in shard %d", i)
			}
		}
		if _, ok := m.Load(1 << 16); ok || m.Contains(1<<16) {
			t.Fatal("out-of-range key must miss")
		}
	}); n != 0 {
		t.Errorf("sharded misses and out-of-range reads allocate %v objects per call, want 0", n)
	}
}

// TestShardCanonicalShape is the sharded leg of the canonical-shape
// oracle (internal/engine/canonical_test.go) at the sharded schedule — a
// 3-bit root over span 1 and span 4: whatever concurrent history of
// Store, Delete, ReplaceKey within and across shards and Snapshot
// produced it, the trie must be, label for label, the trie a single
// thread builds from its surviving keys, and must pass Validate.
func TestShardCanonicalShape(t *testing.T) {
	const width, workers, steps = 8, 4, 3000
	for _, span := range []uint32{1, 4} {
		m, err := NewShardedMapSpan[uint64](width, 4, span)
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		snapDone := make(chan struct{})
		go func() {
			defer close(snapDone)
			for {
				select {
				case <-stop:
					return
				default:
					m.Snapshot()
					for k := uint64(0); k < 2000; k++ {
						_ = m.Contains(k % (1 << width))
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
						m.Store(k, uint64(step))
					case op < 60:
						m.Delete(k)
					case op < 80:
						m.ReplaceKey(k, k^1) // same shard, but for the seams
					default:
						m.ReplaceKey(k, rng.Uint64()%(1<<width))
					}
				}
			}(int64(100*span) + int64(w))
		}
		wg.Wait()
		close(stop)
		<-snapDone
		if err := m.Validate(); err != nil {
			t.Fatalf("span %d: %v", span, err)
		}
		ref, err := newU64(width, engine.WithSpan[keys.Uint64Key, uint64](span), engine.WithRootSpan[keys.Uint64Key, uint64](3))
		if err != nil {
			t.Fatal(err)
		}
		var survivors []uint64
		for k := range m.All() {
			survivors = append(survivors, k)
		}
		// Descending: as unlike the concurrent history as any order.
		for j := len(survivors) - 1; j >= 0; j-- {
			ref.Insert(survivors[j])
		}
		if got, want := m.t.Dump(), ref.Dump(); got != want {
			t.Errorf("span %d: quiescent shape differs from the sequentially built trie over the same %d keys\n--- got\n%s--- want\n%s",
				span, len(survivors), got, want)
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

// TestShardedFootprintMatchesHeap is the sharded leg of the engine's
// census check (internal/engine/layout_test.go): 2^16 uniform keys under
// an 8-shard root, where the size-class-predicted bytes and the measured
// HeapAlloc growth agree within 5 %.
func TestShardedFootprintMatchesHeap(t *testing.T) {
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
	m, err := NewShardedMap[uint64](63, shards)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range ks {
		m.Store(k, uint64(i))
	}
	measured := float64(heapAlloc() - before)

	// One trie: n+2 leaves with the dummies, under binary internal nodes
	// and a root with nine children (slots 0-7 and the upper dummy's), so
	// n+2+1-9 internal nodes.
	f := m.t.e.Footprint()
	if f.Leaves != n+2 || f.Internal != n-6 {
		t.Errorf("census = %+v, want %d leaves and %d internal nodes", f, n+2, n-6)
	}
	predicted := float64(f.Bytes())
	t.Logf("%d keys over %d shards: measured %.1f B/key, predicted %.1f B/key", n, shards, measured/n, predicted/n)
	if d := (measured - predicted) / predicted; d < -0.05 || d > 0.05 {
		t.Errorf("measured heap %.0f B vs predicted %.0f B: off by %.1f %%, want within 5 %%", measured, predicted, 100*d)
	}
	runtime.KeepAlive(m)
	runtime.KeepAlive(ks)
}
