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

// TestShardedMapConformance runs the map battery on a span-4 trie built
// through newTrie: its root has 16 slots, so the battery's replaces
// between uniformly random key pairs mostly cross root slots, Figure 6's
// general case with its two parents under different slots of a wide
// root, and the linearizability leg checks that each is one atomic step.
func TestShardedMapConformance(t *testing.T) {
	settest.RunMap(t, func(keyRange uint64) settest.Map {
		return mapAdapter{spanMap(widthForRange(keyRange), 4)}
	})
}

// spanMap returns an empty Map whose trie resolves span key bits per
// level, the root included.
func spanMap(width, span uint32) *Map[uint64] {
	return &Map[uint64]{t: newTrie[uint64](keys.U64Codec{Width: width}, engine.WithSpan[keys.Uint64Key, uint64](span))}
}

// TestShardedMapNewValidation pins the deprecated constructor: it is
// NewMap, so the width is checked as NewMap checks it, while any shard
// count is accepted, ignored and reported as 1, and ShardEngineStats is
// the map's own update count whatever shard it is asked for.
func TestShardedMapNewValidation(t *testing.T) {
	for _, width := range []uint32{0, 64} {
		if _, err := NewShardedMap[int](width, 4); err == nil {
			t.Errorf("width %d must be rejected", width)
		}
	}
	for _, shards := range []int{-1, 0, 1, 3, 8, 512} {
		m, err := NewShardedMap[int](20, shards)
		if err != nil || m.Shards() != 1 || m.Width() != 20 {
			t.Fatalf("NewShardedMap(20, %d) = %v shards, width %v, err %v; want 1, 20, nil", shards, m.Shards(), m.Width(), err)
		}
		for k := uint64(0); k < 5; k++ {
			m.Store(k<<17, int(k))
		}
		if got, want := m.ShardEngineStats(shards), m.EngineStats().DepthSamples; got.DepthSamples != want || want != 5 {
			t.Fatalf("ShardEngineStats(%d).DepthSamples = %d, EngineStats %d; want both 5", shards, got.DepthSamples, want)
		}
	}
}

// TestShardedMapBasics exercises the deprecated surface over eight
// slices of the key space: one shard, and iteration in key order.
func TestShardedMapBasics(t *testing.T) {
	m, err := NewShardedMap[string](10, 8)
	if err != nil {
		t.Fatal(err)
	}
	if m.Width() != 10 || m.Shards() != 1 {
		t.Fatalf("Width/Shards = %d/%d, want 10/1", m.Width(), m.Shards())
	}
	span := uint64(1 << 10 / 8)

	// One entry per slice, inserted in reverse, plus both sides of a seam.
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
			t.Fatalf("All[%d] = %d, want %d (order broken across slices)", i, ks[i], want[i])
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

// TestShardedMapReplaceContract pins the deprecated ReplaceKey: between
// near keys and between keys in different halves of the key space (under
// different children of the binary root) the value travels and the error
// is nil; onto a present key, from an absent one, or with either key out
// of range it reports false with a nil error and changes nothing.
func TestShardedMapReplaceContract(t *testing.T) {
	m, err := NewShardedMap[string](10, 8)
	if err != nil {
		t.Fatal(err)
	}
	span := uint64(1 << 10 / 8)
	m.Store(0, "base")
	m.Store(3, "payload")

	if swapped, err := m.ReplaceKey(3, 9); err != nil || !swapped {
		t.Fatalf("near ReplaceKey = %v, %v", swapped, err)
	}
	if v, ok := m.Load(9); !ok || v != "payload" || m.Contains(3) {
		t.Fatalf("near ReplaceKey: Load(9) = %q,%v, old key present %v", v, ok, m.Contains(3))
	}
	if swapped, err := m.ReplaceKey(9, 5*span+1); err != nil || !swapped {
		t.Fatalf("far ReplaceKey = %v, %v", swapped, err)
	}
	if v, ok := m.Load(5*span + 1); !ok || v != "payload" || m.Contains(9) {
		t.Fatalf("far ReplaceKey: Load(%d) = %q,%v, old key present %v", 5*span+1, v, ok, m.Contains(9))
	}

	if swapped, err := m.ReplaceKey(5*span+1, 0); swapped || err != nil {
		t.Fatalf("ReplaceKey onto a present key = %v, %v; want false, nil", swapped, err)
	}
	if swapped, err := m.ReplaceKey(span+1, 2*span); swapped || err != nil || m.Contains(2*span) {
		t.Fatalf("ReplaceKey from an absent key = %v, %v; want false, nil", swapped, err)
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
// map through the deprecated surface, three seeds.
func TestShardedMapSequentialOracle(t *testing.T) {
	const width = 9
	for _, seed := range []int{1, 4, 32} {
		m, err := NewShardedMap[uint64](width, seed)
		if err != nil {
			t.Fatal(err)
		}
		keyRange := uint64(1) << width
		rng := rand.New(rand.NewSource(int64(seed)))
		oracle := make(map[uint64]uint64)
		for i := 0; i < 20000; i++ {
			k := rng.Uint64() % keyRange
			val := rng.Uint64() % 64
			switch rng.Intn(9) {
			case 0:
				if !m.Store(k, val) {
					t.Fatalf("seed=%d op=%d: Store(%d) failed", seed, i, k)
				}
				oracle[k] = val
			case 1:
				ov, oOK := oracle[k]
				if v, ok := m.Load(k); ok != oOK || (ok && v != ov) {
					t.Fatalf("seed=%d op=%d: Load(%d) = %d,%v want %d,%v", seed, i, k, v, ok, ov, oOK)
				}
			case 2:
				_, oOK := oracle[k]
				if got := m.Delete(k); got != oOK {
					t.Fatalf("seed=%d op=%d: Delete(%d) = %v want %v", seed, i, k, got, oOK)
				}
				delete(oracle, k)
			case 3:
				ov, oOK := oracle[k]
				old := rng.Uint64() % 64
				want := oOK && ov == old
				if got := m.CompareAndSwap(k, old, val); got != want {
					t.Fatalf("seed=%d op=%d: CAS(%d) = %v want %v", seed, i, k, got, want)
				}
				if want {
					oracle[k] = val
				}
			case 4:
				ov, oOK := oracle[k]
				v, loaded, ok := m.LoadOrStore(k, val)
				if !ok || loaded != oOK || (loaded && v != ov) || (!loaded && v != val) {
					t.Fatalf("seed=%d op=%d: LoadOrStore(%d) = %d,%v,%v oracle %d,%v", seed, i, k, v, loaded, ok, ov, oOK)
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
					t.Fatalf("seed=%d op=%d: ReplaceKey(%d,%d) = %v, %v want %v, nil", seed, i, k, k2, swapped, err, want)
				}
				if want {
					delete(oracle, k)
					oracle[k2] = ov
				}
			case 6:
				ov, oOK := oracle[k]
				prev, loaded, ok := m.Swap(k, val)
				if !ok || loaded != oOK || (loaded && prev != ov) {
					t.Fatalf("seed=%d op=%d: Swap(%d) = %d,%v,%v oracle %d,%v", seed, i, k, prev, loaded, ok, ov, oOK)
				}
				oracle[k] = val
			case 7:
				ov, oOK := oracle[k]
				if v, loaded := m.LoadAndDelete(k); loaded != oOK || (loaded && v != ov) {
					t.Fatalf("seed=%d op=%d: LoadAndDelete(%d) = %d,%v oracle %d,%v", seed, i, k, v, loaded, ov, oOK)
				}
				delete(oracle, k)
			case 8:
				ov, oOK := oracle[k]
				old := rng.Uint64() % 64
				want := oOK && ov == old
				if got := m.CompareAndSwapFunc(k, func(v uint64) bool { return v == old }, val); got != want {
					t.Fatalf("seed=%d op=%d: CompareAndSwapFunc(%d) = %v want %v", seed, i, k, got, want)
				}
				if want {
					oracle[k] = val
				}
			}
		}
		if m.Len() != len(oracle) {
			t.Fatalf("seed=%d: Len = %d, oracle %d", seed, m.Len(), len(oracle))
		}
		for k, ov := range oracle {
			if v, ok := m.Load(k); !ok || v != ov {
				t.Fatalf("seed=%d final: Load(%d) = %d,%v want %d,true", seed, k, v, ok, ov)
			}
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
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

// TestShardedMapConcurrent hammers the deprecated surface from
// goroutines pinned to different quarters of the key space plus one
// roaming across all of them, with ReplaceKey moving keys to the
// neighbouring quarter. Run with -race.
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
// of the deprecated surface: Load and Contains must stay allocation-free
// through the embedded Map (the twin of the registry-level Contains pin).
func TestShardedMapLoadDoesNotAllocate(t *testing.T) {
	m, err := NewShardedMap[int](20, 8)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 1<<20; k += 1 << 14 {
		m.Store(k, int(k)+7) // every eighth of the key space gets entries
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
// eighth of the key space, a hit and two misses each, and on an
// out-of-range key: none of them may allocate.
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
				t.Fatalf("Load(%d) in eighth %d missed", hit, i)
			}
			if m.Contains(hit+1) || m.Contains(hit+2) {
				t.Fatalf("Contains false positive in eighth %d", i)
			}
		}
		if _, ok := m.Load(1 << 16); ok || m.Contains(1<<16) {
			t.Fatal("out-of-range key must miss")
		}
	}); n != 0 {
		t.Errorf("misses and out-of-range reads allocate %v objects per call, want 0", n)
	}
}

// TestShardCanonicalShape is the root package's leg of the
// canonical-shape oracle (internal/engine/canonical_test.go) on span-1
// and span-4 Maps: whatever concurrent history of Store, Delete,
// ReplaceKey between neighbours and between random keys (across root
// slots at span 4) and Snapshot produced it, the trie must be, label for
// label, the trie a single thread builds from its surviving keys, and
// must pass Validate.
func TestShardCanonicalShape(t *testing.T) {
	const width, workers, steps = 8, 4, 3000
	for _, span := range []uint32{1, 4} {
		m := spanMap(width, span)
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
						m.ReplaceKey(k, k^1)
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
		ref := spanMap(width, span)
		var survivors []uint64
		for k := range m.All() {
			survivors = append(survivors, k)
		}
		// Descending: as unlike the concurrent history as any order.
		for j := len(survivors) - 1; j >= 0; j-- {
			ref.Store(survivors[j], 0)
		}
		if got, want := m.t.Dump(), ref.t.Dump(); got != want {
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

// TestMapFootprintMatchesHeap holds the census to the heap through the
// root package's codec, for the public binary Map and a span-4 trie:
// after 2^16 uniform keys the size-class-predicted bytes and the measured
// HeapAlloc growth agree within 5 %.
func TestMapFootprintMatchesHeap(t *testing.T) {
	const n = 1 << 16
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

	for _, span := range []uint32{1, 4} {
		before := heapAlloc()
		m := spanMap(63, span)
		for i, k := range ks {
			m.Store(k, uint64(i))
		}
		measured := float64(heapAlloc() - before)

		// n+2 leaves with the dummies; binary internal nodes number one
		// fewer than the leaves.
		f := m.t.e.Footprint()
		if f.Leaves != n+2 || span == 1 && f.Internal != n+1 {
			t.Errorf("span %d: census = %+v, want %d leaves (and %d internal nodes at span 1)", span, f, n+2, n+1)
		}
		predicted := float64(f.Bytes())
		t.Logf("span %d, %d keys: measured %.1f B/key, predicted %.1f B/key", span, n, measured/n, predicted/n)
		if d := (measured - predicted) / predicted; d < -0.05 || d > 0.05 {
			t.Errorf("span %d: measured heap %.0f B vs predicted %.0f B: off by %.1f %%, want within 5 %%", span, measured, predicted, 100*d)
		}
		runtime.KeepAlive(m)
	}
	runtime.KeepAlive(ks)
}
