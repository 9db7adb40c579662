package sharded

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
)

// TestNewValidation pins the constructor contract: width bounds, the
// power-of-two shard count requirement, the 0 = default rule, and the
// shardBits <= width-1 clamp.
func TestNewValidation(t *testing.T) {
	for _, width := range []uint32{0, 64} {
		if _, err := New[int](width, 4); err == nil {
			t.Errorf("width %d must be rejected", width)
		}
	}
	for _, shards := range []int{-1, 3, 5, 6, 7, MaxShards + 1, MaxShards * 2} {
		if _, err := New[int](20, shards); err == nil {
			t.Errorf("shard count %d must be rejected", shards)
		}
	}
	tr, err := New[int](20, 16)
	if err != nil || tr.Shards() != 16 || tr.ShardBits() != 4 || tr.Width() != 20 {
		t.Fatalf("New(20, 16) = shards %d bits %d width %d, err %v",
			tr.Shards(), tr.ShardBits(), tr.Width(), err)
	}

	// 0 selects the default, which must be a power of two in range.
	d, err := New[int](30, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := d.Shards(); n < 1 || n > MaxShards || n&(n-1) != 0 {
		t.Errorf("default shard count %d is not a power of two in [1, %d]", n, MaxShards)
	}
	if d.Shards() != DefaultShards() {
		t.Errorf("Shards() = %d, DefaultShards() = %d", d.Shards(), DefaultShards())
	}

	// Narrow widths clamp the shard bits so each shard keeps >= 1 key bit.
	narrow, err := New[int](2, 256)
	if err != nil {
		t.Fatal(err)
	}
	if narrow.Shards() != 2 || narrow.ShardBits() != 1 {
		t.Errorf("width-2 trie with 256 requested shards: got %d shards (%d bits), want 2 (1)",
			narrow.Shards(), narrow.ShardBits())
	}
	for k := uint64(0); k < 4; k++ {
		if !narrow.Insert(k) || !narrow.Contains(k) {
			t.Errorf("clamped trie cannot hold key %d", k)
		}
	}
}

// TestShardBoundaryKeys drives the first and last key of every shard —
// the keys where a routing off-by-one would misfile or collide — through
// insert/contains/load/delete.
func TestShardBoundaryKeys(t *testing.T) {
	const width = 10
	tr, err := New[uint64](width, 8)
	if err != nil {
		t.Fatal(err)
	}
	span := uint64(1) << (width - tr.ShardBits())
	var boundary []uint64
	for idx := uint64(0); idx < uint64(tr.Shards()); idx++ {
		boundary = append(boundary, idx*span, idx*span+span-1)
	}
	for _, k := range boundary {
		if !tr.InsertValue(k, k*3) {
			t.Fatalf("InsertValue(%d) failed", k)
		}
	}
	if tr.Size() != len(boundary) {
		t.Fatalf("Size = %d, want %d", tr.Size(), len(boundary))
	}
	for _, k := range boundary {
		if v, ok := tr.Load(k); !ok || v != k*3 {
			t.Fatalf("Load(%d) = %d,%v want %d,true", k, v, ok, k*3)
		}
		idx, ok := tr.ShardOf(k)
		if !ok || idx != int(k/span) {
			t.Fatalf("ShardOf(%d) = %d,%v want %d,true", k, idx, ok, k/span)
		}
	}
	// The base of each shard must not shadow the last key of the previous
	// one (their per-shard rests are the extremes 0 and span-1).
	for idx := uint64(1); idx < uint64(tr.Shards()); idx++ {
		if !tr.Delete(idx * span) {
			t.Fatalf("Delete(base %d) failed", idx*span)
		}
		if !tr.Contains(idx*span - 1) {
			t.Fatalf("deleting base %d removed the previous shard's last key", idx*span)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestAscendAcrossSeams pins the stitched iteration order: keys
// straddling every shard seam come back globally sorted, from any
// starting point — mid-shard, exactly on a seam, and one below it.
func TestAscendAcrossSeams(t *testing.T) {
	const width = 10
	tr, err := New[uint64](width, 8)
	if err != nil {
		t.Fatal(err)
	}
	span := uint64(1) << (width - tr.ShardBits())
	var want []uint64
	for idx := uint64(0); idx < uint64(tr.Shards()); idx++ {
		base := idx * span
		for _, k := range []uint64{base, base + 1, base + span - 1} {
			if tr.InsertValue(k, k+1000) {
				want = append(want, k)
			}
		}
	}
	// want was built in ascending order already (bases ascend, offsets
	// ascend, no duplicates since span > 2).

	collect := func(from uint64) []uint64 {
		var got []uint64
		tr.AscendKV(from, func(k uint64, v uint64) bool {
			if v != k+1000 {
				t.Fatalf("AscendKV(%d): key %d carries value %d", from, k, v)
			}
			got = append(got, k)
			return true
		})
		return got
	}

	all := collect(0)
	if len(all) != len(want) {
		t.Fatalf("full ascent yielded %d keys, want %d", len(all), len(want))
	}
	for i := range want {
		if all[i] != want[i] {
			t.Fatalf("full ascent[%d] = %d, want %d (seam ordering broken)", i, all[i], want[i])
		}
	}

	for _, from := range []uint64{1, span - 1, span, span + 1, 3*span - 1, 3 * span, 5*span + 2} {
		got := collect(from)
		var exp []uint64
		for _, k := range want {
			if k >= from {
				exp = append(exp, k)
			}
		}
		if len(got) != len(exp) {
			t.Fatalf("Ascend(%d) yielded %d keys, want %d", from, len(got), len(exp))
		}
		for i := range exp {
			if got[i] != exp[i] {
				t.Fatalf("Ascend(%d)[%d] = %d, want %d", from, i, got[i], exp[i])
			}
		}
	}

	// Early break stops the stitched walk mid-shard.
	n := 0
	tr.AscendKV(0, func(uint64, uint64) bool { n++; return n < 5 })
	if n != 5 {
		t.Errorf("early break visited %d keys, want 5", n)
	}
}

// TestReplaceContract pins the three-way Replace contract: same-shard
// pairs replace atomically with the value travelling, cross-shard pairs
// refuse with ErrCrossShard and leave both shards untouched, and
// out-of-range keys fail with a nil error like the unsharded trie.
func TestReplaceContract(t *testing.T) {
	const width = 10
	tr, err := New[string](width, 8)
	if err != nil {
		t.Fatal(err)
	}
	span := uint64(1) << (width - tr.ShardBits())

	// Same shard: keys 3 and 9 both live in shard 0.
	tr.Store(3, "payload")
	if swapped, err := tr.Replace(3, 9); err != nil || !swapped {
		t.Fatalf("same-shard Replace = %v, %v", swapped, err)
	}
	if v, ok := tr.Load(9); !ok || v != "payload" {
		t.Fatalf("value did not travel: Load(9) = %q,%v", v, ok)
	}
	if tr.Contains(3) {
		t.Fatal("old key survived same-shard Replace")
	}
	if !tr.SameShard(3, 9) || tr.SameShard(3, span) {
		t.Fatal("SameShard disagrees with the routing")
	}

	// Cross shard: key 9 (shard 0) to key span (shard 1).
	if swapped, err := tr.Replace(9, span); !errors.Is(err, ErrCrossShard) || swapped {
		t.Fatalf("cross-shard Replace = %v, %v; want false, ErrCrossShard", swapped, err)
	}
	if v, ok := tr.Load(9); !ok || v != "payload" {
		t.Fatal("cross-shard Replace must leave the source untouched")
	}
	if tr.Contains(span) {
		t.Fatal("cross-shard Replace must not create the destination")
	}

	// Cross-shard refusal is decided by routing alone, before any state
	// check: even an absent source reports ErrCrossShard, keeping the
	// error a pure precondition on the key pair.
	if _, err := tr.Replace(span+1, 2*span); !errors.Is(err, ErrCrossShard) {
		t.Fatalf("cross-shard Replace with absent source: err = %v", err)
	}

	// Out of range: false with nil error, state untouched.
	if swapped, err := tr.Replace(9, 1<<width); swapped || err != nil {
		t.Fatalf("out-of-range new: Replace = %v, %v; want false, nil", swapped, err)
	}
	if swapped, err := tr.Replace(1<<width, 9); swapped || err != nil {
		t.Fatalf("out-of-range old: Replace = %v, %v; want false, nil", swapped, err)
	}
	if v, ok := tr.Load(9); !ok || v != "payload" {
		t.Fatal("out-of-range Replace must leave the map unchanged")
	}
}

// TestSequentialOracle replays random workloads (all map operations,
// replace included with its same-shard/cross-shard contract) against a
// Go map oracle.
func TestSequentialOracle(t *testing.T) {
	const width = 9
	for _, shardCount := range []int{1, 4, 32} {
		tr, err := New[uint64](width, shardCount)
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
				if !tr.Store(k, val) {
					t.Fatalf("shards=%d op=%d: Store(%d) failed", shardCount, i, k)
				}
				oracle[k] = val
			case 1:
				ov, oOK := oracle[k]
				if v, ok := tr.Load(k); ok != oOK || (ok && v != ov) {
					t.Fatalf("shards=%d op=%d: Load(%d) = %d,%v want %d,%v", shardCount, i, k, v, ok, ov, oOK)
				}
			case 2:
				_, oOK := oracle[k]
				if got := tr.Delete(k); got != oOK {
					t.Fatalf("shards=%d op=%d: Delete(%d) = %v want %v", shardCount, i, k, got, oOK)
				}
				delete(oracle, k)
			case 3:
				ov, oOK := oracle[k]
				old := rng.Uint64() % 64
				want := oOK && ov == old
				if got := tr.CompareAndSwap(k, old, val); got != want {
					t.Fatalf("shards=%d op=%d: CAS(%d) = %v want %v", shardCount, i, k, got, want)
				}
				if want {
					oracle[k] = val
				}
			case 4:
				ov, oOK := oracle[k]
				v, loaded, ok := tr.LoadOrStore(k, val)
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
				swapped, err := tr.Replace(k, k2)
				if !tr.SameShard(k, k2) {
					if !errors.Is(err, ErrCrossShard) || swapped {
						t.Fatalf("shards=%d op=%d: cross-shard Replace(%d,%d) = %v, %v", shardCount, i, k, k2, swapped, err)
					}
					continue
				}
				want := oOK && !o2OK && k != k2
				if err != nil || swapped != want {
					t.Fatalf("shards=%d op=%d: Replace(%d,%d) = %v, %v want %v, nil", shardCount, i, k, k2, swapped, err, want)
				}
				if swapped {
					delete(oracle, k)
					oracle[k2] = ov
				}
			case 6:
				ov, oOK := oracle[k]
				prev, loaded, ok := tr.Swap(k, val)
				if !ok || loaded != oOK || (loaded && prev != ov) {
					t.Fatalf("shards=%d op=%d: Swap(%d) = %d,%v,%v oracle %d,%v", shardCount, i, k, prev, loaded, ok, ov, oOK)
				}
				oracle[k] = val
			case 7:
				ov, oOK := oracle[k]
				if v, loaded := tr.LoadAndDelete(k); loaded != oOK || (loaded && v != ov) {
					t.Fatalf("shards=%d op=%d: LoadAndDelete(%d) = %d,%v oracle %d,%v", shardCount, i, k, v, loaded, ov, oOK)
				}
				delete(oracle, k)
			case 8:
				ov, oOK := oracle[k]
				old := rng.Uint64() % 64
				want := oOK && ov == old
				if got := tr.CompareAndSwapFunc(k, func(v uint64) bool { return v == old }, val); got != want {
					t.Fatalf("shards=%d op=%d: CompareAndSwapFunc(%d) = %v want %v", shardCount, i, k, got, want)
				}
				if want {
					oracle[k] = val
				}
			}
		}
		if tr.Size() != len(oracle) {
			t.Fatalf("shards=%d: Size = %d, oracle %d", shardCount, tr.Size(), len(oracle))
		}
		for k, ov := range oracle {
			if v, ok := tr.Load(k); !ok || v != ov {
				t.Fatalf("shards=%d final: Load(%d) = %d,%v want %d,true", shardCount, k, v, ok, ov)
			}
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("shards=%d: %v", shardCount, err)
		}
	}
}

// TestOutOfRangeKeys: keys outside [0, 2^width) are permanently absent
// on every path, including iteration starting points.
func TestOutOfRangeKeys(t *testing.T) {
	tr, err := New[int](8, 4)
	if err != nil {
		t.Fatal(err)
	}
	tr.Store(3, 33)
	for _, k := range []uint64{256, 1 << 20, ^uint64(0)} {
		if tr.Store(k, 1) || tr.Insert(k) || tr.Contains(k) || tr.Delete(k) {
			t.Errorf("out-of-range %d must be absent on every path", k)
		}
		if _, ok := tr.Load(k); ok {
			t.Errorf("Load(%d) must miss", k)
		}
		if _, loaded, ok := tr.LoadOrStore(k, 1); ok || loaded {
			t.Errorf("LoadOrStore(%d) must reject", k)
		}
		if tr.CompareAndSwap(k, 1, 2) || tr.CompareAndDelete(k, 1) {
			t.Errorf("value ops on out-of-range %d must fail", k)
		}
		if _, ok := tr.ShardOf(k); ok {
			t.Errorf("ShardOf(%d) must report no owner", k)
		}
		n := 0
		tr.AscendKV(k, func(uint64, int) bool { n++; return true })
		if n != 0 {
			t.Errorf("AscendKV(%d) yielded %d keys, want 0", k, n)
		}
	}
	if v, ok := tr.Load(3); !ok || v != 33 {
		t.Error("in-range entry damaged by out-of-range probing")
	}
}

// TestConcurrentCrossShardTraffic hammers all shards from several
// goroutines — uniform keys, so every seam sees concurrent traffic on
// both sides — and cross-checks a final per-key invariant. Run with
// -race this doubles as the sharded front-end's data-race probe.
func TestConcurrentCrossShardTraffic(t *testing.T) {
	const width = 10
	tr, err := New[uint64](width, 8)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 4000; i++ {
				k := rng.Uint64() % (1 << width)
				switch rng.Intn(4) {
				case 0:
					tr.Store(k, uint64(g))
				case 1:
					tr.Delete(k)
				case 2:
					if v, ok := tr.Load(k); ok && v >= goroutines {
						panic("torn value")
					}
				case 3:
					// Same-shard replace to the key's sibling (flip the
					// lowest bit — always the same shard).
					if swapped, err := tr.Replace(k, k^1); err != nil {
						panic(err) // sibling keys can never be cross-shard
					} else {
						_ = swapped
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 1<<width; k++ {
		if v, ok := tr.Load(k); ok && v >= goroutines {
			t.Fatalf("key %d holds impossible value %d", k, v)
		}
	}
}

// TestNewSpan pins the k-ary composition: NewSpan validates the span
// range, New is NewSpan at span 1, and a span-4 sharded trie serves the
// full op surface (including same-shard Replace) with intact per-shard
// invariants. Shard routing strips the top bits *before* the per-shard
// trie digitizes, so span does not have to divide the shard width.
func TestNewSpan(t *testing.T) {
	for _, span := range []uint32{0, 7, 100} {
		if _, err := NewSpan[int](20, 4, span); err == nil {
			t.Errorf("span %d must be rejected", span)
		}
	}
	tr, err := NewSpan[int](20, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Shards() != 8 || tr.Width() != 20 {
		t.Fatalf("NewSpan(20, 8, 4) = shards %d width %d", tr.Shards(), tr.Width())
	}
	const n = 2000
	for k := uint64(0); k < n; k++ {
		// Spread keys across shards: the top 3 of 20 bits route.
		key := k << 9
		if !tr.Store(key, int(k)) {
			t.Fatalf("Store(%d) failed", key)
		}
	}
	for k := uint64(0); k < n; k++ {
		if v, ok := tr.Load(k << 9); !ok || v != int(k) {
			t.Fatalf("Load(%d) = %d, %v", k<<9, v, ok)
		}
	}
	// Same-shard replace: keys differing only in low bits share a shard.
	if swapped, err := tr.Replace(5<<9, 5<<9|1); err != nil || !swapped {
		t.Fatalf("same-shard Replace = %v, %v", swapped, err)
	}
	if tr.Contains(5<<9) || !tr.Contains(5<<9|1) {
		t.Fatal("Replace moved the wrong key")
	}
	for k := uint64(0); k < n; k += 2 {
		if k != 5 && !tr.Delete(k<<9) {
			t.Fatalf("Delete(%d) failed", k<<9)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}
