package nbtrie

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"nbtrie/internal/keys"
	"nbtrie/internal/settest"
)

// xy is the Morton code of the point (x, y): the user key of the Morton
// key space.
func xy(x, y uint32) uint64 { return keys.Interleave2(x, y) }

func TestBasicPointOps(t *testing.T) {
	tr := newMorton[string]()
	if tr.Contains(xy(3, 4)) || tr.e.Size() != 0 {
		t.Error("fresh trie must be empty")
	}
	tr.Store(xy(3, 4), "a")
	if v, ok := tr.Load(xy(3, 4)); !ok || v != "a" {
		t.Errorf("Load(3,4) = %q,%v", v, ok)
	}
	if tr.Contains(xy(4, 3)) {
		t.Error("transposed coordinates must be a different point")
	}
	tr.Store(xy(3, 4), "b") // overwrite
	if v, _ := tr.Load(xy(3, 4)); v != "b" {
		t.Errorf("Load after overwrite = %q", v)
	}
	if v, loaded, _ := tr.LoadOrStore(xy(3, 4), "c"); !loaded || v != "b" {
		t.Errorf("LoadOrStore(present) = %q,%v", v, loaded)
	}
	if v, loaded, _ := tr.LoadOrStore(xy(5, 6), "c"); loaded || v != "c" {
		t.Errorf("LoadOrStore(absent) = %q,%v", v, loaded)
	}
	if tr.CompareAndSwap(xy(3, 4), "nope", "x") || !tr.CompareAndSwap(xy(3, 4), "b", "x") {
		t.Error("CompareAndSwap semantics wrong")
	}
	if tr.CompareAndDelete(xy(3, 4), "nope") || !tr.CompareAndDelete(xy(3, 4), "x") {
		t.Error("CompareAndDelete semantics wrong")
	}
	if !tr.Delete(xy(5, 6)) || tr.Delete(xy(5, 6)) {
		t.Error("Delete semantics wrong")
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
}

func TestExtremeCoordinates(t *testing.T) {
	// The 65-bit key space exists exactly so the plane's corners work:
	// (2^32-1, 2^32-1) has Morton code 2^64-1, whose k+1 encoding
	// overflows a single word.
	tr := newMorton[int]()
	corners := [][2]uint32{
		{0, 0}, {^uint32(0), 0}, {0, ^uint32(0)}, {^uint32(0), ^uint32(0)},
	}
	for i, c := range corners {
		tr.Store(xy(c[0], c[1]), i)
	}
	for i, c := range corners {
		if v, ok := tr.Load(xy(c[0], c[1])); !ok || v != i {
			t.Errorf("corner %v = %d,%v want %d", c, v, ok, i)
		}
	}
	if tr.e.Size() != len(corners) {
		t.Errorf("Size() = %d", tr.e.Size())
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
	for _, c := range corners {
		if !tr.Delete(xy(c[0], c[1])) {
			t.Errorf("Delete(%v) failed", c)
		}
	}
}

func TestMoveSemantics(t *testing.T) {
	tr := newMorton[string]()
	tr.Store(xy(1, 1), "v")
	if !tr.Replace(xy(1, 1), xy(2, 2)) {
		t.Fatal("Move from occupied to free must succeed")
	}
	if tr.Contains(xy(1, 1)) || !tr.Contains(xy(2, 2)) {
		t.Fatal("Move left wrong state")
	}
	if v, ok := tr.Load(xy(2, 2)); !ok || v != "v" {
		t.Fatalf("value did not travel with Move: %q,%v", v, ok)
	}
	if tr.Replace(xy(1, 1), xy(3, 3)) {
		t.Error("Move from empty source must fail")
	}
	tr.Store(xy(4, 4), "w")
	if tr.Replace(xy(2, 2), xy(4, 4)) {
		t.Error("Move onto occupied destination must fail")
	}
	if tr.Replace(xy(2, 2), xy(2, 2)) {
		t.Error("Move onto itself must fail (paper's Replace spec)")
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
}

// TestConcurrentMoveConservation: concurrent random Moves never create
// or destroy points (the paper's atomicity argument, on the plane).
func TestConcurrentMoveConservation(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	tr := newMorton[struct{}]()
	const initial = 100
	for i := uint32(0); i < initial; i++ {
		tr.Store(xy(i*7%50, i*13%50), struct{}{})
	}
	start := tr.e.Size()
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 4000; i++ {
				tr.Replace(xy(uint32(rng.Intn(50)), uint32(rng.Intn(50))),
					xy(uint32(rng.Intn(50)), uint32(rng.Intn(50))))
			}
		}(int64(g))
	}
	wg.Wait()
	if got := tr.e.Size(); got != start {
		t.Fatalf("Size() = %d after move-only churn, want %d", got, start)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestMortonConformance runs the settest set battery over raw Morton
// codes: the trie is a ReplaceSet by itself.
func TestMortonConformance(t *testing.T) {
	settest.Run(t, func(uint64) settest.Set { return newMorton[any]() })
}

// codecMapAdapter drives a uint64-keyed trie through the settest map battery.
type codecMapAdapter[K keys.Key[K], C codec[uint64, K]] struct {
	t *trie[uint64, K, uint64, C]
}

func (a codecMapAdapter[K, C]) Load(k uint64) (uint64, bool) { return a.t.Load(k) }
func (a codecMapAdapter[K, C]) Store(k, v uint64) bool       { return a.t.Store(k, v) }
func (a codecMapAdapter[K, C]) LoadOrStore(k, v uint64) (uint64, bool) {
	actual, loaded, _ := a.t.LoadOrStore(k, v)
	return actual, loaded
}
func (a codecMapAdapter[K, C]) Delete(k uint64) bool { return a.t.Delete(k) }
func (a codecMapAdapter[K, C]) CompareAndSwap(k, old, new uint64) bool {
	return a.t.CompareAndSwap(k, old, new)
}
func (a codecMapAdapter[K, C]) CompareAndDelete(k, old uint64) bool {
	return a.t.CompareAndDelete(k, old)
}
func (a codecMapAdapter[K, C]) ReplaceKey(old, new uint64) bool { return a.t.Replace(old, new) }

func TestMortonMapConformance(t *testing.T) {
	settest.RunMap(t, func(uint64) settest.Map {
		return codecMapAdapter[keys.MortonKey, keys.MortonCodec]{newMorton[uint64]()}
	})
}

func TestMortonValidateAfterChurn(t *testing.T) {
	tr := newMorton[int]()
	rng := rand.New(rand.NewSource(9))
	live := make(map[uint64]bool)
	for i := 0; i < 3000; i++ {
		m := xy(uint32(rng.Intn(100)), uint32(rng.Intn(100)))
		if rng.Intn(2) == 0 {
			tr.Store(m, i)
			live[m] = true
		} else {
			tr.Delete(m)
			delete(live, m)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("after churn: %v", err)
	}
	if tr.e.Size() != len(live) {
		t.Fatalf("Size() = %d, oracle %d", tr.e.Size(), len(live))
	}
	// The ascent yields strictly increasing codes, every one of them live.
	var last uint64
	first := true
	tr.AllKV(func(m uint64, _ int) bool {
		if !live[m] {
			t.Fatalf("ascent yielded code %d, which is not live", m)
		}
		if !first && m <= last {
			t.Fatalf("ascent out of order: %d after %d", m, last)
		}
		first, last = false, m
		return true
	})
}
