package engine

import (
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"nbtrie/internal/keys"
)

// Layout pins. The sizes below are what the heap_bytes_per_key figure of
// the repository benchmark is made of: one key costs one leaf, one
// internal node and that node's Unflag header. They are deterministic —
// a field added to node or desc fails here before any benchmark runs.

func TestLayoutSizes(t *testing.T) {
	if got := unsafe.Sizeof(node[keys.Uint64Key, uint64]{}); got > 64 {
		t.Errorf("node[Uint64Key,uint64] is %d B, want <= 64 (one cache line, the 64 B size class)", got)
	}
	if got := unsafe.Sizeof(node[keys.Uint64Key, []byte]{}); got > 80 {
		t.Errorf("node[Uint64Key,[]byte] is %d B, want <= 80 (the 80 B size class)", got)
	}
	if got := unsafe.Sizeof(desc[keys.Uint64Key, uint64]{}); got > 160 {
		t.Errorf("desc is %d B, want <= 160 (the 160 B size class)", got)
	}
	// Not zero: every zero-size allocation has the same address, and an
	// Unflag is nothing but its address.
	if got := unsafe.Sizeof(info[keys.Uint64Key, uint64]{}); got < 1 || got > 8 {
		t.Errorf("the Unflag header is %d B, want 1..8", got)
	}
}

// TestUnflagsAreDistinct: two Unflag headers alive at once never share an
// address, so a node's info field cannot repeat a value while any delayed
// flag CAS still holds the old one.
func TestUnflagsAreDistinct(t *testing.T) {
	seen := make(map[*uinfo]bool)
	for i := 0; i < 1000; i++ {
		u := newUnflag[keys.Uint64Key, any]()
		if seen[u] {
			t.Fatalf("newUnflag returned %p twice while the first was still live", u)
		}
		seen[u] = true
	}
	a, b := newUnflag[keys.Uint64Key, any](), newUnflag[keys.Uint64Key, any]()
	if a == b {
		t.Fatal("two consecutive newUnflag results share an address")
	}
	runtime.KeepAlive(a)
}

// heapAlloc returns the live heap after a forced collection.
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestFootprintMatchesHeap holds the census to the heap it describes:
// after 2^16 uniform keys the Sizeof-predicted bytes and the measured
// HeapAlloc growth agree within 5 %, and both come to what the layout
// promises per key.
func TestFootprintMatchesHeap(t *testing.T) {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(21))
	ks := make([]keys.Uint64Key, 0, n)
	seen := make(map[uint64]bool, n)
	for len(ks) < n {
		k := rng.Uint64() >> 1
		if !seen[k] {
			seen[k] = true
			ks = append(ks, keys.EncodeUint64(k, 63))
		}
	}
	seen = nil

	before := heapAlloc()
	tr := New[keys.Uint64Key, uint64](keys.Uint64DummyMin(63), keys.Uint64DummyMax(63))
	for i, k := range ks {
		tr.Store(k, uint64(i))
	}
	measured := float64(heapAlloc() - before)

	f := tr.Footprint()
	if f.Leaves != n+2 || f.Internal != n+1 || f.Infos != f.Internal {
		t.Errorf("census = %+v, want %d leaves, %d internal nodes and one Unflag per internal node", f, n+2, n+1)
	}
	predicted := float64(f.Bytes())
	t.Logf("%d keys: measured %.1f B/key, predicted %.1f B/key", n, measured/n, predicted/n)
	if d := (measured - predicted) / predicted; d < -0.05 || d > 0.05 {
		t.Errorf("measured heap %.0f B vs predicted %.0f B: off by %.1f %%, want within 5 %%", measured, predicted, 100*d)
	}
	if perKey := predicted / n; perKey > 144 {
		t.Errorf("predicted %.1f B per key, want <= 144", perKey)
	}
	runtime.KeepAlive(tr)
	runtime.KeepAlive(ks)
}
