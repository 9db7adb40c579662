package nbtrie

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestMapHeapBytesPerKey reproduces the repository benchmark's
// heap_bytes_per_key (benchmark/README.md: HeapAlloc growth over a
// prefill, between forced collections, per live key) where go test
// sees it. One key is a leaf (48 B), an unpadded binary internal node
// (48 B) and about 1 B of shortcut table: about 97 B. A node an update
// has flagged since it was born holds a token, which is no object.
// internal/engine/layout_test.go pins the sizes and the census behind
// the sum.
func TestMapHeapBytesPerKey(t *testing.T) {
	const n = 1 << 16
	heapAlloc := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	rng := rand.New(rand.NewSource(21))

	before := heapAlloc()
	m, err := NewMap[uint64](63)
	if err != nil {
		t.Fatal(err)
	}
	for m.Len() < n {
		m.Store(rng.Uint64()>>1, 1)
	}
	perKey := float64(heapAlloc()-before) / n
	t.Logf("%d uniform keys: %.1f heap bytes per key", n, perKey)
	if perKey > 104 {
		t.Errorf("Map[uint64] holds %.1f heap bytes per key, want <= 104", perKey)
	}
	runtime.KeepAlive(m)
}
