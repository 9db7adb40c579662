package nbtrie

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestMapHeapBytesPerKey reproduces the repository benchmark's
// heap_bytes_per_key (benchmark/README.md: HeapAlloc growth over a
// prefill, between forced collections, per live key) where go test
// sees it. One key is a leaf (48 B), an internal node (64 B) and, for the
// half of those nodes an update has flagged since they were born, an
// Unflag header (8 B); internal/engine/layout_test.go pins the sizes and
// the census behind the sum.
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
	if perKey > 124 {
		t.Errorf("Map[uint64] holds %.1f heap bytes per key, want <= 124", perKey)
	}
	runtime.KeepAlive(m)
}
