package obs

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
)

func TestCounterBasic(t *testing.T) {
	var c Counter
	c.Add(1)
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("Load = %d, want 42", got)
	}
}

// TestConcurrentHammer hammers a Counter and a Hist from many goroutines.
// Run under -race this verifies the record paths are data-race free; the
// final totals verify no increments are lost.
func TestConcurrentHammer(t *testing.T) {
	const (
		goroutines = 8
		perG       = 20000
	)
	var c Counter
	var h Hist
	var wg sync.WaitGroup
	for range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Add(1)
				h.Record(uint64(i))
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != goroutines*perG {
		t.Fatalf("Counter = %d, want %d", got, goroutines*perG)
	}
	snap := h.Snapshot()
	if got := snap.Count; got != goroutines*perG {
		t.Fatalf("Hist count = %d, want %d", got, goroutines*perG)
	}
	wantSum := int64(goroutines) * int64(perG) * int64(perG-1) / 2
	if got := snap.Sum; got != wantSum {
		t.Fatalf("Hist sum = %d, want %d", got, wantSum)
	}
}

func TestHistBucketBoundaries(t *testing.T) {
	var h Hist
	for _, v := range []uint64{0, 1, 2, 3, 4, 7, 8, 1 << 62, ^uint64(0)} {
		h.Record(v)
	}
	s := h.Snapshot()
	want := map[int]int64{0: 1, 1: 1, 2: 2, 3: 2, 4: 1, 63: 1, 64: 1}
	for b, n := range want {
		if s.Buckets[b] != n {
			t.Errorf("bucket %d = %d, want %d", b, s.Buckets[b], n)
		}
	}
	if s.Count != 9 {
		t.Fatalf("Count = %d, want 9", s.Count)
	}
	if BucketUpper(0) != 1 || BucketUpper(3) != 8 || BucketUpper(64) != ^uint64(0) {
		t.Fatalf("BucketUpper boundaries wrong: %d %d %d",
			BucketUpper(0), BucketUpper(3), BucketUpper(64))
	}
}

// TestQuantileVsOracle checks the histogram quantile estimate against a
// sorted-sample oracle: with log2 buckets the estimate must land within a
// factor of two of the true quantile.
func TestQuantileVsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var h Hist
	samples := make([]uint64, 0, 50000)
	for i := 0; i < 50000; i++ {
		// Log-uniform-ish spread so every decade of buckets is exercised.
		v := uint64(rng.Int63n(1 << uint(4+rng.Intn(28))))
		h.Record(v)
		samples = append(samples, v)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	snap := h.Snapshot()
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		idx := int(q * float64(len(samples)))
		if idx >= len(samples) {
			idx = len(samples) - 1
		}
		oracle := samples[idx]
		est := snap.Quantile(q)
		if oracle == 0 {
			if est > 1 {
				t.Errorf("q=%v: oracle 0, est %d", q, est)
			}
			continue
		}
		if est < oracle/2 || est > oracle*2 {
			t.Errorf("q=%v: est %d not within 2x of oracle %d", q, est, oracle)
		}
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	var h Hist
	empty := h.Snapshot()
	if got := empty.Quantile(0.5); got != 0 {
		t.Fatalf("empty Quantile = %d, want 0", got)
	}
	h.Record(0)
	s := h.Snapshot()
	if got := s.Quantile(0.5); got != 0 {
		t.Fatalf("all-zero Quantile = %d, want 0", got)
	}
	if got := s.Quantile(-1); got != 0 {
		t.Fatalf("clamped low Quantile = %d, want 0", got)
	}
	var h2 Hist
	h2.Record(100)
	s2 := h2.Snapshot()
	if got := s2.Quantile(2); got < 64 || got > 128 {
		t.Fatalf("clamped high Quantile = %d, want in [64,128]", got)
	}
}

// TestRecordPathsZeroAlloc pins the record paths at zero allocations.
func TestRecordPathsZeroAlloc(t *testing.T) {
	var c Counter
	var h Hist
	if n := testing.AllocsPerRun(1000, func() { c.Add(1) }); n != 0 {
		t.Errorf("Counter.Add allocs = %v, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Record(12345) }); n != 0 {
		t.Errorf("Hist.Record allocs = %v, want 0", n)
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	var c Counter
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Add(1)
		}
	})
}

func BenchmarkHistRecord(b *testing.B) {
	var h Hist
	b.RunParallel(func(pb *testing.PB) {
		var v uint64
		for pb.Next() {
			v += 7919
			h.Record(v)
		}
	})
}
