package nbtrie

import (
	"fmt"
	"sync"
	"testing"
)

// Len is maintained by a per-trie atomic counter bumped only on
// successful insert/delete paths, so it must be O(1)-cheap,
// allocation-free, exact at quiescence, and must never drift no matter
// how much concurrent helping happened. These tests pin
// that contract at the public surface for all four map flavors.

func TestLenAllMaps(t *testing.T) {
	t.Run("Map", func(t *testing.T) {
		m, err := NewMap[int](16)
		if err != nil {
			t.Fatal(err)
		}
		if m.Len() != 0 {
			t.Fatalf("fresh map Len = %d", m.Len())
		}
		for k := uint64(0); k < 100; k++ {
			m.Store(k, int(k))
		}
		m.Store(50, -1) // overwrite: no count change
		if m.Len() != 100 {
			t.Fatalf("Len = %d, want 100", m.Len())
		}
		if !m.ReplaceKey(10, 1000) || m.Len() != 100 {
			t.Fatalf("after ReplaceKey Len = %d, want 100", m.Len())
		}
		for k := uint64(0); k < 50; k++ {
			m.Delete(k)
		}
		// 10 was already moved away, so one of those deletes missed.
		if m.Len() != 51 {
			t.Fatalf("Len = %d, want 51", m.Len())
		}
	})
	t.Run("StringMap", func(t *testing.T) {
		m := NewStringMap[int]()
		for i := 0; i < 64; i++ {
			m.Store([]byte(fmt.Sprintf("k%02d", i)), i)
		}
		if m.Len() != 64 {
			t.Fatalf("Len = %d, want 64", m.Len())
		}
		m.Delete([]byte("k07"))
		m.ReplaceKey([]byte("k08"), []byte("moved"))
		if m.Len() != 63 {
			t.Fatalf("Len = %d, want 63", m.Len())
		}
	})
	t.Run("SpatialMap", func(t *testing.T) {
		m := NewSpatialMap[string]()
		for i := uint32(0); i < 32; i++ {
			m.Store(i, i*2, "p")
		}
		if m.Len() != 32 {
			t.Fatalf("Len = %d, want 32", m.Len())
		}
		if !m.Move(Point{X: 3, Y: 6}, Point{X: 500, Y: 500}) || m.Len() != 32 {
			t.Fatalf("after Move Len = %d, want 32", m.Len())
		}
		m.Delete(4, 8)
		if m.Len() != 31 {
			t.Fatalf("Len = %d, want 31", m.Len())
		}
	})
	t.Run("ShardedMap", func(t *testing.T) {
		m, err := NewShardedMap[int](16, 8)
		if err != nil {
			t.Fatal(err)
		}
		// Stride the inserts through the whole key space.
		for k := uint64(0); k < 1<<16; k += 257 {
			m.Store(k, int(k))
		}
		want := (1<<16 + 256) / 257
		if m.Len() != want {
			t.Fatalf("Len = %d, want %d", m.Len(), want)
		}
		m.Delete(0)
		if m.Len() != want-1 {
			t.Fatalf("Len = %d, want %d", m.Len(), want-1)
		}
	})
}

// TestShardedLenConcurrent hammers a ShardedMap across its whole key
// space from many goroutines and checks its counter against a full
// traversal at quiescence.
func TestShardedLenConcurrent(t *testing.T) {
	const (
		workers = 8
		rounds  = 4000
		width   = 12
	)
	m, err := NewShardedMap[uint64](width, 8)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := seed*0x9e3779b97f4a7c15 + 1
			next := func() uint64 {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return rng
			}
			for i := 0; i < rounds; i++ {
				k := next() % (1 << width)
				switch next() % 5 {
				case 0:
					m.Store(k, seed)
				case 1:
					m.Delete(k)
				case 2:
					m.LoadOrStore(k, seed)
				case 3:
					m.CompareAndDelete(k, seed)
				case 4:
					m.ReplaceKey(k, next()%(1<<width))
				}
			}
		}(uint64(w) + 1)
	}
	wg.Wait()
	n := 0
	for range m.All() {
		n++
	}
	if got := m.Len(); got != n {
		t.Fatalf("at quiescence Len() = %d but iteration found %d entries", got, n)
	}
}

// TestLenDoesNotAllocate: the counter read must stay as cheap as the
// wait-free read path it sits next to.
func TestLenDoesNotAllocate(t *testing.T) {
	m, err := NewShardedMap[int](16, 8)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 512; k++ {
		m.Store(k, 1)
	}
	if n := testing.AllocsPerRun(200, func() {
		if m.Len() != 512 {
			t.Fatal("Len wrong")
		}
		if _, ok := m.Load(5); !ok {
			t.Fatal("Load missed")
		}
		if !m.Contains(5) {
			t.Fatal("Contains missed")
		}
	}); n != 0 {
		t.Errorf("Len/Load/Contains allocate %v objects per call, want 0", n)
	}
}

// TestLenSetSize pins the set layer's Size to the counter Len reads:
// allocation-free, exact at quiescence after inserts, deletes and a
// Replace, and, read while writers insert, never decreasing and never
// past the keys inserted.
func TestLenSetSize(t *testing.T) {
	p, err := NewPatriciaTrie(16)
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 4, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w uint64) {
			defer wg.Done()
			for i := uint64(0); i < per; i++ {
				p.Insert(w*per + i)
			}
		}(uint64(w))
	}
	for last := 0; last < workers*per; {
		n := p.Size()
		if n < last || n > workers*per {
			t.Fatalf("Size read %d after %d, with %d keys inserted at most", n, last, workers*per)
		}
		last = n
	}
	wg.Wait()
	p.Delete(3)
	p.Replace(4, 1<<15)
	if got, want := p.Size(), len(p.Keys()); got != want || got != workers*per-1 {
		t.Errorf("PatriciaTrie.Size = %d, iteration finds %d, want %d", got, want, workers*per-1)
	}
	if a := testing.AllocsPerRun(100, func() { p.Size() }); a != 0 {
		t.Errorf("PatriciaTrie.Size allocates %v times", a)
	}

	s := NewStringTrie()
	for i := 0; i < 64; i++ {
		s.Insert([]byte(fmt.Sprintf("k%02d", i)))
	}
	s.Delete([]byte("k07"))
	s.Replace([]byte("k08"), []byte("moved"))
	if got, want := s.Size(), len(s.Keys()); got != want || got != 63 {
		t.Errorf("StringTrie.Size = %d, iteration finds %d, want 63", got, want)
	}
}
