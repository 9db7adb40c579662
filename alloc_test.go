package nbtrie

import (
	"fmt"
	"testing"
)

// Allocation pins for the wait-free read path at the public API layer.
// The white-box pins in trie_alloc_test.go catch regressions in the
// algorithm; these catch regressions in the wrapping — an interface
// conversion or closure sneaking into Map.Load, or a registry
// implementation whose Contains quietly starts boxing. Every registry
// entry that claims WaitFreeRead is held to zero allocations here, so a
// new trie variant registers once and inherits the check.

func TestRegistryWaitFreeReadsDoNotAllocate(t *testing.T) {
	checked := 0
	for _, im := range AllImplementations() {
		if !im.WaitFreeRead {
			continue
		}
		checked++
		t.Run(im.Name, func(t *testing.T) {
			s, err := im.New(20)
			if err != nil {
				t.Fatal(err)
			}
			for k := uint64(0); k < 1024; k++ {
				s.Insert(k)
			}
			if n := testing.AllocsPerRun(500, func() {
				if !s.Contains(512) {
					t.Fatal("Contains(512) missed")
				}
				if s.Contains(4096) {
					t.Fatal("Contains(4096) false positive")
				}
			}); n != 0 {
				t.Errorf("%s.Contains allocates %v objects per call; its registry entry claims a wait-free (allocation-free) read", im.Name, n)
			}
		})
	}
	if checked == 0 {
		t.Fatal("no registry implementation claims WaitFreeRead; the Patricia trie should")
	}
}

// TestMapReadPathDoesNotAllocate pins the de-boxing win of the generic
// value layer at the public surface: Map[V] stores values unboxed, so
// Load and Contains stay allocation-free for value types that would
// previously have been boxed into the leaf's interface field.
func TestMapReadPathDoesNotAllocate(t *testing.T) {
	t.Run("int", func(t *testing.T) {
		m, err := NewMap[int](20)
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < 1024; k++ {
			m.Store(k, int(k)+100000)
		}
		if n := testing.AllocsPerRun(500, func() {
			if v, ok := m.Load(512); !ok || v != 100512 {
				t.Fatal("Load(512) wrong")
			}
			if _, ok := m.Load(4096); ok {
				t.Fatal("Load(4096) false positive")
			}
			if !m.Contains(512) {
				t.Fatal("Contains(512) missed")
			}
		}); n != 0 {
			t.Errorf("Map[int] read path allocates %v objects per call, want 0", n)
		}
	})
	t.Run("struct", func(t *testing.T) {
		type point struct{ X, Y float64 }
		m, err := NewMap[point](20)
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < 256; k++ {
			m.Store(k, point{X: float64(k), Y: -float64(k)})
		}
		if n := testing.AllocsPerRun(500, func() {
			if v, ok := m.Load(100); !ok || v.X != 100 {
				t.Fatal("Load(100) wrong")
			}
		}); n != 0 {
			t.Errorf("Map[struct] Load allocates %v objects per call, want 0", n)
		}
	})
}

// TestStringMapLoadAllocationBudget: the byte-string trie cannot be
// allocation-free on reads — the key must be bit-encoded first — but
// that encoding is the only permitted allocation. The search and the
// unboxed value read must add nothing.
func TestStringMapLoadAllocationBudget(t *testing.T) {
	m := NewStringMap[int]()
	for i := 0; i < 256; i++ {
		m.Store([]byte(fmt.Sprintf("key-%03d", i)), i)
	}
	key := []byte("key-100")
	if n := testing.AllocsPerRun(500, func() {
		if v, ok := m.Load(key); !ok || v != 100 {
			t.Fatal("Load wrong")
		}
	}); n > 1 {
		t.Errorf("StringMap Load allocates %v objects per call; budget is 1 (the key encoding)", n)
	}
}
