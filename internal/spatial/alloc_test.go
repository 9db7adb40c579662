package spatial

import "testing"

// Allocation regression pins for the Morton instantiation, mirroring
// internal/core/alloc_test.go: the shared engine's allocation-lean
// update protocol must deliver the same budgets here as on the
// fixed-width trie, because keys.MortonKey — like keys.Uint64Key — is a
// pure value type. If these drift from core's pins, the Morton key
// layer grew an allocation (or the engine did); see DESIGN.md before
// raising a budget.

const (
	// insertAllocBudget: fresh leaf, copy of the displaced leaf, joining
	// internal node, the Flag descriptor, and the fresh Unflag of the
	// unflag CAS.
	insertAllocBudget = 5
	// overwriteAllocBudget: fresh leaf, the Flag descriptor, and the
	// unflag-CAS Unflag.
	overwriteAllocBudget = 3
	// deleteAllocBudget: the Flag descriptor and the unflag-CAS Unflag
	// (the sibling is re-linked, not rebuilt).
	deleteAllocBudget = 2
)

func TestReadPathIsAllocationFree(t *testing.T) {
	tr := New[int]()
	for x := uint32(0); x < 32; x++ {
		for y := uint32(0); y < 32; y++ {
			tr.Store(x, y, int(x+y))
		}
	}
	if n := testing.AllocsPerRun(500, func() {
		if !tr.Contains(5, 7) {
			t.Fatal("Contains(5,7) missed")
		}
		if tr.Contains(40, 40) {
			t.Fatal("Contains(40,40) false positive")
		}
		if v, ok := tr.Load(5, 7); !ok || v != 12 {
			t.Fatal("Load(5,7) wrong")
		}
	}); n != 0 {
		t.Errorf("spatial read path allocates %v objects per call, want 0", n)
	}
}

func TestUpdateAllocationBudgets(t *testing.T) {
	tr := New[int]()
	for x := uint32(0); x < 32; x++ {
		for y := uint32(0); y < 32; y++ {
			tr.Store(x, y, int(x+y))
		}
	}

	x := uint32(1000)
	if n := testing.AllocsPerRun(500, func() {
		tr.Store(x, 1000, 1)
		x++
	}); n > insertAllocBudget {
		t.Errorf("uncontended insert allocates %v objects, budget %d", n, insertAllocBudget)
	}

	if n := testing.AllocsPerRun(500, func() {
		tr.Store(5, 7, 99)
	}); n > overwriteAllocBudget {
		t.Errorf("uncontended overwrite allocates %v objects, budget %d", n, overwriteAllocBudget)
	}

	d := uint32(1000)
	if n := testing.AllocsPerRun(500, func() {
		if !tr.Delete(d, 1000) {
			t.Fatal("Delete failed")
		}
		d++
	}); n > deleteAllocBudget {
		t.Errorf("uncontended delete allocates %v objects, budget %d", n, deleteAllocBudget)
	}
}
