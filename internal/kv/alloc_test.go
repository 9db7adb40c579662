package kv

import (
	"runtime"
	"testing"

	"nbtrie/internal/engine"
	"nbtrie/internal/keys"
)

// Allocation regression pins for the allocation-lean update protocol,
// held on the fixed-width and the Morton key spaces alike: both key
// types are pure values, so the codec adds nothing to either path.
// The read path must be allocation-free outright; the update paths get a
// fixed budget derived from the nodes an update must create (each a
// distinct heap object by the no-ABA rule) plus the descriptor and the
// fresh Unflag of the final unflag CAS. No node is born with an Unflag
// (nil is an info field's first value). If one of these tests starts
// failing, garbage crept back into a hot path — see DESIGN.md before
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
	// (the sibling is re-linked, not rebuilt). Held from below as well:
	// fewer than 2 means an unflag CAS stopped allocating its fresh
	// Unflag, which re-opens the ABA window (see engine.newUnflag).
	deleteAllocBudget = 2

	// The span-4 (k-ary) budgets. A wide internal node is one object,
	// its 16 child slots inline, like a binary one; but the
	// slot-oriented paths rebuild a node where the binary trie re-links:
	// an insert is either a slot fill (parent copy, fresh leaf,
	// descriptor and final Unflag = 4) or a leaf displacement (the binary
	// shape = 5); a delete is either a contraction (2, as binary) or a
	// slot clear (parent copy + desc + Unflag = 3). The pins take each
	// path's worst case; depth-per-level is what the wider nodes buy. See
	// DESIGN.md §11 for the full table.
	karyInsertAllocBudget = 5
	karyDeleteAllocBudget = 3
)

func TestContainsIsAllocationFree(t *testing.T) {
	tr, err := NewU64[struct{}](20)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 1024; k++ {
		tr.Insert(k)
	}
	if n := testing.AllocsPerRun(500, func() {
		if !tr.Contains(512) {
			t.Fatal("Contains(512) missed")
		}
		if tr.Contains(4096) {
			t.Fatal("Contains(4096) false positive")
		}
	}); n != 0 {
		t.Errorf("Contains allocates %v objects per call, want 0", n)
	}
}

// TestLoadIsAllocationFree pins the headline win of the generic value
// layer: Trie[int] stores ints unboxed in the leaf, so Load involves no
// interface conversion — zero allocations on hit and miss alike.
func TestLoadIsAllocationFree(t *testing.T) {
	tr, err := NewU64[int](20)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 1024; k++ {
		tr.Store(k, int(k)+100000)
	}
	if n := testing.AllocsPerRun(500, func() {
		if v, ok := tr.Load(512); !ok || v != 100512 {
			t.Fatal("Load(512) wrong")
		}
		if _, ok := tr.Load(4096); ok {
			t.Fatal("Load(4096) false positive")
		}
	}); n != 0 {
		t.Errorf("Load allocates %v objects per call, want 0", n)
	}
}

func TestUpdateAllocationBudgets(t *testing.T) {
	tr, err := NewU64[int](30)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 1024; k++ {
		tr.Store(k, int(k))
	}

	k := uint64(1 << 20)
	if n := testing.AllocsPerRun(500, func() {
		if !tr.Store(k, 100000+int(k)) {
			t.Fatal("insert Store failed")
		}
		k++
	}); n > insertAllocBudget {
		t.Errorf("uncontended insert allocates %v objects, budget %d", n, insertAllocBudget)
	}

	if n := testing.AllocsPerRun(500, func() {
		if !tr.Store(512, 100000) {
			t.Fatal("overwrite Store failed")
		}
	}); n > overwriteAllocBudget {
		t.Errorf("uncontended overwrite allocates %v objects, budget %d", n, overwriteAllocBudget)
	}

	d := uint64(1 << 20)
	if n := testing.AllocsPerRun(500, func() {
		if !tr.Delete(d) {
			t.Fatal("Delete failed")
		}
		d++
	}); n != deleteAllocBudget {
		t.Errorf("uncontended delete allocates %v objects, want exactly %d", n, deleteAllocBudget)
	}
}

// The byte budgets of the same three updates on Map[uint64]-sized leaves:
// the objects above, each at its size class. An insert is two 48 B
// leaves, a 64 B internal node, a 48 B one-flag descriptor and an 8 B
// Unflag; an overwrite a leaf, the descriptor and the Unflag; a delete a
// 64 B two-flag descriptor and the Unflag. The next field added to a
// descriptor shape fails here rather than in a benchmark.
const (
	insertByteBudget    = 216
	overwriteByteBudget = 104
	deleteByteBudget    = 72
)

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes f
// allocates per call, averaged over runs calls after one warm-up call, at
// GOMAXPROCS(1), read from runtime.MemStats.TotalAlloc (which counts each
// object at its size class).
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

func TestUpdateByteBudgets(t *testing.T) {
	tr, err := NewU64[int](30)
	if err != nil {
		t.Fatal(err)
	}
	// Odd user keys encode even (the codec stores k+1), so every even key
	// k inserted below differs from the present k-1 in its last bit alone:
	// each insert lands at a leaf, and each delete below contracts the
	// node that insert made.
	for k := uint64(1); k < 2048; k += 2 {
		tr.Store(k, int(k))
	}

	k := uint64(2)
	if n := bytesPerRun(500, func() {
		if !tr.Store(k, 1) {
			t.Fatal("insert Store failed")
		}
		k += 2
	}); n > insertByteBudget {
		t.Errorf("uncontended insert allocates %d B, budget %d", n, insertByteBudget)
	}

	if n := bytesPerRun(500, func() {
		if !tr.Store(513, 1) {
			t.Fatal("overwrite Store failed")
		}
	}); n > overwriteByteBudget {
		t.Errorf("uncontended overwrite allocates %d B, budget %d", n, overwriteByteBudget)
	}

	d := uint64(2)
	if n := bytesPerRun(500, func() {
		if !tr.Delete(d) {
			t.Fatal("Delete failed")
		}
		d += 2
	}); n > deleteByteBudget {
		t.Errorf("uncontended delete allocates %d B, budget %d", n, deleteByteBudget)
	}
}

// TestKaryAllocationBudgets is the span-4 twin: the read path must stay
// allocation-free (the k-ary win is depth, never read-path garbage), and
// the update paths get the wider budgets documented above.
func TestKaryAllocationBudgets(t *testing.T) {
	tr, err := NewU64(30, engine.WithSpan[keys.Uint64Key, int](4))
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 1024; k++ {
		tr.Store(k, int(k))
	}

	if n := testing.AllocsPerRun(500, func() {
		if v, ok := tr.Load(512); !ok || v != 512 {
			t.Fatal("Load(512) wrong")
		}
		if tr.Contains(1 << 25) {
			t.Fatal("Contains false positive")
		}
	}); n != 0 {
		t.Errorf("span-4 read path allocates %v objects per call, want 0", n)
	}

	k := uint64(1 << 20)
	if n := testing.AllocsPerRun(500, func() {
		if !tr.Store(k, 100000+int(k)) {
			t.Fatal("insert Store failed")
		}
		k++
	}); n > karyInsertAllocBudget {
		t.Errorf("uncontended span-4 insert allocates %v objects, budget %d", n, karyInsertAllocBudget)
	}

	if n := testing.AllocsPerRun(500, func() {
		if !tr.Store(512, 100000) {
			t.Fatal("overwrite Store failed")
		}
	}); n > overwriteAllocBudget {
		t.Errorf("uncontended span-4 overwrite allocates %v objects, budget %d", n, overwriteAllocBudget)
	}

	d := uint64(1 << 20)
	if n := testing.AllocsPerRun(500, func() {
		if !tr.Delete(d) {
			t.Fatal("Delete failed")
		}
		d++
	}); n > karyDeleteAllocBudget {
		t.Errorf("uncontended span-4 delete allocates %v objects, budget %d", n, karyDeleteAllocBudget)
	}
}

// TestMortonReadPathIsAllocationFree and TestMortonUpdateAllocationBudgets
// hold the Morton key space to the same pins.
func TestMortonReadPathIsAllocationFree(t *testing.T) {
	tr := NewMorton[int]()
	for x := uint32(0); x < 32; x++ {
		for y := uint32(0); y < 32; y++ {
			tr.Store(xy(x, y), int(x+y))
		}
	}
	if n := testing.AllocsPerRun(500, func() {
		if !tr.Contains(xy(5, 7)) {
			t.Fatal("Contains(5,7) missed")
		}
		if tr.Contains(xy(40, 40)) {
			t.Fatal("Contains(40,40) false positive")
		}
		if v, ok := tr.Load(xy(5, 7)); !ok || v != 12 {
			t.Fatal("Load(5,7) wrong")
		}
	}); n != 0 {
		t.Errorf("Morton read path allocates %v objects per call, want 0", n)
	}
}

func TestMortonUpdateAllocationBudgets(t *testing.T) {
	tr := NewMorton[int]()
	for x := uint32(0); x < 32; x++ {
		for y := uint32(0); y < 32; y++ {
			tr.Store(xy(x, y), int(x+y))
		}
	}

	x := uint32(1000)
	if n := testing.AllocsPerRun(500, func() {
		tr.Store(xy(x, 1000), 1)
		x++
	}); n > insertAllocBudget {
		t.Errorf("uncontended insert allocates %v objects, budget %d", n, insertAllocBudget)
	}

	if n := testing.AllocsPerRun(500, func() {
		tr.Store(xy(5, 7), 99)
	}); n > overwriteAllocBudget {
		t.Errorf("uncontended overwrite allocates %v objects, budget %d", n, overwriteAllocBudget)
	}

	d := uint32(1000)
	if n := testing.AllocsPerRun(500, func() {
		if !tr.Delete(xy(d, 1000)) {
			t.Fatal("Delete failed")
		}
		d++
	}); n > deleteAllocBudget {
		t.Errorf("uncontended delete allocates %v objects, budget %d", n, deleteAllocBudget)
	}
}

// (TestTryDeleteRootChildDefensive, a white-box test of the engine's
// tryDelete, lives in internal/engine.)
