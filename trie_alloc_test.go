package nbtrie

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
// distinct heap object by the no-ABA rule) plus the descriptor. The
// unflag CAS allocates nothing: it installs the token of the child the
// update installed (see engine's node.info). If one of these tests starts
// failing, garbage crept back into a hot path — see DESIGN.md before
// raising a budget.

const (
	// insertAllocBudget: fresh leaf, copy of the displaced leaf, joining
	// internal node and the Flag descriptor.
	insertAllocBudget = 4
	// overwriteAllocBudget: fresh leaf and the Flag descriptor.
	overwriteAllocBudget = 2
	// deleteAllocBudget: the Flag descriptor alone (the sibling is
	// re-linked, not rebuilt). Exact: a second object means the unflag
	// CAS allocates again.
	deleteAllocBudget = 1

	// The span-4 (k-ary) budgets. A wide internal node is one object,
	// its 16 child slots inline, like a binary one; but the
	// slot-oriented paths rebuild a node where the binary trie re-links:
	// an insert is either a slot fill (parent copy, fresh leaf and
	// descriptor = 3) or a leaf displacement (the binary shape = 4); a
	// delete is either a contraction (1, as binary) or a slot clear
	// (parent copy + desc = 2). The pins take each
	// path's worst case; depth-per-level is what the wider nodes buy. See
	// DESIGN.md §11 for the full table.
	karyInsertAllocBudget = 4
	karyDeleteAllocBudget = 2
)

func TestContainsIsAllocationFree(t *testing.T) {
	tr, err := newU64[struct{}](20)
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
// layer: trie[int] stores ints unboxed in the leaf, so Load involves no
// interface conversion — zero allocations on hit and miss alike.
func TestLoadIsAllocationFree(t *testing.T) {
	tr, err := newU64[int](20)
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

// TestShortcutReadsAreAllocationFree holds the read pins at a size where
// the live reads' shortcut table is on: reads that start from it, and
// the first reads through each slot, which store their hint into it,
// allocate nothing.
func TestShortcutReadsAreAllocationFree(t *testing.T) {
	tr, err := newU64[int](30)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 1<<14; k += 2 {
		tr.Store(k, int(k))
	}
	requireShortcut(t, tr)
	k := uint64(0)
	if n := testing.AllocsPerRun(2000, func() {
		if v, ok := tr.Load(k); !ok || v != int(k) {
			t.Fatalf("Load(%d) wrong", k)
		}
		if !tr.Contains(k) || tr.Contains(k+1) {
			t.Fatalf("Contains around %d wrong", k)
		}
		k = (k + 2) % (1 << 14)
	}); n != 0 {
		t.Errorf("reads through the shortcut allocate %v objects per call, want 0", n)
	}
}

// requireShortcut fails the test unless tr's shortcut table is built, so
// the pins below hold with it on.
func requireShortcut(t *testing.T, tr *u64Trie[int]) {
	t.Helper()
	if tr.e.Footprint().ShortcutBytes == 0 {
		t.Fatalf("setup: %d keys built no shortcut table", tr.Len())
	}
}

// writeForm is one public write form under the update pins: op applies
// it to key k and reports whether it did what its leg expects — changed
// the trie, or on the no-op leg left it alone. Every form writes
// pinVal(k), and the conditional forms compare against it through a
// closure over k, so a cond that escaped to the heap would cost an
// object on every leg it runs on.
type writeForm struct {
	name string
	op   func(tr *u64Trie[int], k uint64) bool
}

func pinVal(k uint64) int { return int(k) + 100000 }

// The four legs. Every form of a leg runs the one engine loop down the
// same path, so each must meet its leg's budget on its own.
var (
	insertForms = []writeForm{
		{"Store", func(tr *u64Trie[int], k uint64) bool { return tr.Store(k, pinVal(k)) }},
		{"LoadOrStore", func(tr *u64Trie[int], k uint64) bool {
			_, loaded, ok := tr.LoadOrStore(k, pinVal(k))
			return ok && !loaded
		}},
	}
	overwriteForms = []writeForm{
		{"Store", func(tr *u64Trie[int], k uint64) bool { return tr.Store(k, pinVal(k)) }},
		{"Swap", func(tr *u64Trie[int], k uint64) bool {
			_, loaded, ok := tr.Swap(k, pinVal(k))
			return ok && loaded
		}},
		{"CompareAndSwap", func(tr *u64Trie[int], k uint64) bool { return tr.CompareAndSwap(k, pinVal(k), pinVal(k)) }},
		{"CompareAndSwapFunc", func(tr *u64Trie[int], k uint64) bool {
			return tr.CompareAndSwapFunc(k, func(v int) bool { return v == pinVal(k) }, pinVal(k))
		}},
	}
	deleteForms = []writeForm{
		{"Delete", func(tr *u64Trie[int], k uint64) bool { return tr.Delete(k) }},
		{"LoadAndDelete", func(tr *u64Trie[int], k uint64) bool {
			_, loaded := tr.LoadAndDelete(k)
			return loaded
		}},
		{"CompareAndDelete", func(tr *u64Trie[int], k uint64) bool { return tr.CompareAndDelete(k, pinVal(k)) }},
		{"DeleteFunc", func(tr *u64Trie[int], k uint64) bool {
			return tr.DeleteFunc(k, func(v int) bool { return v == pinVal(k) })
		}},
	}
	noopForms = []writeForm{
		{"LoadOrStore hit", func(tr *u64Trie[int], k uint64) bool {
			v, loaded, ok := tr.LoadOrStore(k, 0)
			return ok && loaded && v == pinVal(k)
		}},
		{"CompareAndSwap wrong old", func(tr *u64Trie[int], k uint64) bool { return !tr.CompareAndSwap(k, pinVal(k)+1, 0) }},
		{"CompareAndDelete wrong old", func(tr *u64Trie[int], k uint64) bool { return !tr.CompareAndDelete(k, pinVal(k)+1) }},
		{"DeleteFunc cond says no", func(tr *u64Trie[int], k uint64) bool {
			return !tr.DeleteFunc(k, func(v int) bool { return v != pinVal(k) })
		}},
	}
)

func TestUpdateAllocationBudgets(t *testing.T) {
	tr, err := newU64[int](30)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 4096; k++ {
		tr.Store(k, pinVal(k))
	}
	requireShortcut(t, tr)

	k := uint64(1 << 20)
	for _, f := range insertForms {
		if n := testing.AllocsPerRun(500, func() {
			if !f.op(tr, k) {
				t.Fatalf("insert %s failed", f.name)
			}
			k++
		}); n > insertAllocBudget {
			t.Errorf("uncontended insert by %s allocates %v objects, budget %d", f.name, n, insertAllocBudget)
		}
	}

	for _, f := range overwriteForms {
		if n := testing.AllocsPerRun(500, func() {
			if !f.op(tr, 512) {
				t.Fatalf("overwrite %s failed", f.name)
			}
		}); n > overwriteAllocBudget {
			t.Errorf("uncontended overwrite by %s allocates %v objects, budget %d", f.name, n, overwriteAllocBudget)
		}
	}

	for _, f := range noopForms {
		if n := testing.AllocsPerRun(500, func() {
			if !f.op(tr, 512) {
				t.Fatalf("%s changed the trie", f.name)
			}
		}); n != 0 {
			t.Errorf("%s allocates %v objects, want 0", f.name, n)
		}
	}

	d := uint64(0)
	for _, f := range deleteForms {
		if n := testing.AllocsPerRun(500, func() {
			if !f.op(tr, d) {
				t.Fatalf("delete %s failed", f.name)
			}
			d++
		}); n != deleteAllocBudget {
			t.Errorf("uncontended delete by %s allocates %v objects, want exactly %d", f.name, n, deleteAllocBudget)
		}
	}
}

// The byte budgets of the same three updates on Map[uint64]-sized leaves:
// the objects above, each at its size class. An insert is two 48 B
// leaves, a 48 B internal node and a 48 B one-flag descriptor; an
// overwrite a leaf and the descriptor; a delete a 64 B two-flag
// descriptor. They are exact, not ceilings:
// the next field added to a node or descriptor shape fails here rather
// than in a benchmark, and so does a shape that shrinks unannounced.
const (
	insertByteBudget    = 192
	overwriteByteBudget = 96
	deleteByteBudget    = 64
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
	tr, err := newU64[int](30)
	if err != nil {
		t.Fatal(err)
	}
	// Odd user keys encode even (the codec stores k+1), so every even key
	// k inserted below differs from the present k-1 in its last bit alone:
	// each insert lands at a leaf. A binary delete always contracts its
	// parent, so the deletes below take any present key.
	for k := uint64(1); k < 8192; k += 2 {
		tr.Store(k, pinVal(k))
	}
	requireShortcut(t, tr)

	k := uint64(2)
	for _, f := range insertForms {
		if n := bytesPerRun(500, func() {
			if !f.op(tr, k) {
				t.Fatalf("insert %s failed", f.name)
			}
			k += 2
		}); n != insertByteBudget {
			t.Errorf("uncontended insert by %s allocates %d B, want exactly %d", f.name, n, insertByteBudget)
		}
	}

	for _, f := range overwriteForms {
		if n := bytesPerRun(500, func() {
			if !f.op(tr, 513) {
				t.Fatalf("overwrite %s failed", f.name)
			}
		}); n != overwriteByteBudget {
			t.Errorf("uncontended overwrite by %s allocates %d B, want exactly %d", f.name, n, overwriteByteBudget)
		}
	}

	d := uint64(2)
	for _, f := range deleteForms {
		if n := bytesPerRun(500, func() {
			if !f.op(tr, d) {
				t.Fatalf("delete %s failed", f.name)
			}
			d++
		}); n != deleteByteBudget {
			t.Errorf("uncontended delete by %s allocates %d B, want exactly %d", f.name, n, deleteByteBudget)
		}
	}
}

// TestKaryAllocationBudgets is the span-4 twin: the read path must stay
// allocation-free (the k-ary win is depth, never read-path garbage), and
// the update paths get the wider budgets documented above.
func TestKaryAllocationBudgets(t *testing.T) {
	tr, err := newU64(30, engine.WithSpan[keys.Uint64Key, int](4))
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
	tr := newMorton[int]()
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
	tr := newMorton[int]()
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

// The Replace pins. A general-case replace builds the insert's three
// nodes (fresh leaf, copy of the displaced leaf, joining node) plus the
// delete's result (nothing at span 1, where the parent contracts into
// its sibling) and one four-flag descriptor; a near-key replace is one
// of Figure 6's fused cases, a single child CAS.
// At span 4 the fills and clears rebuild their parent instead. The
// numbers are the engine's at the time of writing, not a ceiling chosen
// for slack: a refactor of the Replace cases must keep them. The object
// counts are exact, like the delete pin: one more means an unflag CAS
// allocates again.
const replaceHigh = 1 << 20

// fillOdd stores every odd key in [base, base+n) with its pin value.
func fillOdd(tr *u64Trie[int], base, n uint64) {
	for k := base + 1; k < base+n; k += 2 {
		tr.Store(k, pinVal(k))
	}
}

var replaceCases = []struct {
	name  string
	span  uint32
	high  bool                                  // also fill the odd keys above replaceHigh
	op    func(tr *u64Trie[int], i uint64) bool // the i-th Replace, true when it took effect
	objs  float64                               // objects per call (0 exactly for a no-op)
	bytes uint64                                // bytes per call
}{
	// General case: the old key's leaf is low, the new key lands next to
	// the present high key it differs from in its last bit alone.
	{"general span 1", 1, true, func(tr *u64Trie[int], i uint64) bool {
		return tr.Replace(2*i+1, replaceHigh+2*i+2)
	}, replaceGeneralAllocs, replaceGeneralBytes},
	{"general span 4", 4, true, func(tr *u64Trie[int], i uint64) bool {
		return tr.Replace(2*i+1, replaceHigh+2*i+2)
	}, replaceGeneralKaryAllocs, replaceGeneralKaryBytes},
	// Near key: the new key differs from the old in the last bit, so at
	// span 1 both searches end at the old leaf (case 1) and at span 4 in
	// the same bottom node (one copy clears and fills).
	{"near span 1", 1, false, func(tr *u64Trie[int], i uint64) bool {
		return tr.Replace(2*i+1, 2*i+2)
	}, replaceNearAllocs, replaceNearBytes},
	{"near span 4", 4, false, func(tr *u64Trie[int], i uint64) bool {
		return tr.Replace(2*i+1, 2*i+2)
	}, replaceNearKaryAllocs, replaceNearKaryBytes},
	// No-ops: old absent, or new present.
	{"absent old", 1, true, func(tr *u64Trie[int], i uint64) bool {
		return !tr.Replace(2*i+2, replaceHigh+2*i+2)
	}, 0, 0},
	{"present new", 1, true, func(tr *u64Trie[int], i uint64) bool {
		return !tr.Replace(2*i+1, replaceHigh+2*i+1)
	}, 0, 0},
}

// The span-1 general case is two 48 B leaves, a 48 B joining node and a
// 112 B general descriptor; the near-key case a leaf and a 48 B one-flag
// descriptor. Both are exact byte counts. At span 4 a near-key replace
// is a 160 B bottom-node copy, a leaf and a 64 B two-flag descriptor;
// the general case mixes slot
// fills, slot clears and contractions down the run, so its figures are
// averages (AllocsPerRun truncates to a whole object). Span 4's bytes are
// ceilings.
const (
	replaceGeneralAllocs     = 4
	replaceGeneralBytes      = 256
	replaceGeneralKaryAllocs = 3
	replaceGeneralKaryBytes  = 437
	replaceNearAllocs        = 2
	replaceNearBytes         = 96
	replaceNearKaryAllocs    = 3
	replaceNearKaryBytes     = 272
)

func TestReplaceAllocationBudgets(t *testing.T) {
	for _, c := range replaceCases {
		t.Run(c.name, func(t *testing.T) {
			fresh := func() *u64Trie[int] {
				tr, err := newU64(30, engine.WithSpan[keys.Uint64Key, int](c.span))
				if err != nil {
					t.Fatal(err)
				}
				fillOdd(tr, 0, 4096)
				if c.high {
					// 2^12 keys: the writers start from the table.
					fillOdd(tr, replaceHigh, 4096)
					requireShortcut(t, tr)
				}
				return tr
			}
			run := func(tr *u64Trie[int]) func() {
				i := uint64(0)
				return func() {
					if !c.op(tr, i) {
						t.Fatalf("replace %d did not do what %s expects", i, c.name)
					}
					i++
				}
			}
			n := testing.AllocsPerRun(500, run(fresh()))
			tr := fresh()
			// Collect the setup's garbage first, so no cycle it triggers
			// lands in the byte count.
			runtime.GC()
			b := bytesPerRun(500, run(tr))
			t.Logf("%v objects, %d B", n, b)
			if c.objs == 0 && (n != 0 || b != 0) {
				t.Errorf("no-op %s allocates %v objects, %d B; want 0", c.name, n, b)
			}
			if n != c.objs {
				t.Errorf("uncontended %s replace allocates %v objects, want exactly %v", c.name, n, c.objs)
			}
			// Exact at span 1, a ceiling at span 4.
			if b > c.bytes || c.span == 1 && b != c.bytes {
				t.Errorf("uncontended %s replace allocates %d B, want %d", c.name, b, c.bytes)
			}
		})
	}
}

// TestOrderedReadsAreAllocationFree holds the ordered reads to the same
// pin: Ceiling, Floor and Min run the one ordered walk with a closure
// that must stay on the stack, at span 1 and span 4.
func TestOrderedReadsAreAllocationFree(t *testing.T) {
	for _, span := range []uint32{1, 4} {
		tr, err := newU64(20, engine.WithSpan[keys.Uint64Key, int](span))
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < 1024; k += 2 {
			tr.Store(k, int(k))
		}
		if n := testing.AllocsPerRun(500, func() {
			if k, ok := tr.Ceiling(511); !ok || k != 512 {
				t.Fatal("Ceiling(511) wrong")
			}
			if k, ok := tr.Floor(511); !ok || k != 510 {
				t.Fatal("Floor(511) wrong")
			}
			if k, ok := tr.Min(); !ok || k != 0 {
				t.Fatal("Min wrong")
			}
		}); n != 0 {
			t.Errorf("span-%d ordered reads allocate %v objects per call, want 0", span, n)
		}
	}
}
