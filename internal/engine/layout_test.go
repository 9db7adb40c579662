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
// internal node and — once something has flagged that node — its Unflag
// header. They are deterministic — a field added to a node shape or to a
// descriptor shape fails here before any benchmark runs.

func TestLayoutSizes(t *testing.T) {
	if got := unsafe.Sizeof(node[keys.Uint64Key, uint64]{}); got != 32 {
		t.Errorf("the node header is %d B, want 32", got)
	}
	if got := unsafe.Sizeof(leafNode[keys.Uint64Key, uint64]{}); got > 48 {
		t.Errorf("leafNode[Uint64Key,uint64] is %d B, want <= 48 (the 48 B size class)", got)
	}
	if got := unsafe.Sizeof(leafNode[keys.Uint64Key, []byte]{}); got > 64 {
		t.Errorf("leafNode[Uint64Key,[]byte] is %d B, want <= 64 (the 64 B size class)", got)
	}
	// Exactly the 64 B class, not merely within it: that class is what
	// aligns every internal node to a cache line, so a descent touches one
	// line per level.
	if got := classSize(unsafe.Sizeof(innerNode[keys.Uint64Key, uint64]{})); got != 64 {
		t.Errorf("innerNode[Uint64Key,uint64] lands in the %d B size class, want 64", got)
	}
	if got := classSize(unsafe.Sizeof(innerNode[keys.Uint64Key, []byte]{})); got != 64 {
		t.Errorf("innerNode[Uint64Key,[]byte] lands in the %d B size class, want 64", got)
	}
	// Both shapes must start with the header: leaf() and inner() cast on it.
	if off := unsafe.Offsetof(leafNode[keys.Uint64Key, uint64]{}.node); off != 0 {
		t.Errorf("leafNode's header sits at offset %d, want 0", off)
	}
	if off := unsafe.Offsetof(innerNode[keys.Uint64Key, uint64]{}.node); off != 0 {
		t.Errorf("innerNode's header sits at offset %d, want 0", off)
	}
	// One pin per descriptor shape, and the header they share at offset 0:
	// parts casts on it. An uncontended insert, overwrite or delete
	// allocates a descOne or descTwo; only Figure 6's general case and
	// the three-flag fused cases pay for descGen.
	if got := unsafe.Sizeof(desc[keys.Uint64Key, uint64]{}); got != 16 {
		t.Errorf("the desc header is %d B, want 16", got)
	}
	if got := unsafe.Sizeof(descOne[keys.Uint64Key, uint64]{}); got != 48 {
		t.Errorf("descOne is %d B, want 48 (the 48 B size class)", got)
	}
	if got := unsafe.Sizeof(descTwo[keys.Uint64Key, uint64]{}); got != 64 {
		t.Errorf("descTwo is %d B, want 64 (the 64 B size class)", got)
	}
	if got := unsafe.Sizeof(descGen[keys.Uint64Key, uint64]{}); got > 128 {
		t.Errorf("descGen is %d B, want <= 128 (the 128 B size class)", got)
	}
	for name, off := range map[string]uintptr{
		"descOne": unsafe.Offsetof(descOne[keys.Uint64Key, uint64]{}.desc),
		"descTwo": unsafe.Offsetof(descTwo[keys.Uint64Key, uint64]{}.desc),
		"descGen": unsafe.Offsetof(descGen[keys.Uint64Key, uint64]{}.desc),
	} {
		if off != 0 {
			t.Errorf("%s's header sits at offset %d, want 0", name, off)
		}
	}
	// Not zero: every zero-size allocation has the same address, and an
	// Unflag is nothing but its address.
	if got := unsafe.Sizeof(info[keys.Uint64Key, uint64]{}); got < 1 || got > 8 {
		t.Errorf("the Unflag header is %d B, want 1..8", got)
	}
}

// TestTrieLayout pins where the Trie's words sit, which is what keeps
// updaters off each other's cache lines: the gate's lanes are two lines
// each and start line-aligned (the Trie is allocated in a size class that
// is a multiple of 64 B, so offsets modulo 64 are lines), and count —
// written by every insert and delete — is not on the read-mostly line of
// root that every operation loads.
func TestTrieLayout(t *testing.T) {
	var tr Trie[keys.Uint64Key, uint64]
	t.Logf("Trie[Uint64Key,uint64]: %d B; lanes at %d, root at %d, count at %d",
		unsafe.Sizeof(tr), unsafe.Offsetof(tr.gate)+unsafe.Offsetof(tr.gate.lanes),
		unsafe.Offsetof(tr.root), unsafe.Offsetof(tr.count))
	if got := unsafe.Sizeof(tr); got > 640 {
		t.Errorf("Trie[Uint64Key,uint64] is %d B, want <= 640 (the 640 B size class)", got)
	}
	if got := classSize(unsafe.Sizeof(tr)); got%64 != 0 {
		t.Errorf("Trie[Uint64Key,uint64] lands in the %d B size class, want a multiple of 64", got)
	}
	if got := unsafe.Sizeof(lane{}); got != 128 {
		t.Errorf("a lane is %d B, want 128 (two cache lines)", got)
	}
	if off := unsafe.Offsetof(tr.gate) + unsafe.Offsetof(tr.gate.lanes); off%64 != 0 {
		t.Errorf("the lanes start at offset %d, want a multiple of 64", off)
	}
	if root, count := unsafe.Offsetof(tr.root), unsafe.Offsetof(tr.count); root/64 == count/64 {
		t.Errorf("count (offset %d) shares root's cache line (offset %d)", count, root)
	}
}

// TestUnflagsAreDistinct: two Unflag headers alive at once never share an
// address, so a node's info field cannot repeat a value while any delayed
// flag CAS still holds the old one — for headers fresh from newUnflag and
// for the ones a worked-on trie's nodes hold (those that have one: a node
// nothing has flagged yet holds nil).
func TestUnflagsAreDistinct(t *testing.T) {
	seen := make(map[*uinfo]bool)
	for i := 0; i < 1000; i++ {
		u := newUnflag[keys.Uint64Key, any]()
		if seen[u] {
			t.Fatalf("newUnflag returned %p twice while the first was still live", u)
		}
		seen[u] = true
	}

	tr := mustNew(t, 16)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 4000; i++ {
		tr.Insert(uint64(rng.Intn(1 << 16)))
	}
	var walk func(n *unode)
	walk = func(n *unode) {
		if n.isLeaf() {
			return
		}
		if u := n.info.Load(); u != nil {
			if seen[u] {
				t.Fatalf("node %v shares its Unflag %p with another holder", n.label, u)
			}
			seen[u] = true
		}
		walk(n.inner().child[0].Load())
		walk(n.inner().child[1].Load())
	}
	walk(tr.root.Load())
	if len(seen) == 1000 {
		t.Fatal("setup: no node of the trie holds an Unflag")
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
// after 2^16 uniform keys the size-class-predicted bytes and the measured
// HeapAlloc growth agree within 5 %, and both come to what the layout
// promises per key. Only some internal nodes hold an Unflag: the ones an
// insert flagged as the parent of its new node, not the ones still as
// they were born.
func TestFootprintMatchesHeap(t *testing.T) {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(21))
	c := keys.U64Codec{Width: 63}
	ks := make([]keys.Uint64Key, 0, n)
	seen := make(map[uint64]bool, n)
	for len(ks) < n {
		k := rng.Uint64() >> 1
		if !seen[k] {
			seen[k] = true
			e, _ := c.Encode(k)
			ks = append(ks, e)
		}
	}
	seen = nil

	before := heapAlloc()
	lo, hi := c.Bounds()
	tr := New[keys.Uint64Key, uint64](lo, hi)
	for i, k := range ks {
		tr.Store(k, uint64(i))
	}
	measured := float64(heapAlloc() - before)

	f := tr.Footprint()
	if f.Leaves != n+2 || f.Internal != n+1 || f.Infos <= 0 || f.Infos >= f.Internal {
		t.Errorf("census = %+v, want %d leaves, %d internal nodes and 0 < Infos < Internal", f, n+2, n+1)
	}
	predicted := float64(f.Bytes())
	t.Logf("%d keys: measured %.1f B/key, predicted %.1f B/key", n, measured/n, predicted/n)
	if d := (measured - predicted) / predicted; d < -0.05 || d > 0.05 {
		t.Errorf("measured heap %.0f B vs predicted %.0f B: off by %.1f %%, want within 5 %%", measured, predicted, 100*d)
	}
	if perKey := predicted / n; perKey > 120 {
		t.Errorf("predicted %.1f B per key, want <= 120", perKey)
	}
	runtime.KeepAlive(tr)
	runtime.KeepAlive(ks)
}
