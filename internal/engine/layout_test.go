package engine

import (
	"math/rand"
	"runtime"
	"sync/atomic"
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
	// nbtried's leaf: a []byte and its deadline (expiry.Value, whose own
	// test pins it at 32 B) fill the 64 B class a []byte leaf already
	// pays for — exactly, with no room to spare.
	if got := unsafe.Sizeof(leafNode[keys.Uint64Key, struct {
		b  []byte
		at uint64
	}]{}); got != 64 {
		t.Errorf("leafNode[Uint64Key,{[]byte,uint64}] is %d B, want 64 (the 64 B size class, exactly)", got)
	}
	// A binary node is the header and two slots, exactly the 48 B class
	// with no padding for every V (the value is not in it): n keys hang
	// under n-1 of them, so each of its bytes is a byte per key.
	if got := unsafe.Sizeof(innerNode[keys.Uint64Key, uint64]{}); got != 48 || classSize(got) != 48 {
		t.Errorf("a binary node [Uint64Key,uint64] is %d B in the %d B size class, want 48 in 48", got, classSize(got))
	}
	if got := unsafe.Sizeof(innerNode[keys.Uint64Key, []byte]{}); got != 48 || classSize(got) != 48 {
		t.Errorf("a binary node [Uint64Key,[]byte] is %d B in the %d B size class, want 48 in 48", got, classSize(got))
	}
	// A span-4 node: the header and its 16 slots, 32 + 16·8 B. kid finds
	// slot i at i words past child[0], so the tail must follow child with
	// no gap.
	type wide = innerAlloc[keys.Uint64Key, uint64, [14]atomic.Pointer[node[keys.Uint64Key, uint64]]]
	if got := unsafe.Sizeof(wide{}); got != 32+16*8 {
		t.Errorf("a span-4 node is %d B, want %d", got, 32+16*8)
	}
	if off, want := unsafe.Offsetof(wide{}.tail), unsafe.Offsetof(wide{}.child)+2*8; off != want {
		t.Errorf("a wide node's tail sits at offset %d, want %d (right after child)", off, want)
	}
	// What newNode allocates: one object of the pinned class per node, the
	// class Footprint predicts for it. A root of 2^8 or 2^9 slots carries
	// the malloc header and lands in a class past 1 KiB.
	for _, c := range []struct {
		name        string
		span, rootS uint32
		bytes       uint64
	}{{"binary", 1, 1, 48}, {"span-4", 4, 4, 160}, {"root-span-8", 1, 8, 2304}, {"root-span-9", 1, 9, 4864}} {
		lo, hi := keys.U64Codec{Width: 63}.Bounds()
		tr := New[keys.Uint64Key, uint64](lo, hi, WithSpan[keys.Uint64Key, uint64](c.span), WithRootSpan[keys.Uint64Key, uint64](c.rootS))
		objs, bytes := allocPerRun(100, func() { nodeSink = tr.newNode(keys.Uint64Key{}, 0) })
		if objs != 1 || bytes != c.bytes {
			t.Errorf("a %s newNode allocates %d objects, %d B; want 1 object, %d B", c.name, objs, bytes, c.bytes)
		}
		size := unsafe.Sizeof(innerNode[keys.Uint64Key, uint64]{}) + uintptr(1<<c.rootS-2)*8
		if got := classSize(size); uint64(got) != bytes {
			t.Errorf("a %s node of %d B: classSize says %d B, the allocator took %d", c.name, size, got, bytes)
		}
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
// root and the shortcut pointer that every read loads.
func TestTrieLayout(t *testing.T) {
	var tr Trie[keys.Uint64Key, uint64]
	t.Logf("Trie[Uint64Key,uint64]: %d B; lanes at %d, root at %d, short at %d, count at %d",
		unsafe.Sizeof(tr), unsafe.Offsetof(tr.gate)+unsafe.Offsetof(tr.gate.lanes),
		unsafe.Offsetof(tr.root), unsafe.Offsetof(tr.short), unsafe.Offsetof(tr.count))
	// Exactly the 640 B class, a multiple of 64, with the allocator's
	// 8 B header: a Trie of 640 B or more would cost 704.
	if got := classSize(unsafe.Sizeof(tr)); got != 640 {
		t.Errorf("Trie[Uint64Key,uint64] is %d B and lands in the %d B size class with its malloc header, want 640",
			unsafe.Sizeof(tr), got)
	}
	if got := unsafe.Sizeof(lane{}); got != 128 {
		t.Errorf("a lane is %d B, want 128 (two cache lines)", got)
	}
	if off := unsafe.Offsetof(tr.gate) + unsafe.Offsetof(tr.gate.lanes); off%64 != 0 {
		t.Errorf("the lanes start at offset %d, want a multiple of 64", off)
	}
	root, short, count := unsafe.Offsetof(tr.root), unsafe.Offsetof(tr.short), unsafe.Offsetof(tr.count)
	if root/64 == count/64 {
		t.Errorf("count (offset %d) shares root's cache line (offset %d)", count, root)
	}
	// Every live read loads short next to root; every insert and delete
	// writes count.
	if short/64 != root/64 || short/64 == count/64 {
		t.Errorf("the shortcut pointer (offset %d) must share root's line (offset %d), not count's (offset %d)", short, root, count)
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

// nodeSink keeps allocPerRun's nodes on the heap.
var nodeSink *innerNode[keys.Uint64Key, uint64]

// allocPerRun returns the heap objects and bytes f allocates per call,
// averaged over runs calls after one warm-up call, at GOMAXPROCS(1), read
// from runtime.MemStats (which counts each object at its size class).
func allocPerRun(runs int, f func()) (objs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs), (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
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
// HeapAlloc growth agree within 5 %, for a binary trie and spans 4, 5
// and 6, whose wide nodes the census sizes from the digit schedule (a
// span-6 node, 544 B, carries the allocator's malloc header). The binary
// trie also comes to what the layout promises per key. Only some
// internal nodes hold an Unflag: the ones an insert flagged as the parent
// of its new node, not the ones still as they were born.
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

	for _, span := range []uint32{1, 4, 5, 6} {
		before := heapAlloc()
		lo, hi := c.Bounds()
		tr := New[keys.Uint64Key, uint64](lo, hi, WithSpan[keys.Uint64Key, uint64](span))
		for i, k := range ks {
			tr.Store(k, uint64(i))
		}
		measured := float64(heapAlloc() - before)

		f := tr.Footprint()
		if f.Leaves != n+2 || f.Infos <= 0 || f.Infos >= f.Internal {
			t.Errorf("span %d: census = %+v, want %d leaves and 0 < Infos < Internal", span, f, n+2)
		}
		predicted := float64(f.Bytes())
		t.Logf("span %d, %d keys: measured %.1f B/key, predicted %.1f B/key", span, n, measured/n, predicted/n)
		if d := (measured - predicted) / predicted; d < -0.05 || d > 0.05 {
			t.Errorf("span %d: measured heap %.0f B vs predicted %.0f B: off by %.1f %%, want within 5 %%", span, measured, predicted, 100*d)
		}
		if span == 1 {
			if f.Internal != n+1 {
				t.Errorf("census = %+v, want %d internal nodes", f, n+1)
			}
			if perKey := predicted / n; perKey > 104 {
				t.Errorf("predicted %.1f B per key, want <= 104", perKey)
			}
		}
		runtime.KeepAlive(tr)
	}
	runtime.KeepAlive(ks)
}
