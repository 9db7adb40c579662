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
// the repository benchmark is made of: one key costs one leaf and one
// internal node; the token an update leaves in a node's info is no
// object. They are deterministic — a field added to a node shape or to a
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
	// nbtried's leaf: the header, a byte value's length and its deadline,
	// with the bytes behind them (TestByteLeafAllocs).
	if got := unsafe.Sizeof(byteLeaf[keys.Uint64Key, bval]{}); got != 48 {
		t.Errorf("byteLeaf[Uint64Key,bval] is %d B, want 48 (the 48 B size class, exactly)", got)
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
	// class Footprint predicts for it. A pointerful object of 2^8 or 2^9
	// slots' size carries the malloc header and lands in a class past
	// 1 KiB, where classSize must add the header too.
	type slot = atomic.Pointer[node[keys.Uint64Key, uint64]]
	bin, kary := spanTrie(1), spanTrie(4)
	for _, c := range []struct {
		name  string
		slots int
		alloc func()
		bytes uint64
	}{
		{"binary node", 2, func() { nodeSink = bin.newNode(keys.Uint64Key{}, 0) }, 48},
		{"span-4 node", 16, func() { nodeSink = kary.newNode(keys.Uint64Key{}, 0) }, 160},
		{"256-slot object", 256, func() { ptrSink = new(innerAlloc[keys.Uint64Key, uint64, [254]slot]) }, 2304},
		{"512-slot object", 512, func() { ptrSink = new(innerAlloc[keys.Uint64Key, uint64, [510]slot]) }, 4864},
	} {
		objs, bytes := allocPerRun(100, c.alloc)
		if objs != 1 || bytes != c.bytes {
			t.Errorf("a %s allocates %d objects, %d B; want 1 object, %d B", c.name, objs, bytes, c.bytes)
		}
		size := unsafe.Sizeof(innerNode[keys.Uint64Key, uint64]{}) + uintptr(c.slots-2)*8
		if got := classSize(size); uint64(got) != bytes {
			t.Errorf("a %s of %d B: classSize says %d B, the allocator took %d", c.name, size, got, bytes)
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
	if got := unsafe.Sizeof(descOne[keys.Uint64Key, uint64]{}); got != 40 {
		t.Errorf("descOne is %d B, want 40 (the 48 B size class)", got)
	}
	if got := unsafe.Sizeof(descTwo[keys.Uint64Key, uint64]{}); got != 56 {
		t.Errorf("descTwo is %d B, want 56 (the 64 B size class)", got)
	}
	if got := unsafe.Sizeof(descGen[keys.Uint64Key, uint64]{}); got != 112 {
		t.Errorf("descGen is %d B, want 112 (the 112 B size class)", got)
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
}

// bval is a BytesValue shaped like nbtried's expiry.Value: a byte slice
// and a word.
type bval struct {
	B  []byte
	At uint64
}

func (*bval) LeafBytes(v bval) ([]byte, uint64) { return v.B, v.At }

func (*bval) FromLeaf(b []byte, at uint64) bval { return bval{B: b, At: at} }

// TestByteLeafAllocs pins the byte-valued leaf. For every value length up
// to past maxTail, newLeafVal allocates what Footprint's leafSize counts:
// up to maxTail one object, in the smallest size class that holds the
// 48 B byteLeaf and the value (a 64 B value: 112 B), and above it a 64 B
// longLeaf and a separate copy. The bytes a read gets equal the value's
// and are a copy (cap == len, at another address); two leaves of the
// same value hand out different addresses, and an empty value reads as
// nil. An overwrite then costs the leaf and a 48 B Flag: 2 objects
// and 160 B with a 64 B value, 3 and 1136 B with a 1000 B one, its
// 1024 B copy included. A V that is not a BytesValue
// keeps the caller's slice.
func TestByteLeafAllocs(t *testing.T) {
	src := make([]byte, maxTail+64)
	for i := range src {
		src[i] = byte(i)
	}
	label := keys.Uint64Key{}
	for n := 0; n <= maxTail+64; n++ {
		v := bval{B: src[:n], At: 9}
		objs, bytes := allocPerRun(20, func() { ptrSink = newLeafVal(label, v) })
		wantObjs, wantBytes := uint64(1), uint64(0)
		for _, c := range sizeClasses {
			if c >= uintptr(48+n) {
				wantBytes = uint64(c)
				break
			}
		}
		if n > maxTail {
			wantObjs, wantBytes = 2, uint64(64+bytesClassSize(uintptr(n)))
		}
		l := newLeafVal(label, v)
		if objs != wantObjs || bytes != wantBytes || bytes != uint64(leafSize(l)) {
			t.Fatalf("a %d B value's leaf allocates %d objects, %d B; want %d, %d B (leafSize says %d)",
				n, objs, bytes, wantObjs, wantBytes, leafSize(l))
		}
		got, other := l.value(), newLeafVal(label, v).value()
		if (got.B == nil) != (n == 0) || len(got.B) != n || cap(got.B) != n || string(got.B) != string(v.B) || got.At != 9 ||
			n > 0 && (unsafe.SliceData(got.B) == unsafe.SliceData(v.B) || unsafe.SliceData(got.B) == unsafe.SliceData(other.B)) {
			t.Fatalf("a %d B value's leaf holds %d/%d B at %p (value at %p, another leaf's at %p), At %d; want an equal copy of its own",
				n, len(got.B), cap(got.B), unsafe.SliceData(got.B), unsafe.SliceData(v.B), unsafe.SliceData(other.B), got.At)
		}
	}
	if got := classSize(48 + maxTail); got != maxHeaderless || classSize(48+64) != 112 {
		t.Errorf("the largest tail's leaf lands in the %d B class, want %d; a 64 B value's in %d, want 112",
			got, maxHeaderless, classSize(48+64))
	}

	lo, hi := keys.U64Codec{Width: 32}.Bounds()
	tr := New[keys.Uint64Key, bval](lo, hi)
	k, _ := keys.U64Codec{Width: 32}.Encode(7)
	for _, c := range []struct {
		n           int
		objs, bytes uint64
	}{{64, 2, 112 + 48}, {1000, 3, 64 + 1024 + 48}} {
		v := bval{B: make([]byte, c.n)}
		tr.Store(k, v)
		if objs, bytes := allocPerRun(100, func() { tr.Store(k, v) }); objs != c.objs || bytes != c.bytes {
			t.Errorf("an overwrite with a %d B value allocates %d objects, %d B; want %d, %d B", c.n, objs, bytes, c.objs, c.bytes)
		}
	}

	raw := New[keys.Uint64Key, []byte](lo, hi)
	raw.Store(k, src)
	if got, _ := raw.Load(k); unsafe.SliceData(got) != unsafe.SliceData(src) {
		t.Error("a Trie[K, []byte] copied the stored slice; it must keep the caller's")
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

// TestUnflagsAreDistinct: two Unflags alive at once never share a value,
// so a node's info field cannot repeat one while any delayed flag CAS
// still holds the old one — for backtracks' Unflags fresh from newUnflag
// and for the tokens a worked-on trie's nodes hold, each naming one of
// its own children (a node nothing has flagged yet holds nil). Both kinds
// are odd, so neither can be a Flag.
func TestUnflagsAreDistinct(t *testing.T) {
	seen := make(map[*byte]bool)
	for i := 0; i < 1000; i++ {
		u := newUnflag()
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
			if seen[u] || flagged(u) {
				t.Fatalf("node %v holds %p: a Flag, or an Unflag another holder shares", n.label, u)
			}
			if u != token(n.inner().child[0].Load()) && u != token(n.inner().child[1].Load()) {
				t.Fatalf("node %v holds %p, not the token of one of its children", n.label, u)
			}
			seen[u] = true
		}
		walk(n.inner().child[0].Load())
		walk(n.inner().child[1].Load())
	}
	walk(tr.root.Load())
	if len(seen) == 1000 {
		t.Fatal("setup: no node of the trie holds a token")
	}

	a, b := newUnflag(), newUnflag()
	if a == b {
		t.Fatal("two consecutive newUnflag results share an address")
	}
	runtime.KeepAlive(a)
}

// nodeSink and ptrSink keep allocPerRun's objects on the heap.
var (
	nodeSink *innerNode[keys.Uint64Key, uint64]
	ptrSink  any
)

// spanTrie returns an empty 63-bit trie at the given span.
func spanTrie(span uint32) *Trie[keys.Uint64Key, uint64] {
	lo, hi := keys.U64Codec{Width: 63}.Bounds()
	return New[keys.Uint64Key, uint64](lo, hi, WithSpan[keys.Uint64Key, uint64](span))
}

// allocPerRun returns the heap objects and bytes f allocates per call,
// averaged over runs calls after one warm-up call, at GOMAXPROCS(1), read
// from runtime.MemStats (which counts each object at its size class). It
// collects first: the process's first GC cycle allocates for itself, and
// would otherwise land in whichever count it started in.
func allocPerRun(runs int, f func()) (objs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
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
// and 6, whose wide nodes the census sizes from the span (a
// span-6 node, 544 B, carries the allocator's malloc header). The binary
// trie also comes to what the layout promises per key. No info object is
// left at quiescence: a node an insert flagged as the parent of its new
// node holds a token, the others nil.
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
		if f.Leaves != n+2 || f.Infos != 0 {
			t.Errorf("span %d: census = %+v, want %d leaves and no Infos", span, f, n+2)
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
			if perKey := predicted / n; perKey > 100 {
				t.Errorf("predicted %.1f B per key, want <= 100", perKey)
			}
		}
		runtime.KeepAlive(tr)
	}
	runtime.KeepAlive(ks)
}
