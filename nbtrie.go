// Package nbtrie provides non-blocking Patricia tries reproducing
// Shafiei, "Non-blocking Patricia Tries with Replace Operations"
// (ICDCS 2013), exposed at two levels:
//
//   - a value-bearing, generics-friendly concurrent map — Map[V] for
//     uint64 keys, StringMap[V] for byte-string keys and SpatialMap[V]
//     for points in the plane (Morton/Z-order keys, with atomic Move
//     and rectangle queries) — with the sync.Map operation set (Load,
//     Store, LoadOrStore, Delete, CompareAndSwap, CompareAndDelete),
//     the paper's atomic ReplaceKey(old, new), and Go iterators (All,
//     Ascend, InRect) over the trie's sorted key space. Load is
//     wait-free except on StringMap (unbounded keys make it lock-free);
//     every mutation is lock-free. Values live immutably and unboxed on
//     trie leaves, so a value update is a fresh-leaf child CAS, readers
//     never see torn data, and Load allocates nothing.
//
// All three key spaces are instantiations of one shared update engine
// (internal/engine): the descriptor/flag/help protocol of the paper is
// written once, generic over the key type, and each key space
// contributes only a codec — its key encoding, dummy bounds and label
// rule (see DESIGN.md).
//
//   - the paper's set layer: PatriciaTrie (wait-free Contains,
//     lock-free Insert/Delete, and the lock-free atomic Replace none of
//     the baselines provide), StringTrie (the Section VI unbounded-key
//     extension), and the five concurrent-set baselines of the paper's
//     evaluation — the Ellen-et-al. non-blocking BST, a non-blocking
//     k-ary search tree, a lock-free skip list, a Bronson-style
//     lock-based AVL tree and a Prokopec concurrent hash trie.
//
// The implementation registry (Implementations, NewSet,
// LookupImplementation) enumerates the set implementations by name, so
// benchmarks, tests and tools pick them up uniformly.
//
// All structures are safe for unrestricted concurrent use and rely on
// the Go garbage collector for memory reclamation, mirroring the paper's
// Java setting. Out-of-range keys are never errors: operations on a
// fixed-width trie treat them as permanently absent.
package nbtrie

import (
	"iter"
	"slices"

	"nbtrie/internal/avl"
	"nbtrie/internal/bst"
	"nbtrie/internal/ctrie"
	"nbtrie/internal/engine"
	"nbtrie/internal/keys"
	"nbtrie/internal/kst"
	"nbtrie/internal/kv"
	"nbtrie/internal/skiplist"
)

// Set is a linearizable concurrent set of uint64 keys. All methods may be
// called from any number of goroutines without external synchronization.
type Set interface {
	// Insert adds k to the set; it returns false iff k was present.
	Insert(k uint64) bool
	// Delete removes k from the set; it returns false iff k was absent.
	Delete(k uint64) bool
	// Contains reports whether k is in the set, without modifying it.
	Contains(k uint64) bool
}

// ReplaceSet is a Set with the paper's atomic replace operation.
type ReplaceSet interface {
	Set
	// Replace removes old and inserts new atomically: both changes become
	// visible at a single linearization point. It returns true iff old
	// was present and new absent (and old != new); otherwise the set is
	// unchanged.
	Replace(old, new uint64) bool
}

// PatriciaTrie is the paper's non-blocking Patricia trie. Contains is
// wait-free; Insert, Delete and Replace are lock-free. The key space is
// [0, 2^width) for the width given at construction; keys outside it are
// treated as permanently absent (Contains and Delete report false,
// Insert and Replace fail) rather than panicking.
type PatriciaTrie struct {
	t *kv.U64[struct{}]
}

var _ ReplaceSet = (*PatriciaTrie)(nil)

// NewPatriciaTrie returns an empty trie over keys in [0, 2^width);
// width must be in [1, 63].
func NewPatriciaTrie(width uint32) (*PatriciaTrie, error) {
	return NewKaryPatriciaTrie(width, 1)
}

// KarySpan is the digit width of the registry's "karypatricia" (PAT-K)
// entry: 4 bits per level, 16-child internal nodes sized to one or two
// cache lines.
const KarySpan = 4

// NewKaryPatriciaTrie returns a k-ary trie over keys in [0, 2^width):
// the same non-blocking engine and guarantees as NewPatriciaTrie —
// wait-free allocation-free Contains, lock-free updates, atomic Replace
// — but each internal node resolves span key bits through 2^span child
// slots, cutting expected depth span-fold. span must be in [1, 6];
// span 1 is exactly NewPatriciaTrie.
func NewKaryPatriciaTrie(width, span uint32) (*PatriciaTrie, error) {
	t, err := kv.NewU64(width, engine.WithSpan[keys.Uint64Key, struct{}](span))
	if err != nil {
		return nil, err
	}
	return &PatriciaTrie{t: t}, nil
}

// Insert adds k; false iff k was present or out of range. Lock-free.
func (p *PatriciaTrie) Insert(k uint64) bool { return p.t.Insert(k) }

// Delete removes k; false iff k was absent (out-of-range keys are always
// absent). Lock-free.
func (p *PatriciaTrie) Delete(k uint64) bool { return p.t.Delete(k) }

// Contains reports membership; out-of-range keys are never members.
// Wait-free: it completes in at most width+1 child-pointer reads
// regardless of concurrent updates.
func (p *PatriciaTrie) Contains(k uint64) bool { return p.t.Contains(k) }

// Replace atomically moves membership from old to new; true iff old was
// present and new absent (an out-of-range key on either side makes it
// fail). Lock-free.
func (p *PatriciaTrie) Replace(old, new uint64) bool { return p.t.Replace(old, new) }

// Size returns the number of keys; quiescent use only.
func (p *PatriciaTrie) Size() int { return p.t.Size() }

// Keys returns the keys in increasing order; quiescent use only.
func (p *PatriciaTrie) Keys() []uint64 { return slices.Collect(p.All()) }

// Range calls fn on each key in increasing order until fn returns false.
func (p *PatriciaTrie) Range(fn func(k uint64) bool) {
	p.t.AllKV(func(k uint64, _ struct{}) bool { return fn(k) })
}

// All iterates over the keys in increasing order. Entries present for
// the whole iteration are always yielded; concurrent changes may or may
// not be observed (the Range contract as a Go iterator).
func (p *PatriciaTrie) All() iter.Seq[uint64] { return p.Ascend(0) }

// Ascend iterates over the keys >= from in increasing order, pruning
// subtrees below from.
func (p *PatriciaTrie) Ascend(from uint64) iter.Seq[uint64] {
	return func(yield func(uint64) bool) {
		p.t.AscendKV(from, func(k uint64, _ struct{}) bool { return yield(k) })
	}
}

// Validate checks the trie's structural invariants (tests/diagnostics;
// quiescent use only).
func (p *PatriciaTrie) Validate() error { return p.t.Validate() }

// Dump renders the trie structure for debugging; quiescent use only.
func (p *PatriciaTrie) Dump() string { return p.t.Dump() }

// Width returns the key width the trie was built with.
func (p *PatriciaTrie) Width() uint32 { return p.t.Codec().Width }

// Min returns the smallest key in the set. Exact at quiescence;
// best-effort under concurrent updates (like Range).
func (p *PatriciaTrie) Min() (uint64, bool) { return p.t.Min() }

// Max returns the largest key in the set (same consistency as Min).
func (p *PatriciaTrie) Max() (uint64, bool) { return p.t.Max() }

// Ceiling returns the smallest key >= k (same consistency as Min).
func (p *PatriciaTrie) Ceiling(k uint64) (uint64, bool) { return p.t.Ceiling(k) }

// Floor returns the largest key <= k (same consistency as Min).
func (p *PatriciaTrie) Floor(k uint64) (uint64, bool) { return p.t.Floor(k) }

// NewBST returns the non-blocking external binary search tree of Ellen,
// Fatourou, Ruppert and van Breugel (PODC 2010) — the paper's BST
// baseline.
func NewBST() Set { return bst.New() }

// NewKST returns a non-blocking k-ary external search tree after Brown &
// Helga (OPODIS 2011) — the paper's 4-ST baseline. arity < 2 falls back
// to the paper's k = 4.
func NewKST(arity int) Set { return kst.New(arity) }

// NewSkipList returns a lock-free skip list — the paper's SL baseline
// (Java's ConcurrentSkipListMap lineage).
func NewSkipList() Set { return skiplist.New() }

// NewAVL returns a lock-based relaxed-balance AVL tree with optimistic
// reads after Bronson et al. (PPoPP 2010) — the paper's AVL baseline.
func NewAVL() Set { return avl.New() }

// NewCtrie returns a non-blocking 32-way hash trie after Prokopec et al.
// (PPoPP 2012), without snapshots — the paper's Ctrie baseline.
func NewCtrie() Set { return ctrie.New() }

// StringTrie is the paper's Section VI extension: a non-blocking
// Patricia trie over arbitrary-length byte-string keys. Each key is
// encoded bit-wise (0→01, 1→10, end→11) so the encoded key space is
// prefix-free. Searches are lock-free (no longer wait-free: key length
// is unbounded); Insert, Delete and Replace are lock-free. Keys must be
// non-empty — the empty string's encoding collides with a dummy leaf.
type StringTrie struct {
	t *kv.String[struct{}]
}

// NewStringTrie returns an empty variable-length-key trie.
func NewStringTrie() *StringTrie { return &StringTrie{t: kv.NewString[struct{}]()} }

// Insert adds k; false iff k was present. k is copied logically via its
// encoding, so the caller may reuse the slice.
func (s *StringTrie) Insert(k []byte) bool { return s.t.Insert(k) }

// Delete removes k; false iff k was absent.
func (s *StringTrie) Delete(k []byte) bool { return s.t.Delete(k) }

// Contains reports whether k is in the set.
func (s *StringTrie) Contains(k []byte) bool { return s.t.Contains(k) }

// Replace atomically removes old and inserts new; true iff old was
// present and new absent.
func (s *StringTrie) Replace(old, new []byte) bool { return s.t.Replace(old, new) }

// Size returns the number of keys; quiescent use only.
func (s *StringTrie) Size() int { return s.t.Size() }

// Keys returns the keys in encoded order (lexicographic except that a
// proper prefix follows its extensions); quiescent use only.
func (s *StringTrie) Keys() [][]byte { return slices.Collect(s.All()) }

// All iterates over the keys in encoded order, with the same concurrent-
// read contract as PatriciaTrie.All.
func (s *StringTrie) All() iter.Seq[[]byte] {
	return func(yield func([]byte) bool) {
		s.t.AllKV(func(k []byte, _ struct{}) bool { return yield(k) })
	}
}

// Ascend iterates over the keys sorting at or after from in encoded
// order, pruning subtrees below from — the set-level twin of
// StringMap.Ascend. from must be non-empty, like every StringTrie key.
func (s *StringTrie) Ascend(from []byte) iter.Seq[[]byte] {
	return func(yield func([]byte) bool) {
		s.t.AscendKV(from, func(k []byte, _ struct{}) bool { return yield(k) })
	}
}
