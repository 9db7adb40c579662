// Package sharded is a sharded front-end over the fixed-width Patricia
// trie (internal/kv's U64): the width-bit key space is partitioned into 2^s
// contiguous slices by the top s key bits (keys.ShardOf), and each slice
// is served by its own independent instance of the shared non-blocking
// update engine. Every update funnelling through one root is the paper's
// trie's scaling ceiling — helping traffic and child-CAS retries grow
// with contention near the root — so partitioning the key space is the
// standard next lever (compare the cache-aware Ctrie line of work):
// writers touching different shards share no memory at all, while each
// shard individually keeps every per-trie guarantee.
//
// Because the partition is by top bits rather than by hash, shard i owns
// exactly the contiguous key interval [i<<(width-s), (i+1)<<(width-s)).
// Two consequences the API relies on:
//
//   - per-shard tries keep their prefix structure: keys in one shard
//     relate exactly as in the unsharded trie once the shared top s bits
//     are factored out, so each shard stores only the low width-s bits
//     of its keys (a strictly shallower trie);
//   - ascending iteration stitches: concatenating per-shard ascents in
//     shard-index order is a full ascent of the key space.
//
// Guarantees are per shard: Load/Contains stay wait-free and
// allocation-free, all single-key mutations stay lock-free, and Replace
// stays atomic when both keys live in the same shard. A cross-shard
// Replace would need one linearization point spanning two independent
// tries, which no per-shard protocol can provide without locking both —
// so it is refused with ErrCrossShard instead of being faked.
// Aggregate reads (Size, iteration) are per-shard-exact but not a global
// snapshot, same as the unsharded trie's Range contract.
package sharded

import (
	"errors"
	"fmt"
	"math/bits"
	"reflect"
	"runtime"
	"sync"

	"nbtrie/internal/engine"
	"nbtrie/internal/keys"
	"nbtrie/internal/kv"
)

// ErrCrossShard is returned by Replace when the two keys live in
// different shards. The sharded trie's Replace is atomic only within a
// shard (one engine instance, one linearization point); moving a key
// across shards is two independent linearizable operations and callers
// must decide how to compose them (delete-then-insert, tolerate both
// visible, or re-key within a shard).
var ErrCrossShard = errors.New("sharded: keys live in different shards; cross-shard replace is not atomic")

// ErrMoveBusy is returned by MoveKey when a cross-shard move of the same
// source key is already in flight: the in-flight marker doubles as a
// per-source mutual-exclusion token, so two concurrent moves can never
// duplicate one value into two destinations.
var ErrMoveBusy = errors.New("sharded: a cross-shard move of this key is already in flight")

// MaxShards caps the shard count: beyond a few hundred independent
// roots, routing wins are exhausted and per-shard fixed overhead (two
// dummy leaves and a root path each) dominates.
const MaxShards = 256

// minDefaultShards floors DefaultShards: shard demand tracks concurrent
// goroutines, which routinely outnumber GOMAXPROCS, so a few shards are
// kept even on small hosts (the same reasoning as ConcurrentHashMap's
// historical minimum segment count).
const minDefaultShards = 8

// DefaultShards is the shard count New uses when given 0:
// runtime.GOMAXPROCS rounded up to a power of two, floored at 8 and
// capped at MaxShards.
func DefaultShards() int {
	n := runtime.GOMAXPROCS(0)
	if n < minDefaultShards {
		n = minDefaultShards
	}
	if n > MaxShards {
		n = MaxShards
	}
	return 1 << bits.Len(uint(n-1))
}

// Trie is the sharded front-end: a linearizable set/map over uint64 keys
// in [0, 2^width) with the same per-operation surface as kv.U64,
// served by 2^s independent engine instances. All methods are safe for
// unrestricted concurrent use.
type Trie[V any] struct {
	width     uint32
	shardBits uint32
	shards    []*kv.U64[V]

	// In-flight cross-shard move markers, keyed by source key. A marker
	// exists exactly while a MoveKey is between its load and its final
	// unregister, recording enough (destination, value) for ResolveMoves
	// to finish an interrupted move. moveHook, when non-nil, is called
	// between the phases — a test seam for simulating a crash mid-move.
	moveMu   sync.Mutex
	moves    map[uint64]moveRecord[V]
	moveHook func(phase int)
}

// moveRecord is the durable-enough residue of an in-flight cross-shard
// move: where the value was headed and what it was.
type moveRecord[V any] struct {
	to  uint64
	val V
}

// New returns an empty sharded trie over keys in [0, 2^width); width
// must be in [1, keys.MaxWidth]. shardCount selects the number of
// shards: 0 means DefaultShards, anything else must be a power of two in
// [1, MaxShards]. The count is silently clamped so each shard keeps at
// least one key bit (shardBits <= width-1); Shards reports the count in
// effect.
func New[V any](width uint32, shardCount int) (*Trie[V], error) {
	return NewSpan[V](width, shardCount, 1)
}

// NewSpan is New with the per-shard tries built at digit width span
// (engine.WithSpan): 2^span-child nodes resolve span key bits per level
// inside every shard, composing the sharded front-end's write scaling
// with the k-ary depth cut. span must be in [1, 6]; 1 is New.
func NewSpan[V any](width uint32, shardCount int, span uint32) (*Trie[V], error) {
	if width < 1 || width > keys.MaxWidth {
		return nil, fmt.Errorf("sharded trie: width %d out of range [1, %d]", width, keys.MaxWidth)
	}
	if span < 1 || span > 6 {
		return nil, fmt.Errorf("sharded trie: span %d out of range [1, 6]", span)
	}
	if shardCount == 0 {
		shardCount = DefaultShards()
	}
	if shardCount < 1 || shardCount > MaxShards || shardCount&(shardCount-1) != 0 {
		return nil, fmt.Errorf("sharded trie: shard count %d must be a power of two in [1, %d]", shardCount, MaxShards)
	}
	s := uint32(bits.TrailingZeros(uint(shardCount)))
	if s > width-1 {
		s = width - 1
	}
	t := &Trie[V]{
		width:     width,
		shardBits: s,
		shards:    make([]*kv.U64[V], 1<<s),
	}
	for i := range t.shards {
		st, err := kv.NewU64(width-s, engine.WithSpan[keys.Uint64Key, V](span))
		if err != nil {
			return nil, err
		}
		t.shards[i] = st
	}
	return t, nil
}

// Width returns the user-key width in bits.
func (t *Trie[V]) Width() uint32 { return t.width }

// Shards returns the number of shards in effect.
func (t *Trie[V]) Shards() int { return len(t.shards) }

// ShardBits returns s, the number of top key bits used for routing.
func (t *Trie[V]) ShardBits() uint32 { return t.shardBits }

// ShardOf returns the index of the shard owning k, and false for keys
// outside [0, 2^width), which no shard owns.
func (t *Trie[V]) ShardOf(k uint64) (int, bool) {
	idx, _, ok := t.route(k)
	return int(idx), ok
}

// SameShard reports whether a and b are both in range and owned by the
// same shard — the precondition for an atomic Replace between them.
func (t *Trie[V]) SameShard(a, b uint64) bool {
	ia, okA := t.ShardOf(a)
	ib, okB := t.ShardOf(b)
	return okA && okB && ia == ib
}

// route returns the index of the shard owning k and the key that shard
// stores in its place; ok is false for out-of-range keys, which no shard
// owns and which are permanently absent.
func (t *Trie[V]) route(k uint64) (idx, rest uint64, ok bool) {
	if !keys.InRange(k, t.width) {
		return 0, 0, false
	}
	return keys.ShardOf(k, t.width, t.shardBits), keys.ShardRest(k, t.width, t.shardBits), true
}

// Contains reports membership, wait-free and allocation-free: one shard
// index computation, then the shard trie's pure-read descent.
func (t *Trie[V]) Contains(k uint64) bool {
	i, rest, ok := t.route(k)
	return ok && t.shards[i].Contains(rest)
}

// Load returns the value bound to k, or (zero, false) when absent.
// Wait-free and allocation-free like Contains.
func (t *Trie[V]) Load(k uint64) (V, bool) {
	i, rest, ok := t.route(k)
	if !ok {
		var zero V
		return zero, false
	}
	return t.shards[i].Load(rest)
}

// Insert adds k, returning false if it was already present or out of
// range. Lock-free within the owning shard.
func (t *Trie[V]) Insert(k uint64) bool {
	i, rest, ok := t.route(k)
	return ok && t.shards[i].Insert(rest)
}

// InsertValue is Insert with a value payload bound to the fresh leaf.
func (t *Trie[V]) InsertValue(k uint64, val V) bool {
	i, rest, ok := t.route(k)
	return ok && t.shards[i].InsertValue(rest, val)
}

// Delete removes k, returning false if it was absent. Lock-free within
// the owning shard.
func (t *Trie[V]) Delete(k uint64) bool {
	i, rest, ok := t.route(k)
	return ok && t.shards[i].Delete(rest)
}

// Store binds k to val, inserting or overwriting (lock-free upsert). It
// returns false only for out-of-range keys.
func (t *Trie[V]) Store(k uint64, val V) bool {
	i, rest, ok := t.route(k)
	return ok && t.shards[i].Store(rest, val)
}

// Swap is Store that also returns the value it replaced (loaded true).
// ok is false only for out-of-range keys, which are not stored.
func (t *Trie[V]) Swap(k uint64, val V) (previous V, loaded, ok bool) {
	i, rest, inRange := t.route(k)
	if !inRange {
		return previous, false, false
	}
	return t.shards[i].Swap(rest, val)
}

// LoadAndDelete is Delete that also returns the value it removed.
func (t *Trie[V]) LoadAndDelete(k uint64) (value V, loaded bool) {
	if i, rest, ok := t.route(k); ok {
		return t.shards[i].LoadAndDelete(rest)
	}
	return value, false
}

// LoadOrStore returns the value bound to k if present (loaded true);
// otherwise it stores val and returns it. ok is false only for
// out-of-range keys, which can neither be loaded nor stored.
func (t *Trie[V]) LoadOrStore(k uint64, val V) (actual V, loaded, ok bool) {
	i, rest, inRange := t.route(k)
	if !inRange {
		return actual, false, false
	}
	return t.shards[i].LoadOrStore(rest, val)
}

// CompareAndSwap swaps k's value from old to new if the stored value
// equals old (interface equality; old must be comparable).
func (t *Trie[V]) CompareAndSwap(k uint64, old, new V) bool {
	i, rest, ok := t.route(k)
	return ok && t.shards[i].CompareAndSwap(rest, old, new)
}

// CompareAndDelete deletes k if its stored value equals old (interface
// equality; old must be comparable).
func (t *Trie[V]) CompareAndDelete(k uint64, old V) bool {
	i, rest, ok := t.route(k)
	return ok && t.shards[i].CompareAndDelete(rest, old)
}

// DeleteFunc deletes k if cond returns true for its stored value,
// returning true iff the key was deleted; the value cond approved is the
// value removed. cond may run more than once under contention and must
// be side-effect free.
func (t *Trie[V]) DeleteFunc(k uint64, cond func(V) bool) bool {
	i, rest, ok := t.route(k)
	return ok && t.shards[i].DeleteFunc(rest, cond)
}

// CompareAndSwapFunc binds k to new if cond returns true for its stored
// value, returning true iff the swap happened; the value cond approved is
// the value replaced. cond may run more than once under contention and
// must be side-effect free.
func (t *Trie[V]) CompareAndSwapFunc(k uint64, cond func(V) bool, new V) bool {
	i, rest, ok := t.route(k)
	return ok && t.shards[i].CompareAndSwapFunc(rest, cond, new)
}

// Replace atomically removes old and inserts new when both keys live in
// the same shard: the owning engine's Replace provides the single
// linearization point, and the value travels with the key. It returns
// (false, ErrCrossShard) when both keys are in range but owned by
// different shards — see the package comment for why this is refused
// rather than faked. Out-of-range keys make it return (false, nil), like
// the unsharded trie: an out-of-range old is never present, an
// out-of-range new cannot be inserted.
func (t *Trie[V]) Replace(old, new uint64) (bool, error) {
	io, ro, okOld := t.route(old)
	in, rn, okNew := t.route(new)
	if !okOld || !okNew {
		return false, nil
	}
	if io != in {
		return false, ErrCrossShard
	}
	return t.shards[io].Replace(ro, rn), nil
}

// MoveKey moves the value stored under from to the key to, across shard
// boundaries. Same-shard pairs take the engine's atomic Replace (one
// linearization point, same as the Replace method). Cross-shard pairs
// run a documented two-phase protocol:
//
//  1. load the source value and register an in-flight marker
//     (source → destination, value);
//  2. insert the value at the destination (LoadOrStore — the move fails
//     without side effects if the destination already holds a key);
//  3. delete the source and drop the marker.
//
// The move is not atomic: a concurrent reader can observe both copies
// between phases 2 and 3. What the protocol does guarantee is
// at-least-one-copy — there is no instant at which neither key holds
// the value, because the source is deleted only after the destination
// insert committed. The marker makes an interrupted move recoverable:
// ResolveMoves finishes (or abandons) whatever a crashed mover left
// behind, and doubles as per-source mutual exclusion — a second MoveKey
// of the same source while one is in flight fails with ErrMoveBusy
// rather than risking value duplication.
//
// It returns (true, nil) when the value moved; (false, nil) when the
// source was absent, the destination was occupied, or either key is out
// of range; (false, ErrMoveBusy) on a marker collision. A concurrent
// Store to the source during the move window is never lost: phase 3 is
// value-conditional (identity, via DeleteFunc), so it removes the
// source only while it still holds the exact value phase 1 loaded. An
// overwrite that lands mid-move survives at the source alongside the
// moved copy at the destination — the outcome of the legal
// serialization move-then-store.
func (t *Trie[V]) MoveKey(from, to uint64) (bool, error) {
	if !keys.InRange(from, t.width) || !keys.InRange(to, t.width) {
		return false, nil
	}
	if from == to {
		return false, nil // nothing to move; mirrors Replace(k, k)
	}
	if t.SameShard(from, to) {
		moved, err := t.Replace(from, to)
		return moved, err
	}
	val, ok := t.Load(from)
	if !ok {
		return false, nil
	}
	if !t.registerMove(from, moveRecord[V]{to: to, val: val}) {
		return false, ErrMoveBusy
	}
	if h := t.moveHook; h != nil {
		h(1)
	}
	if _, loaded, _ := t.LoadOrStore(to, val); loaded {
		t.unregisterMove(from)
		return false, nil
	}
	if h := t.moveHook; h != nil {
		h(2)
	}
	// Phase 3 must not be a blind delete: mutators do not serialize
	// against moves, so a Store to the source acked during the move
	// window would be silently erased — the value at neither key. Delete
	// only the exact value phase 1 loaded; a concurrent overwrite fails
	// the identity check and survives.
	t.DeleteFunc(from, func(have V) bool { return identical(have, val) })
	t.unregisterMove(from)
	return true, nil
}

// identical reports whether two stored values are the same stored value
// — allocation identity, not content equality. Slices match on backing
// array and length (zero-length slices have no element to anchor on, so
// length equality is the whole check); other reference kinds match on
// their referent pointer; structs match field by field, so a server
// value {bytes, arming} is identical when both halves are; plain
// comparable values fall back to ==. A fresh allocation with equal
// content is deliberately NOT identical: a value stored by a concurrent
// writer must never satisfy a conditional delete aimed at the value a
// mover loaded earlier.
func identical[V any](a, b V) bool {
	return identicalValue(reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem())
}

func identicalValue(va, vb reflect.Value) bool {
	switch va.Kind() {
	case reflect.Slice:
		return va.Len() == vb.Len() &&
			(va.Len() == 0 || va.UnsafePointer() == vb.UnsafePointer())
	case reflect.Map, reflect.Chan, reflect.Func, reflect.Pointer, reflect.UnsafePointer:
		return va.UnsafePointer() == vb.UnsafePointer()
	case reflect.Struct:
		for i := range va.NumField() {
			if !identicalValue(va.Field(i), vb.Field(i)) {
				return false
			}
		}
		return true
	default:
		return va.Comparable() && va.Equal(vb)
	}
}

// registerMove records an in-flight move marker for from, refusing
// (false) when one already exists.
func (t *Trie[V]) registerMove(from uint64, rec moveRecord[V]) bool {
	t.moveMu.Lock()
	defer t.moveMu.Unlock()
	if t.moves == nil {
		t.moves = make(map[uint64]moveRecord[V])
	}
	if _, busy := t.moves[from]; busy {
		return false
	}
	t.moves[from] = rec
	return true
}

// unregisterMove drops the in-flight marker for from.
func (t *Trie[V]) unregisterMove(from uint64) {
	t.moveMu.Lock()
	delete(t.moves, from)
	t.moveMu.Unlock()
}

// PendingMoves reports how many cross-shard moves are currently marked
// in flight (diagnostics and tests).
func (t *Trie[V]) PendingMoves() int {
	t.moveMu.Lock()
	defer t.moveMu.Unlock()
	return len(t.moves)
}

// ResolveMoves completes or abandons every cross-shard move whose mover
// died between phases, using the in-flight markers: if the destination
// key exists the insert committed, so the source is deleted (the move
// completes); otherwise the move never became visible and is abandoned
// with the source intact. Either way the marker is dropped. It returns
// the number of moves completed. Quiescent use only — it is meant for
// recovery after the goroutines that were moving keys are gone, not for
// concurrent use alongside live movers.
func (t *Trie[V]) ResolveMoves() int {
	t.moveMu.Lock()
	defer t.moveMu.Unlock()
	n := 0
	for from, rec := range t.moves {
		if t.Contains(rec.to) {
			// Same value-conditional delete as live phase 3: even in
			// recovery, only the value the interrupted mover loaded is
			// removed from the source.
			t.DeleteFunc(from, func(have V) bool { return identical(have, rec.val) })
			n++
		}
		delete(t.moves, from)
	}
	return n
}

// AscendKV calls fn on every (key, value) pair with key >= from in
// ascending key order, until fn returns false. Read-only and safe under
// concurrent updates with the per-shard Range contract; entries in
// different shards are not a single snapshot.
func (t *Trie[V]) AscendKV(from uint64, fn func(k uint64, val V) bool) {
	ascend(t, t.shards, from, fn)
}

// ascender is the ordered walk of one shard: its live trie or its
// snapshot.
type ascender[V any] interface {
	AscendKV(from uint64, fn func(k uint64, val V) bool)
}

// ascend calls fn on every (key, value) pair with key >= from, in
// ascending key order, until fn returns false: the ascents of the
// shards at or after from's, concatenated in shard-index order
// (contiguous top-bit partitioning makes that the global key order).
func ascend[V any, S ascender[V]](t *Trie[V], shards []S, from uint64, fn func(k uint64, val V) bool) {
	start, rest, more := t.route(from) // nothing sorts at or after an out-of-range from
	for idx := start; more && idx < uint64(len(shards)); idx++ {
		base := keys.ShardBase(idx, t.width, t.shardBits)
		shards[idx].AscendKV(rest, func(k uint64, val V) bool {
			more = fn(base|k, val)
			return more
		})
		rest = 0
	}
}

// Size sums the shard sizes by traversal; quiescent use only (the
// per-shard counts are exact, their sum is not a global snapshot).
func (t *Trie[V]) Size() int {
	n := 0
	for _, sh := range t.shards {
		n += sh.Size()
	}
	return n
}

// Len sums the per-shard atomic counters: O(shards), allocation-free,
// exact at quiescence. Under concurrency each shard's counter is at
// most its in-flight mutations stale, and the sum is not a global
// snapshot — the same consistency window as iteration.
func (t *Trie[V]) Len() int {
	n := 0
	for _, sh := range t.shards {
		n += sh.Len()
	}
	return n
}

// Validate checks every shard's structural invariants
// (tests/diagnostics; quiescent use only).
func (t *Trie[V]) Validate() error {
	for i, sh := range t.shards {
		if err := sh.Validate(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}
