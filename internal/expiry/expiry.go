// Package expiry is nbtried's key-expiry subsystem: a secondary,
// deadline-ordered index over the primary key space, built from the same
// non-blocking Patricia-trie engine as the primary map and kept loosely
// consistent with it.
//
// Two tries make up an Index:
//
//   - entries, a sharded trie mapping primary key → Entry{deadline, seq},
//     sharded identically to the primary map so a key's TTL lives on the
//     same shard partition as its value (one extra wait-free descent on
//     the read path, no cross-shard traffic);
//   - byDeadline, a single ordered trie mapping deadline<<20|seq →
//     primary key. Packing the deadline into the top bits makes trie
//     order deadline order, so "everything due by now" is one Ascend
//     range scan and "when must the reaper next wake" is one Min — the
//     ordered-traversal dividend of the Patricia trie (the paper's
//     structure keeps keys in bit order for free; a hash index would
//     need a separate heap).
//
// The seq suffix (20 bits, from a global counter) makes index keys
// unique even when many keys share one deadline millisecond; 43 bits
// remain for the deadline, which covers Unix-milliseconds past year
// 2500.
//
// Loose consistency, precisely: entries is authoritative; byDeadline is
// a hint. A racing re-EXPIRE can briefly leave a byDeadline node whose
// entry has moved on — the reaper detects the mismatch (the entry it
// loads no longer matches the node's deadline) and discards the stale
// node without touching the key. Every purge is therefore
// entry-conditional (CompareAndDelete on the Entry, value-conditional
// DeleteFunc on the primary), never a blind delete.
package expiry

import (
	"math"
	"sync/atomic"

	"nbtrie/internal/engine"
	"nbtrie/internal/keys"
	"nbtrie/internal/kv"
	"nbtrie/internal/sharded"
)

const (
	// seqBits is the width of the uniquifying suffix in byDeadline keys.
	seqBits = 20
	seqMask = (1 << seqBits) - 1

	// idxWidth is byDeadline's key width: the full 63 bits the engine
	// offers, split 43 deadline / 20 seq.
	idxWidth = 63

	// MaxDeadlineMS is the largest representable absolute deadline
	// (Unix milliseconds): 2^43-1 ms ≈ year 2248. Later deadlines are
	// clamped here — indistinguishable from "never" on any real horizon.
	MaxDeadlineMS = int64(1)<<(idxWidth-seqBits) - 1
)

// Entry is one key's expiry record: the absolute deadline and the
// uniquifying sequence number its byDeadline node carries. Entry is
// comparable, so the conditional trie operations (CompareAndDelete) work
// on it directly — an Entry value identifies one specific arming of one
// key's TTL.
type Entry struct {
	DeadlineMS int64
	Seq        uint64
}

// idxKey packs the entry into its byDeadline key.
func (e Entry) idxKey() uint64 {
	return uint64(e.DeadlineMS)<<seqBits | e.Seq
}

// Index is the deadline-ordered expiry index. All methods are safe for
// unrestricted concurrent use; consistency between the index and the
// primary map it annotates is the caller's protocol (see the package
// comment and DESIGN.md §12).
type Index struct {
	entries    *sharded.Trie[Entry]
	byDeadline *kv.U64[uint64]
	seq        atomic.Uint64

	// Reaper coordination: armed holds the deadline the reaper is
	// currently sleeping toward (MaxInt64 when idle scanning); Set sends
	// on wake — capacity 1, non-blocking — when it installs an earlier
	// deadline, so the reaper can never sleep past work.
	armed atomic.Int64
	wake  chan struct{}

	expired atomic.Uint64
	passes  atomic.Uint64
}

// New returns an empty index for primary keys of the given width,
// sharded shardCount ways (same constraints as the primary map — use the
// primary's width and shard count so the partition lines up).
func New(width uint32, shardCount int) (*Index, error) {
	entries, err := sharded.New[Entry](width, shardCount)
	if err != nil {
		return nil, err
	}
	byDeadline, err := kv.NewU64(idxWidth, engine.WithSpan[keys.Uint64Key, uint64](4))
	if err != nil {
		return nil, err
	}
	x := &Index{entries: entries, byDeadline: byDeadline, wake: make(chan struct{}, 1)}
	x.armed.Store(math.MaxInt64)
	return x, nil
}

// setRetryLap bounds how many consecutive seq-collision retries Set
// makes at one millisecond before degrading to a neighboring one: a
// full lap of the suffix space in production (every slot provably
// probed); tests lower it to exercise the exhaustion path without
// arming 2^20 keys.
var setRetryLap = seqMask

// clampDeadline forces a deadline into the representable range.
func clampDeadline(ms int64) int64 {
	if ms < 0 {
		return 0
	}
	if ms > MaxDeadlineMS {
		return MaxDeadlineMS
	}
	return ms
}

// Set arms (or re-arms) k's deadline. The byDeadline node is inserted
// before the entry is published, so the reaper can never observe an
// entry without a node to find it by; the previous arming's node, if
// any, is removed afterwards (on a lost race it survives as a stale node
// for the reaper to discard). Finally the reaper is woken if the new
// deadline is earlier than what it is sleeping toward. It returns the
// Entry now in force; its deadline can differ from the requested one by
// the representable-range clamp or, when every seq slot of a
// millisecond is occupied, by the neighboring-millisecond fallback.
func (x *Index) Set(k uint64, deadlineMS int64) Entry {
	deadlineMS = clampDeadline(deadlineMS)
	old, had := x.entries.Load(k)
	e := Entry{DeadlineMS: deadlineMS}
	down := false
	for tries := 0; ; tries++ {
		e.Seq = x.seq.Add(1) & seqMask
		if x.byDeadline.InsertValue(e.idxKey(), k) {
			break
		}
		// Seq collision after 2^20 wraps at one millisecond: take the
		// next counter value and retry. If a full lap finds every seq
		// slot for this millisecond occupied (>2^20 keys armed at one
		// deadline — a mass restore or bulk EXPIREAT), degrade by one
		// millisecond instead of spinning forever: prefer later (firing
		// a hair late is invisible), walk earlier once the clamp ceiling
		// is hit so the search still terminates.
		if tries >= setRetryLap {
			if down || e.DeadlineMS >= MaxDeadlineMS {
				down = true
				e.DeadlineMS--
			} else {
				e.DeadlineMS++
			}
			tries = -1
		}
	}
	x.entries.Store(k, e)
	if had {
		x.byDeadline.CompareAndDelete(old.idxKey(), k)
	}
	if e.DeadlineMS < x.armed.Load() {
		x.notify()
	}
	return e
}

// Clear removes k's deadline (PERSIST, or a plain SET overwriting a
// TTL'd key), returning true iff an arming was removed.
func (x *Index) Clear(k uint64) bool {
	for {
		e, ok := x.entries.Load(k)
		if !ok {
			return false
		}
		if x.entries.CompareAndDelete(k, e) {
			x.byDeadline.CompareAndDelete(e.idxKey(), k)
			return true
		}
		// Lost a race with a concurrent Set/Clear of the same key; the
		// authoritative entry changed under us — reload and retry.
	}
}

// Lookup returns k's current arming, if any. Wait-free, allocation-free
// (one sharded-trie descent): this is the read-path check.
func (x *Index) Lookup(k uint64) (Entry, bool) {
	return x.entries.Load(k)
}

// Remove deletes k's arming only if it is still exactly e — the
// conditional half of a purge. Returns true iff the entry was removed by
// this call. The byDeadline node is removed best-effort either way.
func (x *Index) Remove(k uint64, e Entry) bool {
	if !x.entries.CompareAndDelete(k, e) {
		return false
	}
	x.byDeadline.CompareAndDelete(e.idxKey(), k)
	return true
}

// Earliest returns the soonest armed deadline, if any arming exists.
// Stale nodes can make it report a deadline whose arming has moved on —
// harmless, the reaper's scan discards them.
func (x *Index) Earliest() (deadlineMS int64, ok bool) {
	idx, ok := x.byDeadline.Min()
	if !ok {
		return 0, false
	}
	return int64(idx >> seqBits), true
}

// Arm records the deadline the reaper is about to sleep toward. Calling
// Arm(math.MaxInt64) before scanning for the next deadline closes the
// missed-wakeup window: any Set landing after that store sees an
// "infinitely late" armed value and notifies.
func (x *Index) Arm(deadlineMS int64) { x.armed.Store(deadlineMS) }

// Wake is the reaper's wakeup channel: capacity 1, signalled (never
// blocking) whenever a deadline earlier than the armed one is installed.
func (x *Index) Wake() <-chan struct{} { return x.wake }

func (x *Index) notify() {
	select {
	case x.wake <- struct{}{}:
	default:
	}
}

// Reap scans everything due at or before nowMS in deadline order. For
// each candidate whose arming still matches its node, purge is invoked
// with the key and its Entry; purge owns the actual removal protocol
// (value-conditional primary delete, then Remove) and reports whether it
// expired the key. Nodes whose arming moved on are discarded. Reap
// returns the number of keys purge reported expired; it also counts one
// reaper pass.
func (x *Index) Reap(nowMS int64, purge func(k uint64, e Entry) bool) int {
	x.passes.Add(1)
	limit := uint64(clampDeadline(nowMS))<<seqBits | seqMask
	type cand struct{ idx, key uint64 }
	var cands []cand
	x.byDeadline.AscendKV(0, func(idx uint64, key uint64) bool {
		if idx > limit {
			return false
		}
		cands = append(cands, cand{idx, key})
		return true
	})
	n := 0
	for _, c := range cands {
		e, ok := x.entries.Load(c.key)
		if !ok || e.idxKey() != c.idx {
			// Stale node: the arming it described was cleared or
			// replaced. Drop the node; the key is not touched.
			x.byDeadline.CompareAndDelete(c.idx, c.key)
			continue
		}
		if purge(c.key, e) {
			n++
		}
		// purge's Remove already dropped the node on success; on a lost
		// race (concurrent re-arm) this conditional delete is a no-op
		// for the new arming and cleanup for the old.
		x.byDeadline.CompareAndDelete(c.idx, c.key)
	}
	return n
}

// NoteExpired counts a key expired (lazy purge or reaper purge); it
// feeds INFO's expired_keys.
func (x *Index) NoteExpired() { x.expired.Add(1) }

// Stats returns the lifetime counters: keys expired and reaper passes.
func (x *Index) Stats() (expired, passes uint64) {
	return x.expired.Load(), x.passes.Load()
}

// Len reports the number of armed keys (per-shard-exact counter sum,
// same contract as the primary map's Len).
func (x *Index) Len() int { return x.entries.Len() }

// Snapshot returns a frozen view of the armings — an O(shards) cut of
// the entries trie, taken by the server under its persistence gate next
// to the primary snapshot so dumps see one consistent (value, deadline)
// cut per key.
func (x *Index) Snapshot() *Snapshot {
	return &Snapshot{s: x.entries.Snapshot()}
}

// Snapshot is a point-in-time view of the index's armings.
type Snapshot struct {
	s *sharded.Snapshot[Entry]
}

// DeadlineMS returns k's absolute deadline in the cut, 0 when k had no
// TTL at the cut.
func (s *Snapshot) DeadlineMS(k uint64) int64 {
	e, ok := s.s.Load(k)
	if !ok {
		return 0
	}
	return e.DeadlineMS
}
