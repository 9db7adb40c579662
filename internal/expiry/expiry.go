// Package expiry is nbtried's keyspace: one non-blocking Patricia trie,
// sharded at its root, whose leaves carry each key's value together with its
// expiry arming, plus byDeadline, a deadline-ordered index over the
// armed keys built from the same engine.
//
// A key's deadline lives in its leaf (Value.At), so a write that changes
// the value and the deadline together — SETEX, SET over a TTL'd key, DEL,
// EXPIRE, PERSIST — is one engine update with one linearization point:
// the child CAS that swings the key's parent to a fresh leaf, as in the
// paper. byDeadline maps deadline<<20|seq → primary key. Packing the
// deadline into the top bits makes trie order deadline order, so
// "everything due by now" is one Ascend range scan and "when must the
// reaper next wake" is one Min — the ordered-traversal dividend of the
// Patricia trie (a hash index would need a separate heap).
//
// The seq suffix (20 bits, from a global counter) makes index keys unique
// even when many keys share one deadline millisecond; 43 bits remain for
// the deadline, which covers Unix milliseconds up to year 2248. The index
// key is also the arming's identity: a leaf's At is the index key of the
// one node that finds it by deadline.
//
// # Who deletes a node
//
// byDeadline is a hint that the leaves keep honest by one rule: the
// operation that retires an arming deletes its node. Every change of a
// leaf's At is made by an operation that knows the At it replaced — Swap
// and LoadAndDelete return the old value, CompareAndSwapFunc and
// DeleteFunc approve it — and that operation deletes the old node after
// its leaf update lands; an arming whose leaf update fails deletes its
// own node. Neither the reaper nor a lazy read deletes a node it did not
// retire. So at quiescence every node names a live arming and every
// armed leaf has its node, and a node the reaper meets whose leaf does
// not hold it yet (an arming in flight) or any more (a retirement in
// flight) is left to its owner. DESIGN.md §12 has the full argument.
//
// # The reaper
//
// StartReaper runs the eager half of expiry: a goroutine that sleeps
// until the earliest armed deadline and purges everything due, so
// expired keys stop occupying memory even if nothing reads them. An
// arming that installs an earlier deadline wakes it. Both sides of that
// wakeup protocol, arm's and reaper's, live in this package.
package expiry

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"nbtrie"
	"nbtrie/internal/obs"
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

// Value is what a key's leaf holds: the value bytes and the key's arming.
// At is the arming's byDeadline key, deadline<<20 | seq, and 0 means the
// key has no deadline. Deadlines are clamped to at least 1 ms, so an
// armed At is never 0. Every arming draws a fresh seq, so At names one
// arming of one key: comparing it is how a purge or a re-arm knows the
// arming it saw is still in force. The struct is 32 B, so a leaf is
// exactly the 64 B a []byte leaf's size class already spends.
type Value struct {
	B  []byte
	At uint64
}

// DeadlineMS returns the absolute deadline (Unix milliseconds) of v's
// arming, 0 when v has none.
func (v Value) DeadlineMS() int64 { return int64(v.At >> seqBits) }

// same reports whether have is exactly v: the same arming and the same
// value allocation (slice identity; zero-length values have no element
// to anchor on, so for them length is the whole check). A value stored
// by a racing writer is a fresh allocation and never matches.
func same(have, v Value) bool {
	return have.At == v.At && len(have.B) == len(v.B) && (len(v.B) == 0 || &have.B[0] == &v.B[0])
}

// Index is the TTL'd keyspace. All methods are safe for unrestricted
// concurrent use. Reads (Load, Contains, Lookup) are lazy-expiry reads:
// a key whose deadline has passed reads as absent and is purged on the
// spot. Writes never consult the clock, so AOF replay re-applies records
// exactly as they were acknowledged.
type Index struct {
	db         *nbtrie.ShardedMap[Value]
	byDeadline *nbtrie.Map[uint64]
	clock      func() int64
	seq        atomic.Uint64

	// Reaper coordination: wakeAt holds the deadline the reaper is
	// currently sleeping toward (MaxInt64 when idle scanning); an arming
	// sends on wake — capacity 1, non-blocking — when it installs an
	// earlier deadline, so the reaper can never sleep past work.
	wakeAt atomic.Int64
	wake   chan struct{}

	// expired counts purged keys; passes times every reaper pass, in
	// microseconds, and its count is the number of passes.
	expired atomic.Uint64
	passes  obs.Hist
}

// Option configures New.
type Option func(*config)

type config struct {
	clock func() int64
}

// WithClock sets the clock, in Unix milliseconds, that reads compare
// deadlines against; the default is the wall clock.
func WithClock(clock func() int64) Option { return func(c *config) { c.clock = clock } }

// New returns an empty keyspace over keys of the given width, sharded
// shardCount ways (the nbtrie.NewShardedMap constraints: 0 picks the
// GOMAXPROCS-derived default). The trie has the paper's binary nodes.
func New(width uint32, shardCount int, opts ...Option) (*Index, error) {
	c := config{clock: func() int64 { return time.Now().UnixMilli() }}
	for _, o := range opts {
		o(&c)
	}
	db, err := nbtrie.NewShardedMap[Value](width, shardCount)
	if err != nil {
		return nil, err
	}
	// Binary nodes, as a constant: an update of a wide node copies all
	// its slots, and byDeadline is updated on every arming.
	byDeadline, err := nbtrie.NewMap[uint64](idxWidth)
	if err != nil {
		return nil, err
	}
	x := &Index{db: db, byDeadline: byDeadline, clock: c.clock, wake: make(chan struct{}, 1)}
	x.wakeAt.Store(math.MaxInt64)
	return x, nil
}

// setRetryLap bounds how many consecutive seq-collision retries an
// arming makes at one millisecond before degrading to a neighboring one:
// a full lap of the suffix space in production (every slot provably
// probed); tests lower it to exercise the exhaustion path without arming
// 2^20 keys.
var setRetryLap = seqMask

// clampDeadline forces a deadline into the representable range. The
// floor is 1, not 0, so an armed At is never 0 and a dumped deadline is
// never the dump format's "no TTL".
func clampDeadline(ms int64) int64 {
	return min(max(ms, 1), MaxDeadlineMS)
}

// arm inserts the byDeadline node of a fresh arming of k at deadlineMS
// and returns its At, waking the reaper if the deadline is earlier than
// the one it sleeps toward. The caller publishes the At in k's leaf and,
// if that fails, deletes the node (retire). The deadline can differ from
// the requested one by the clamp or, when every seq slot of a
// millisecond is occupied, by the neighboring-millisecond fallback.
func (x *Index) arm(k uint64, deadlineMS int64) uint64 {
	d := clampDeadline(deadlineMS)
	down := false
	for tries := 0; ; tries++ {
		at := uint64(d)<<seqBits | x.seq.Add(1)&seqMask
		if _, loaded, ok := x.byDeadline.LoadOrStore(at, k); ok && !loaded {
			if d < x.wakeAt.Load() {
				x.notify()
			}
			return at
		}
		// Seq collision after 2^20 wraps at one millisecond: take the
		// next counter value and retry. If a full lap finds every seq slot
		// for this millisecond occupied (>2^20 keys armed at one deadline
		// — a mass restore or bulk EXPIREAT), degrade by one millisecond
		// instead of spinning forever: prefer later (firing a hair late is
		// invisible), walk earlier once the clamp ceiling is hit so the
		// search still terminates.
		if tries >= setRetryLap {
			if down || d >= MaxDeadlineMS {
				down = true
				d--
			} else {
				d++
			}
			tries = -1
		}
	}
}

// retire deletes the node of an arming its caller took out of a leaf
// (or never got into one); at 0 is no arming.
func (x *Index) retire(at uint64) {
	if at != 0 {
		x.byDeadline.Delete(at)
	}
}

// ---- reads ----

// Lookup returns k's live value and arming: one Load, and the clock is
// read only when the key is armed. Wait-free and allocation-free unless
// the key turns out to be due, in which case it reads as absent and is
// purged.
func (x *Index) Lookup(k uint64) (Value, bool) {
	v, ok := x.db.Load(k)
	if ok && x.Expired(k, v) {
		return Value{}, false
	}
	return v, ok
}

// Load returns k's live value bytes (GET).
func (x *Index) Load(k uint64) ([]byte, bool) {
	v, ok := x.Lookup(k)
	return v.B, ok
}

// Contains reports whether k is live (EXISTS).
func (x *Index) Contains(k uint64) bool {
	_, ok := x.Lookup(k)
	return ok
}

// Expired reports whether v, a value k held, is due by the clock, and if
// so purges k from the keyspace when k still holds that arming. Lookup
// applies it to the live value; SCAN to the value in its snapshot.
func (x *Index) Expired(k uint64, v Value) bool {
	if v.At == 0 || v.DeadlineMS() > x.clock() {
		return false
	}
	x.purge(k, v.At)
	return true
}

// purge deletes k if it still holds arming at — the conditional half of
// every expiry, lazy or reaped — and reports whether this call removed
// it. A racing write that replaced the leaf changed its At, so the
// condition fails and the write survives; that write also retired at.
func (x *Index) purge(k, at uint64) bool {
	if !x.db.DeleteFunc(k, func(v Value) bool { return v.At == at }) {
		return false
	}
	x.byDeadline.Delete(at)
	x.expired.Add(1)
	return true
}

// ---- writes ----

// Store binds k to v with no deadline (SET): one Swap, then the node of
// the arming it displaced, if any, is deleted. It returns false only for
// an out-of-range k.
func (x *Index) Store(k uint64, v []byte) bool {
	old, _, ok := x.db.Swap(k, Value{B: v})
	x.retire(old.At)
	return ok
}

// StoreDeadline binds k to v armed at deadlineMS (SETEX): the node is
// inserted, then one Swap publishes value and arming together, then the
// displaced arming's node is deleted. It returns false only for an
// out-of-range k.
func (x *Index) StoreDeadline(k uint64, v []byte, deadlineMS int64) bool {
	at := x.arm(k, deadlineMS)
	old, _, ok := x.db.Swap(k, Value{B: v, At: at})
	if !ok {
		x.retire(at)
	}
	x.retire(old.At)
	return ok
}

// Delete removes k and its arming (DEL); false iff k was absent.
func (x *Index) Delete(k uint64) bool {
	old, ok := x.db.LoadAndDelete(k)
	x.retire(old.At)
	return ok
}

// Set arms k's deadline if k is present (EXPIRE and its variants, and
// PEXPIREAT replay), returning false when k is absent. The value is kept:
// the leaf is swapped for one with the same bytes and the new At,
// conditional on the exact value read. Set does not consult the clock, so
// it arms a past deadline too; the server deletes instead when a client
// asks for one.
func (x *Index) Set(k uint64, deadlineMS int64) bool {
	for {
		v, ok := x.db.Load(k)
		if !ok {
			return false
		}
		if x.rearm(k, v, x.arm(k, deadlineMS)) {
			return true
		}
	}
}

// Persist removes k's deadline, returning true iff one was removed.
func (x *Index) Persist(k uint64) bool {
	for {
		v, ok := x.db.Load(k)
		if !ok || v.At == 0 {
			return false
		}
		if x.rearm(k, v, 0) {
			return true
		}
	}
}

// rearm swaps k from exactly v to the same bytes armed at at (0: no
// deadline), then retires v's arming; if k no longer holds v, it retires
// at instead and reports false.
func (x *Index) rearm(k uint64, v Value, at uint64) bool {
	if x.db.CompareAndSwapFunc(k, func(have Value) bool { return same(have, v) }, Value{B: v.B, At: at}) {
		x.retire(v.At)
		return true
	}
	x.retire(at)
	return false
}

// Rename moves old's value to new, which must be absent (RENAME): one
// ReplaceKey, the paper's atomic Replace, whichever shards the keys live
// in. The deadline travels inside the leaf, so value and deadline move in
// one step. Afterwards the arming's node still names old, so it is
// re-pointed: a node for new, a conditional swap of new's At, then the
// old node is deleted. Like every write, Rename does not consult the
// clock.
func (x *Index) Rename(old, new uint64) bool {
	moved, _ := x.db.ReplaceKey(old, new)
	if moved {
		// One try: if new changed since the move, whoever changed it
		// retired the travelling arming, and what new holds now has its
		// own node.
		if v, ok := x.db.Load(new); ok && v.At != 0 {
			x.rearm(new, v, x.arm(new, v.DeadlineMS()))
		}
	}
	return moved
}

// NoteExpired counts a key the server deleted because a client set a
// deadline already past (EXPIRE, GETEX); purges count themselves. It
// feeds INFO's expired_keys.
func (x *Index) NoteExpired() { x.expired.Add(1) }

// ---- the reaper ----

// earliest returns the soonest armed deadline, if any arming exists.
// A node whose retirement is in flight can make it report a deadline
// that is already gone — harmless, the reaper's scan skips it.
func (x *Index) earliest() (deadlineMS int64, ok bool) {
	for at := range x.byDeadline.All() {
		return int64(at >> seqBits), true
	}
	return 0, false
}

// notify signals wake, never blocking: wake has capacity 1, so a signal
// already pending covers this one.
func (x *Index) notify() {
	select {
	case x.wake <- struct{}{}:
	default:
	}
}

// StartReaper starts the background reaper and returns the function
// that stops it and waits for it to exit. Start it once the keyspace is
// recovered: its opening pass purges whatever expired while the process
// was down.
func (x *Index) StartReaper() (stop func()) {
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		x.reaper(quit)
	}()
	return func() { close(quit); <-done }
}

// reaper sleeps until the earliest armed deadline, purges everything
// due, and repeats until quit closes. The missed-wakeup protocol with
// arm: wakeAt is set to MaxInt64 BEFORE earliest is read, so an arming
// landing between the read and the sleep sees an "infinitely late"
// planned wake and signals wake; then wakeAt is set to the deadline, so
// only a genuinely earlier arming signals while the reaper sleeps. A
// pass that expired nothing while a due node remains met only armings
// in flight; the reaper waits a millisecond for their writers instead
// of spinning.
func (x *Index) reaper(quit <-chan struct{}) {
	n := x.Reap(x.clock())
	for {
		x.wakeAt.Store(math.MaxInt64)
		var due <-chan time.Time // nil while nothing is armed: only wake ends the sleep
		if deadline, ok := x.earliest(); ok {
			x.wakeAt.Store(deadline)
			wait := deadline - x.clock()
			if wait <= 0 && n == 0 {
				wait = 1
			}
			due = time.After(time.Duration(max(wait, 0)) * time.Millisecond)
		}
		select {
		case <-quit:
			return
		case <-x.wake:
			continue // an earlier deadline arrived; re-plan
		case <-due:
		}
		n = x.Reap(x.clock())
	}
}

// Reap runs one reaper pass: it purges every key due at or before
// nowMS, in deadline order, and returns how many it removed. A node
// whose key does not hold its arming is skipped, not deleted: the
// arming is in flight or being retired, and its owner deletes the node.
func (x *Index) Reap(nowMS int64) int {
	start := time.Now()
	limit := uint64(clampDeadline(nowMS))<<seqBits | seqMask
	type cand struct{ at, key uint64 }
	var cands []cand
	for at, key := range x.byDeadline.All() {
		if at > limit {
			break
		}
		cands = append(cands, cand{at, key})
	}
	n := 0
	for _, c := range cands {
		if x.purge(c.key, c.at) {
			n++
		}
	}
	x.passes.Record(uint64(time.Since(start).Microseconds()))
	return n
}

// ---- whole-keyspace views ----

// Stats returns the lifetime counters: keys expired, and the reaper
// passes with their durations in microseconds.
func (x *Index) Stats() (expired uint64, passes obs.HistSnapshot) {
	return x.expired.Load(), x.passes.Snapshot()
}

// Len reports the number of keys, expired-but-unpurged ones included
// (nbtrie.ShardedMap.Len's counter).
func (x *Index) Len() int { return x.db.Len() }

// ArmedKeys reports the number of armed keys: byDeadline's counter, one
// node per arming, exact at quiescence.
func (x *Index) ArmedKeys() int { return x.byDeadline.Len() }

// Snapshot returns a frozen view of the keyspace, deadlines included:
// the dump's one cut, and SCAN's.
func (x *Index) Snapshot() *nbtrie.MapSnapshot[Value] { return x.db.Snapshot() }

// Shards returns the keyspace's shard count.
func (x *Index) Shards() int { return x.db.Shards() }

// EngineStats returns the keyspace's contention counters.
func (x *Index) EngineStats() nbtrie.EngineStats { return x.db.EngineStats() }

// ShardEngineStats returns shard i's share of the statistics (see
// nbtrie.ShardedMap.ShardEngineStats).
func (x *Index) ShardEngineStats(i int) nbtrie.EngineStats { return x.db.ShardEngineStats(i) }

// Validate checks both tries' structural invariants and the node rule
// (see the package comment): every byDeadline node names a key whose
// leaf holds its arming, and every armed leaf has its node. Quiescent
// use only.
func (x *Index) Validate() error {
	if err := x.db.Validate(); err != nil {
		return err
	}
	if err := x.byDeadline.Validate(); err != nil {
		return err
	}
	nodes, armed := 0, 0
	for at, k := range x.byDeadline.All() {
		nodes++
		if v, _ := x.db.Load(k); v.At != at {
			return fmt.Errorf("expiry: byDeadline node %#x names key %#x, whose leaf holds arming %#x", at, k, v.At)
		}
	}
	for _, v := range x.db.All() {
		if v.At != 0 {
			armed++
		}
	}
	if armed != nodes {
		return fmt.Errorf("expiry: %d armed keys, %d byDeadline nodes", armed, nodes)
	}
	return nil
}
