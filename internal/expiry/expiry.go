// Package expiry is nbtried's keyspace: one binary non-blocking Patricia
// trie, the paper's, whose leaves carry each key's value together with
// its deadline.
//
// A key's deadline lives in its leaf (Value.At), so every write that
// changes it — SETEX, SET over a TTL'd key, DEL, EXPIRE, PERSIST, RENAME —
// is one engine update with one linearization point: the child CAS that
// swings the key's parent to a fresh leaf, as in the paper. Nothing
// indexes keys by deadline: a key expires lazily, when a read finds it
// due, or when the background sweep walks past it.
//
// # Purges
//
// A purge is one DeleteFunc whose condition is "armed and due at now". The
// engine checks the condition on the leaf its CAS removes, so a write that
// replaced the leaf in the meantime — disarming it or arming a later
// deadline — survives the purge.
//
// # The sweep
//
// StartReaper runs the eager half of expiry, after Redis's active expiry
// cycle: every sweepTick the reaper walks one batch of leaves of the live
// keyspace from a resumable cursor, purging the due ones, and takes
// another batch while at least a quarter of the armed leaves it met were
// due, for at most sweepCap per tick. The walk is a live Ascend: it holds
// no snapshot, so it makes no writer renew a node. A batch is sized from
// Len so that one full sweep takes sweepPeriod/sweepTick = 100 ticks: n/100
// leaves, but never fewer than sweepBatch (1024) nor more than
// sweepMaxBatch (16384). Every tick takes at least one batch, so a key that
// nothing reads is purged at most one sweep after its deadline: within
// sweepPeriod plus one tick (10.1 s) for up to 100·sweepMaxBatch =
// 1,638,400 keys, and within ⌈n/sweepMaxBatch⌉+1 ticks above that.
package expiry

import (
	"bytes"
	"fmt"
	"iter"
	"sync/atomic"
	"time"

	"nbtrie"
	"nbtrie/internal/engine"
	"nbtrie/internal/obs"
)

// MaxDeadlineMS is the largest deadline kept (Unix milliseconds): 2^43-1
// ms ≈ year 2248. Later deadlines are clamped here — indistinguishable
// from "never" on any real horizon.
const MaxDeadlineMS = int64(1)<<43 - 1

// The sweep's constants. sweepTick is Redis's default hz of 10, and
// sweepPeriod bounds how long one full sweep takes. A leaf costs 290 ns
// to walk at 100k keys and 470 ns at 2^20 (DESIGN.md §12), so a
// sweepBatch batch costs 0.3 ms and a sweepMaxBatch batch about 7 ms,
// well inside sweepCap: a sweep that finds nothing due takes 0.3 % of
// one core up to 102,400 keys and about 4 % at 2^20. sweepCap is Redis's
// 25 % of the tick, spent only while due keys are dense.
const (
	sweepTick     = 100 * time.Millisecond
	sweepPeriod   = 10 * time.Second
	sweepBatch    = 1024
	sweepMaxBatch = 16 * sweepBatch
	sweepCap      = 25 * time.Millisecond
)

// batchFor is the sweep's batch for a keyspace of n keys: a full sweep in
// sweepPeriod/sweepTick batches, clamped to [sweepBatch, sweepMaxBatch].
func batchFor(n int) int {
	const ticks = int(sweepPeriod / sweepTick)
	return min(max((n+ticks-1)/ticks, sweepBatch), sweepMaxBatch)
}

// Value is what a key's leaf holds: the value bytes and the key's
// deadline in Unix milliseconds, 0 when the key has none. Deadlines are
// clamped to at least 1 ms, so an armed At is never 0.
//
// The leaf owns B. *Value implements engine.BytesValue, so the leaf the
// keyspace builds keeps no Value: it keeps At and B's length, one word
// each, and a copy of B in a tail behind them. A 32 B engine header,
// those two words and a 64 B value are one 112 B object. Every read
// (Load, Lookup, the old value of a Swap or delete, a walk) gets a Value
// whose B is a view of that tail, len == cap, or nil for an empty value:
// presence is the read's ok result, never B. A Store may therefore pass
// bytes it reuses (the server passes its connection's read arena), and a
// B that a read returns is valid for as long as it is held, pinning its
// leaf. Values longer than the engine's largest tail (464 B) get their
// copy as a second object.
type Value struct {
	B  []byte
	At uint64
}

var _ engine.BytesValue[Value] = (*Value)(nil)

// LeafBytes splits v into the bytes the leaf copies and the word it
// keeps, the deadline. The receiver is unused: the engine calls it on a
// nil *Value.
func (*Value) LeafBytes(v Value) ([]byte, uint64) { return v.B, v.At }

// FromLeaf rebuilds a Value from a view of a leaf's bytes and its word.
func (*Value) FromLeaf(b []byte, at uint64) Value { return Value{B: b, At: at} }

// DeadlineMS returns v's deadline (Unix milliseconds), 0 when v has none.
func (v Value) DeadlineMS() int64 { return int64(v.At) }

// due reports whether v is armed and its deadline is at or before nowMS.
func (v Value) due(nowMS int64) bool { return v.At != 0 && int64(v.At) <= nowMS }

// armed is 1 for an armed At and 0 otherwise: a leaf's share of
// ArmedKeys.
func armed(at uint64) int64 {
	if at != 0 {
		return 1
	}
	return 0
}

// Index is the TTL'd keyspace. All methods are safe for unrestricted
// concurrent use. Reads (Load, Contains, Lookup) are lazy-expiry reads:
// a key whose deadline has passed reads as absent and is purged on the
// spot. Writes never consult the clock, so AOF replay re-applies records
// exactly as they were acknowledged.
type Index struct {
	db    *nbtrie.Map[Value]
	clock func() int64

	// armedN counts armed leaves. Each write that changes a leaf's
	// arming adds the difference it made, after its update lands, so
	// the count is exact at quiescence and can lag by the writes in
	// flight.
	armedN atomic.Int64

	// cursor is the key the sweep resumes at; only the reaper's
	// goroutine touches it.
	cursor uint64

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

// New returns an empty keyspace over keys of the given width, a Map with
// the paper's binary nodes. shards is ignored: it is kept only while
// benchmark/ passes it (ROADMAP.md item 1(g)).
func New(width uint32, shards int, opts ...Option) (*Index, error) {
	c := config{clock: func() int64 { return time.Now().UnixMilli() }}
	for _, o := range opts {
		o(&c)
	}
	db, err := nbtrie.NewMap[Value](width)
	if err != nil {
		return nil, err
	}
	return &Index{db: db, clock: c.clock}, nil
}

// clampDeadline forces a deadline into the kept range. The floor is 1,
// not 0, so an armed At is never 0 and a dumped deadline is never the
// dump format's "no TTL".
func clampDeadline(ms int64) uint64 {
	return uint64(min(max(ms, 1), MaxDeadlineMS))
}

// ---- reads ----

// Lookup returns k's live value and deadline: one Load, and the clock is
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

// Peek returns k's value and deadline as its leaf holds them, due or
// not: one Load, with no clock read and no purge.
func (x *Index) Peek(k uint64) (Value, bool) { return x.db.Load(k) }

// Contains reports whether k is live (EXISTS).
func (x *Index) Contains(k uint64) bool {
	_, ok := x.Lookup(k)
	return ok
}

// Expired reports whether v, a value k held, is due by the clock, and if
// so purges k from the keyspace when k is still due. Lookup applies it
// to the value it loads; SCAN to the value its walk meets.
func (x *Index) Expired(k uint64, v Value) bool {
	if v.At == 0 {
		return false
	}
	now := x.clock()
	if !v.due(now) {
		return false
	}
	x.purge(k, now)
	return true
}

// purge deletes k if its leaf is due at nowMS — the conditional half of
// every expiry, lazy or swept — and reports whether this call removed
// it. The condition is checked on the leaf the CAS removes, so a racing
// write that disarmed k or armed a later deadline survives.
func (x *Index) purge(k uint64, nowMS int64) bool {
	if !x.db.DeleteFunc(k, func(v Value) bool { return v.due(nowMS) }) {
		return false
	}
	x.armedN.Add(-1)
	x.expired.Add(1)
	return true
}

// ---- writes ----

// Store binds k to v with no deadline: StoreDeadline(k, v, 0).
func (x *Index) Store(k uint64, v []byte) bool { return x.StoreDeadline(k, v, 0) }

// StoreDeadline binds k to v armed at deadlineMS (SET, SETEX and every
// store recovery makes): one Swap publishes value and deadline together.
// A deadlineMS of 0 means no deadline, as it does in Value.At, in a dump
// record and in RENAME's record; a negative one clamps to 1, armed and
// already due. It returns false only for an out-of-range k.
func (x *Index) StoreDeadline(k uint64, v []byte, deadlineMS int64) bool {
	var at uint64
	if deadlineMS != 0 {
		at = clampDeadline(deadlineMS)
	}
	old, _, ok := x.db.Swap(k, Value{B: v, At: at})
	if d := armed(at) - armed(old.At); ok && d != 0 {
		x.armedN.Add(d)
	}
	return ok
}

// Delete removes k and its deadline (DEL); false iff k was absent.
func (x *Index) Delete(k uint64) bool {
	old, ok := x.db.LoadAndDelete(k)
	if old.At != 0 {
		x.armedN.Add(-1)
	}
	return ok
}

// Set arms k's deadline if k is present (EXPIRE and its variants, and
// PEXPIREAT replay), returning false when k is absent. The value is kept:
// the leaf is swapped for one with the same bytes and the new deadline,
// conditional on the value read (rearm). Set does not consult the clock,
// so it arms a past deadline too; the server deletes instead when a
// client asks for one.
func (x *Index) Set(k uint64, deadlineMS int64) bool { return x.setAt(k, clampDeadline(deadlineMS)) }

// Persist removes k's deadline, returning true iff one was removed.
func (x *Index) Persist(k uint64) bool { return x.setAt(k, 0) }

// setAt re-arms k at at (0: no deadline) from the value it loads,
// reporting false when k is absent or, for at 0, has no deadline.
func (x *Index) setAt(k uint64, at uint64) bool {
	for {
		v, ok := x.db.Load(k)
		if !ok || at == 0 && v.At == 0 {
			return false
		}
		if x.rearm(k, v, at) {
			return true
		}
	}
}

// rearm swaps k from v to the same bytes armed at at, reporting false if
// k no longer holds v. The condition compares values, not leaves: an
// equal leaf a racing write installed gives the same result, as if the
// rearm came after that write.
func (x *Index) rearm(k uint64, v Value, at uint64) bool {
	if !x.db.CompareAndSwapFunc(k, func(have Value) bool {
		return have.At == v.At && bytes.Equal(have.B, v.B)
	}, Value{B: v.B, At: at}) {
		return false
	}
	x.armedN.Add(armed(at) - armed(v.At))
	return true
}

// Rename moves old's value to new, which must be absent (RENAME): one
// ReplaceKey, the paper's atomic Replace, wherever the keys lie. The
// deadline travels inside the leaf, so value and deadline move in one
// step. Like every write, Rename does not consult the clock.
func (x *Index) Rename(old, new uint64) bool { return x.db.ReplaceKey(old, new) }

// NoteExpired counts a key the server deleted because a client set a
// deadline already past (EXPIRE, GETEX); purges count themselves. It
// feeds INFO's expired_keys.
func (x *Index) NoteExpired() { x.expired.Add(1) }

// ---- the reaper ----

// StartReaper starts the background reaper and returns the function
// that stops it and waits for it to exit. Start it once the keyspace is
// recovered: its opening pass, a full Reap, purges whatever expired while
// the process was down.
func (x *Index) StartReaper() (stop func()) {
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		x.Reap(x.clock())
		t := time.NewTicker(sweepTick)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				x.tick(x.clock())
			}
		}
	}()
	return func() { close(quit); <-done }
}

// tick runs one reaper pass of the sweep: a batch from the cursor, and
// more while at least a quarter of the armed leaves a batch met were due
// at nowMS, until sweepCap has passed.
func (x *Index) tick(nowMS int64) {
	start := time.Now()
	batch := batchFor(x.Len())
	for {
		armedMet, dueMet := x.step(nowMS, batch)
		if armedMet == 0 || dueMet*4 < armedMet || time.Since(start) >= sweepCap {
			break
		}
	}
	x.passes.Record(uint64(time.Since(start).Microseconds()))
}

// step walks up to budget leaves of the live keyspace from the cursor,
// purging those due at nowMS, and leaves the cursor at the next key, or
// at 0 when the walk reached the end. It reports how many armed and due
// leaves it met.
func (x *Index) step(nowMS int64, budget int) (armedMet, dueMet int) {
	n := 0
	for k, v := range x.db.Ascend(x.cursor) {
		if n == budget {
			x.cursor = k
			return armedMet, dueMet
		}
		n++
		if v.At != 0 {
			armedMet++
			if v.due(nowMS) {
				dueMet++
				x.purge(k, nowMS)
			}
		}
	}
	x.cursor = 0
	return armedMet, dueMet
}

// Reap runs one full reaper pass over the live keyspace: it purges every
// key due at or before nowMS and returns how many it removed.
func (x *Index) Reap(nowMS int64) int {
	start := time.Now()
	n := 0
	for k, v := range x.db.All() {
		if v.due(nowMS) && x.purge(k, nowMS) {
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
// (nbtrie.Map.Len's counter).
func (x *Index) Len() int { return x.db.Len() }

// ArmedKeys reports the number of armed keys, exact at quiescence.
func (x *Index) ArmedKeys() int { return int(max(x.armedN.Load(), 0)) }

// Ascend walks the live keyspace from trie key from upward, as the
// sweep does: it holds no snapshot and has nbtrie.Map.Ascend's contract.
func (x *Index) Ascend(from uint64) iter.Seq2[uint64, Value] { return x.db.Ascend(from) }

// Shards returns 1.
//
// Deprecated: the keyspace has one trie and no shards (ROADMAP.md item
// 1(g)).
func (x *Index) Shards() int { return 1 }

// EngineStats returns the keyspace's contention counters.
func (x *Index) EngineStats() nbtrie.EngineStats { return x.db.EngineStats() }

// ShardEngineStats returns the keyspace's DepthSamples, its count of
// mutating searches; i is ignored.
//
// Deprecated: use EngineStats (ROADMAP.md item 1(g)).
func (x *Index) ShardEngineStats(i int) nbtrie.EngineStats {
	return nbtrie.EngineStats{DepthSamples: x.db.EngineStats().DepthSamples}
}

// Validate checks the trie's structural invariants and that ArmedKeys
// counts the armed leaves. Quiescent use only.
func (x *Index) Validate() error {
	if err := x.db.Validate(); err != nil {
		return err
	}
	n := 0
	for _, v := range x.db.All() {
		n += int(armed(v.At))
	}
	if got := x.armedN.Load(); got != int64(n) {
		return fmt.Errorf("expiry: ArmedKeys counts %d, %d leaves are armed", got, n)
	}
	return nil
}
