package server

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"nbtrie/internal/persist"
	"nbtrie/internal/resp"
)

// Durability orchestration: when the server calls persist.Dir, and
// under which locks. The directory itself — its file names, manifest,
// sequence numbers and sweep — is Dir's; this file keeps the key
// stripes, group commit before the reply flush, -MISCONF degradation,
// the command-table replay and BGSAVE's lifecycle. Every call into Dir
// but the dump's streaming runs under persister.mu.
//
// # The key stripes and the rotation
//
// Recovery is "load the base dump, then replay the AOF chain". With
// persistence configured, every mutating command holds the stripes of
// the keys it names (lockKeys: 64 mutexes by the trie key's low bits,
// taken in ascending order) from its map update through its append, so
// a key's records lie in a segment in the order its state changed:
// without them two sessions could store k=a, then k=b, and append b
// before a, and replay would recover a. Every mutation holds at least
// one stripe, so a holder of all 64 knows that no mutation is between
// its update and its append. p.aof, the segment mutations append to,
// changes only under all 64, so a mutation sees one segment, or none,
// from its update through its append.
//
// A rotation takes every stripe while Dir.Rotate (a) opens a fresh
// segment and, with the AOF on, (b) commits the manifest listing it,
// and while the server (c) seals the old segment (flush + fsync +
// close) and (d) swaps p.aof to the new one. Every mutation therefore
// lies entirely before the rotation (its map update applied, its record
// if any in an old segment the next manifest drops) or entirely after
// it (its record in the new segment). Writers are stopped for those
// steps, a handful of file operations bounded by one batch's buffered
// appends, and for one drain when the dump ends (under Crash windows).
// Step (c) comes before step (d) because a batch's commit takes no lock:
// a batch appended before the swap can be committed after it, against
// the new segment, so its records must be durable by then; a commit that
// loads the sealed segment gets the seal's result (persist.AOF.Close). A
// seal that fails degrades the AOF, and the wrote rule (under
// Acknowledgement ordering) then refuses every batch that appended.
//
// With the AOF off no segment is current between dumps, and mutations
// log nothing. A BGSAVE's rotation opens a segment scoped to the dump,
// and mutations append to it while the dump runs; no client is
// acknowledged against it, so it has no group commit. The drain before
// the base swing stores nil into p.aof, then syncs and seals it, and
// the new recipe is the base plus that segment. Until then no manifest
// names it: the writes before the rotation were never logged, so the
// old base followed by the segment is a state no prefix of the history
// held. A failed append or sync on it fails the dump
// (rdb_last_bgsave_status), never the server (-MISCONF).
//
// # The live dump and absorbing records
//
// The dump walks the live keyspace with no lock held while writers
// carry on. The walk reads each key's leaf at most once, at some
// instant after the rotation, so for each key the dump holds the state
// after some prefix of the key's records in the new segment: absent
// when the walk passed the key while it was absent. Replaying the whole
// segment over any such state yields the live state, because every
// record is absorbing for each key it names: the last record that names
// a key fixes what replay leaves there whatever state it starts from. A
// blind write (SET, MSET, DEL, RENAME's effect form below) fixes the
// whole state. A deadline change (PEXPIREAT, PERSIST) is logged only for
// a key that is present and fixes the deadline; every state since the
// key's last blind write, or since the rotation when there is none,
// holds the same value, so the value the walk read is that value. The
// stripes keep every record absorbing, and so does RENAME's record, its
// effect: RENAME old new value deadline, a delete of old and a store of
// new. Replaying the move itself is not absorbing: a walk that passes
// b, then RENAME a b, SET a 2, then the walk reading a=2, would replay
// as b=2. Purges (lazy or swept) are not logged and need no stripe:
// they remove only a due key, which recovery's opening reaper pass
// removes again.
//
// # Crash windows
//
//   - Mid-dump: with the AOF on, the manifest committed in step (b)
//     names the old base plus the WHOLE chain including the new
//     segment, so a crash recovers everything acknowledged up to the
//     crash; with it off, the old recipe exactly. The half-written dump
//     is an unreferenced temp file, and OpenDir's sweep removes it, as
//     it does an unnamed segment.
//   - At the base swing: the live walk may have read writes whose
//     records are still in the segment's buffer, or not yet appended.
//     Were the dump made the base then, a crash would lose those records
//     and recover a state that never existed: a walk that reads a=1,
//     then (after RENAME a b) b=1, recovers both keys if the RENAME
//     record is lost. So before the swing the dump takes and drops every
//     stripe, which waits for every update in flight to append, and
//     then syncs the segment (TestPersistCrashAtBaseSwing). A failed
//     sync fails the dump, and with the AOF on degrades it.
//   - After the dump completes, it is fsynced and renamed, then a
//     manifest commit swings base to it and its segment. Manifest
//     commits are atomic (temp+fsync+rename+dir-fsync), so recovery
//     sees the old or the new recipe, never a mix. Old files are deleted
//     only after the commit that stops referencing them.
//   - Mid-append: the AOF tail tears. Every mutation is one record (SET,
//     MSET and DEL name all their keys in one, SETEX logs SET key value
//     PXAT ms, RENAME its effect), so a torn tail loses whole mutations:
//     the segment's durable prefix is the log of a prefix of the history.
//     Under appendfsync always a torn record was never acknowledged (the
//     fsync happens before the reply flush), so truncating it loses
//     nothing a client was promised.
//
// # Acknowledgement ordering
//
// A session owns its batch, the commands it answered since its replies
// last reached the socket, and every path that takes replies there goes
// through the session's socket, whose Write first commits
// (session.commitAOF): append (buffered, under the keys' stripes) →
// aof.Commit (write; +fsync under always; no lock) → reply flush. A
// client that has seen "+OK" knows the record is at least in the kernel
// (always: on stable storage): group commit, one write+fsync per batch.
//   - The reader rule: every flush commits the current segment, so no
//     client reads a write, its own or another session's, whose record is
//     still in the segment's buffer. It covers only records already
//     appended: GET takes no stripe, so a read can land between a
//     writer's keyspace update and its append, and the reader's flush
//     then commits a segment without the writer's record. Under
//     appendfsync always, a crash before the writer's own commit restarts
//     without a value a client was shown, with no disk failure
//     (ROADMAP.md item 30).
//   - The wrote rule: a batch that appended (session.wrote) is
//     acknowledged only if its commit succeeds and the AOF has not
//     degraded, which catches a record whose segment's seal failed after
//     the batch's commit moved on to the new segment. Otherwise its
//     replies are never flushed and the connection drops: a failed disk
//     never turns into a false acknowledgement.
//
// A batch that appended nothing flushes even when its commit fails, so
// reads keep serving once dispatch refuses mutations with -MISCONF; they
// may see a write whose record failed, whose own batch was never
// acknowledged.

// PersistConfig enables durability. Zero Dir means disabled.
type PersistConfig struct {
	// Dir is the data directory (created if missing).
	Dir string
	// AOF appends every acknowledged mutation to an append-only file.
	// Without it only explicit SAVE/BGSAVE dumps persist.
	AOF bool
	// Fsync is the AOF sync policy (appendfsync).
	Fsync persist.SyncPolicy
}

// persister is the server's durability state.
type persister struct {
	s     *Server
	aofOn bool

	// mu serializes SAVE/BGSAVE/rotation bookkeeping and every call into
	// dir but SaveBase; it is never held while streaming a dump. closed
	// is set by close: from then on save refuses, so no rotation can
	// reopen the directory.
	mu     sync.Mutex
	dir    *persist.Dir
	closed bool

	// aof is the segment mutations append to: with the AOF on the
	// current one, with it off the running dump's, else nil. It is
	// stored only under every stripe (see the top of this file).
	aof atomic.Pointer[persist.AOF]

	bgActive   atomic.Bool
	lastSave   atomic.Int64 // unix seconds of the last completed dump
	saveStatus atomic.Value // string: "ok" or the last dump error
	aofStatus  atomic.Value // string: "ok" or the last append error
	bgWG       sync.WaitGroup

	// stripes serialize the writes of each key (lockKeys).
	stripes [stripeCount]stripe

	// applyRecord's scratch (recovery is single-threaded): the upcased
	// record name and the encoded keys.
	word []byte
	ks   []uint64

	// Test hooks, nil in production and set before Serve: beforeAppend
	// runs between a logged mutation's map update and its append, dumped
	// after each record a dump writes, with the record's trie key, and
	// rotating inside a rotation, between the old segment's seal and the
	// swap.
	beforeAppend func()
	dumped       func(k uint64)
	rotating     func()
}

// stripeCount is the number of key stripes: one bit each in a uint64
// mask. allStripes is the mask of every stripe.
const (
	stripeCount = 64
	allStripes  = ^uint64(0)
)

// stripe is one key stripe's mutex (8 bytes), alone on its cache line.
type stripe struct {
	sync.Mutex
	_ [64 - 8]byte
}

// openPersister recovers dir's state into s.db (dump, then AOF chain,
// truncating a torn tail) and arranges for new appends; called from New
// before any listener exists, so recovery sees no concurrency.
func openPersister(s *Server, cfg PersistConfig) (*persister, error) {
	p := &persister{s: s, aofOn: cfg.AOF}
	p.saveStatus.Store("ok")
	p.aofStatus.Store("ok")
	d, err := persist.OpenDir(cfg.Dir, cfg.Fsync, s.cfg.Limits, p.loadEntry, p.applyRecord)
	if err != nil {
		return nil, err
	}
	p.dir = d
	if p.aofOn {
		// Appends go to a fresh segment committed into the manifest
		// before the first record can land in it.
		_, seg, err := d.Rotate(true)
		if err != nil {
			return nil, err
		}
		p.aof.Store(seg)
	}
	return p, nil
}

// loadEntry stores one base-dump record into the (empty) map. k and v
// are ReadDump's scratch, valid only for the call: the key is encoded on
// the spot and the leaf copies the value.
func (p *persister) loadEntry(k, v []byte, expireAtMS uint64) error {
	ek, err := BytesKeyer{}.Encode(k)
	if err != nil {
		return err
	}
	// A dumped deadline is re-armed even if it has passed: the reaper's
	// opening pass (and any lazy read) purges it, the same convergence
	// path as replayed PEXPIREAT records. 0 is no deadline.
	p.s.db.StoreDeadline(ek, v, int64(min(expireAtMS, math.MaxInt64)))
	return nil
}

// applyRecord replays one AOF record against the keyspace (every record
// that changes a key's TTL state at serve time changes it identically at
// replay time; keyspace writes never consult the clock, so a deadline
// that passed during downtime does not cut the replay short). It looks
// the record up in the command table and applies the row's arity and
// key spec exactly as dispatch does, then the row's replay — the
// replay-side mirror of the handler, minus replies and re-appending. It
// runs single-threaded (recovery), before the reaper starts. Reaper purges
// are deliberately NOT recorded: recovery re-evaluates the replayed
// absolute deadlines against the clock, so an expiry that happened while
// up happens again (lazily or on the reaper's opening pass) after a
// restart. args are views into Replay's arena, valid only for the call,
// and no replay row keeps one: replaySet's store copies the value into
// its leaf, and every other row encodes keys or parses a number.
func (p *persister) applyRecord(args [][]byte) error {
	if len(args) == 0 {
		return fmt.Errorf("empty record")
	}
	p.word = upperInto(p.word, args[0])
	ci, ok := cmdByName[string(p.word)]
	if !ok || commands[ci].replay == nil {
		return fmt.Errorf("unknown record command %q", args[0])
	}
	c := &commands[ci]
	if !c.fits(len(args)) && len(args) != c.logMax {
		return fmt.Errorf("%s record with %d args", c.name, len(args))
	}
	ks, err := c.keys(args, p.ks[:0])
	p.ks = ks
	if err != nil {
		return err
	}
	return c.replay(p.s, args, ks)
}

// replaySet re-applies SET and MSET records, one store per key: value
// and deadline together, so a plain SET discards any earlier arming. A
// SETEX is logged as SET key value PXAT ms, which only SET's row admits
// (its logMax): a five-argument MSET record names two keys.
func (s *Server) replaySet(args [][]byte, ks []uint64) error {
	var at int64
	if len(ks) == 1 && len(args) == 5 {
		var ok bool
		if at, ok = parseIntArg(args[4]); !ok || !bytes.EqualFold(args[3], recPXAT) {
			return fmt.Errorf("SET record with bad deadline %q %q", args[3], args[4])
		}
	}
	for i, k := range ks {
		s.db.StoreDeadline(k, args[2+2*i], at)
	}
	return nil
}

func (s *Server) replayDel(_ [][]byte, ks []uint64) error {
	for _, k := range ks {
		s.db.Delete(k)
	}
	return nil
}

// replayRename re-applies a rename. The server logs one as its effect,
// RENAME old new value deadline (0: none): old deleted, new stored, both
// blind, so the record is absorbing for both keys (see the top of this
// file). A record of the two keys alone comes from a data directory
// written before that form, and replay re-runs the move, as it did then;
// the deadline travels inside the leaf, exactly as it did at serve time.
func (s *Server) replayRename(args [][]byte, ks []uint64) error {
	old, new := ks[0], ks[1]
	if len(args) == 5 {
		at, ok := parseIntArg(args[4])
		if !ok {
			return fmt.Errorf("RENAME record with bad deadline %q", args[4])
		}
		s.db.Delete(old)
		s.db.StoreDeadline(new, args[3], at)
		return nil
	}
	if old == new {
		return nil
	}
	// At serve time a logged rename's destination was absent when the
	// move landed, or expired and lazily purged. Replay can hold it
	// still: an earlier PEXPIREAT record re-armed its old, now past,
	// deadline, and nothing purges during replay. Drop it, or the move
	// would be refused.
	s.db.Delete(new)
	s.db.Rename(old, new)
	return nil
}

// replayPexpireat re-arms an absolute deadline: every wire-level EXPIRE
// variant is logged in this one canonical form (Redis does the same
// translation), so replay never depends on the clock at replay time. A
// deadline already past is still armed — the reaper's opening pass
// purges it, which is what makes downtime expiry converge.
func (s *Server) replayPexpireat(args [][]byte, ks []uint64) error {
	ms, ok := parseIntArg(args[2])
	if !ok {
		return fmt.Errorf("PEXPIREAT record with bad deadline %q", args[2])
	}
	s.db.Set(ks[0], ms)
	return nil
}

func (s *Server) replayPersist(_ [][]byte, ks []uint64) error {
	s.db.Persist(ks[0])
	return nil
}

// logging reports whether mutations are logged: the AOF is on, or a
// dump is running. A caller holding a stripe gets an answer that holds
// until it releases the stripe.
func (s *Server) logging() bool {
	p := s.pst
	return p != nil && p.aof.Load() != nil
}

// lockKeys takes the stripes of the keys ks, in ascending order, and
// returns their mask for unlockKeys; with persistence off it takes none
// and returns 0.
func (s *Server) lockKeys(ks ...uint64) (m uint64) {
	if s.pst == nil {
		return 0
	}
	for _, k := range ks {
		m |= 1 << (k % stripeCount)
	}
	s.pst.lock(m)
	return m
}

// unlockKeys releases the stripes lockKeys took (none, with s.pst nil).
func (s *Server) unlockKeys(m uint64) { s.pst.unlock(m) }

// lock takes the stripes of mask m in ascending order: the one order
// every holder follows, so no two wait on each other.
func (p *persister) lock(m uint64) {
	for ; m != 0; m &= m - 1 {
		p.stripes[bits.TrailingZeros64(m)].Lock()
	}
}

func (p *persister) unlock(m uint64) {
	for ; m != 0; m &= m - 1 {
		p.stripes[bits.TrailingZeros64(m)].Unlock()
	}
}

// appendMutation records one mutation in p.aof, if a segment is
// current, and marks the batch as one that wrote. Callers hold the
// stripes of the keys it names across the map update and this call
// (see the top of this file), so the segment is the one that was current
// at the update.
func (ss *session) appendMutation(args ...[]byte) {
	p := ss.s.pst
	if p == nil {
		return
	}
	a := p.aof.Load()
	if a == nil {
		return
	}
	ss.wrote = true
	if p.beforeAppend != nil {
		p.beforeAppend()
	}
	if err := a.Append(args...); err != nil {
		p.degradeAOF(err)
	}
}

// commitAOF is the batch boundary: with the AOF on it commits the
// current segment, taking no lock (see the top of this file); with it
// off it returns at once. A false return means the batch appended and
// the commit failed or the AOF has degraded: its replies MUST NOT be
// flushed, and the socket drops the connection instead.
func (ss *session) commitAOF() (ok bool) {
	wrote := ss.wrote
	ss.wrote = false
	p := ss.s.pst
	if p == nil || !p.aofOn {
		return true
	}
	a := p.aof.Load()
	if a == nil {
		return true
	}
	start := time.Now()
	if err := a.Commit(); err != nil {
		p.degradeAOF(err)
		return !wrote
	}
	// Commit duration covers the buffered write-out plus the fsync under
	// appendfsync=always — the per-batch durability cost a client's reply
	// waits on.
	ss.s.met.aofCommit.Record(uint64(time.Since(start).Microseconds()))
	return !wrote || !ss.s.persistDegraded()
}

// degradeAOF records the first AOF error: a failed append, commit or
// seal. The INFO status flips from "ok", one loud line goes to stderr,
// dispatch refuses every later mutation with -MISCONF, and every batch
// that appended drops unanswered (the wrote rule). Reads keep serving;
// recovery is operator action + restart. With the AOF off the failing
// segment is a dump's: its error sticks, the drain's sync returns it,
// and it fails that dump instead.
func (p *persister) degradeAOF(err error) {
	if p.aofOn && p.aofStatus.CompareAndSwap("ok", err.Error()) {
		fmt.Fprintf(os.Stderr, "nbtried: AOF write failed; refusing further mutations (-MISCONF) until restart: %v\n", err)
	}
}

// persistDegraded reports whether the AOF has recorded a write error.
func (s *Server) persistDegraded() bool {
	p := s.pst
	return p != nil && p.aofStatus.Load() != "ok"
}

// misconf answers the Redis-style refusal for mutations while the AOF
// is broken.
func (s *Server) misconf(w *resp.Writer) {
	w.WriteError(fmt.Sprintf(
		"MISCONF AOF write failed (%s); mutating commands are disabled so acknowledged writes stay durable — fix the data directory and restart",
		s.pst.aofStatus.Load()))
}

// save runs a dump cycle. background=false is SAVE: the dump streams
// before save returns. background=true is BGSAVE: save returns once the
// rotation is done and a goroutine streams the dump. In both modes
// mutators are stopped only for the rotation and the drain before the
// base swing.
func (p *persister) save(background bool) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return fmt.Errorf("the server is closed")
	}
	if p.bgActive.Load() {
		p.mu.Unlock()
		return fmt.Errorf("a background save is already in progress")
	}

	// The rotation, under every stripe: a fresh segment (with the AOF on,
	// named in the conservative manifest: old base + whole chain + fresh
	// segment), the old segment sealed, then the swap. The dump then
	// walks the live keyspace, and the fresh segment replays over
	// whatever the walk reads (see the top of this file).
	p.lock(allStripes)
	seq, seg, err := p.dir.Rotate(p.aofOn)
	if err != nil {
		p.unlock(allStripes)
		p.mu.Unlock()
		return err
	}
	if old := p.aof.Load(); old != nil {
		if err := old.Close(); err != nil {
			p.degradeAOF(err)
		}
	}
	if p.rotating != nil {
		p.rotating()
	}
	p.aof.Store(seg)
	p.unlock(allStripes)

	doDump := func() error {
		defer p.bgActive.Store(false)
		err := p.writeDumpAndCommit(seq, seg)
		if err != nil {
			p.saveStatus.Store(err.Error())
			return err
		}
		p.saveStatus.Store("ok")
		p.lastSave.Store(time.Now().Unix())
		return nil
	}
	// bgActive is set before mu is released, so a racing SAVE/BGSAVE is
	// refused from this instant until the dump commits; the dump itself
	// runs lock-free (writeDumpAndCommit retakes mu only to swing the
	// manifest).
	p.bgActive.Store(true)
	p.bgWG.Add(1)
	p.mu.Unlock()
	if !background {
		defer p.bgWG.Done()
		return doDump()
	}
	go func() {
		defer p.bgWG.Done()
		doDump()
	}()
	return nil
}

// writeDumpAndCommit streams the base dump for seq from the live
// keyspace, drains the writers, makes seg, the rotation's segment,
// durable, and swings the manifest to the dump and seg. Each record
// carries the key's deadline from its leaf (0 = no TTL), so a dump
// restores TTL state without any AOF record.
func (p *persister) writeDumpAndCommit(seq uint64, seg *persist.AOF) error {
	err := p.dir.SaveBase(seq, func(fn func(k, v []byte, expireAtMS uint64) bool) {
		// One key buffer for the whole dump: WriteDump has written the
		// key out by the time fn returns.
		var key []byte
		for k, v := range p.s.db.Ascend(0) {
			key = BytesKeyer{}.AppendDecode(key[:0], k)
			if !fn(key, v.B, uint64(v.DeadlineMS())) {
				return
			}
			if p.dumped != nil {
				p.dumped(k)
			}
		}
	})
	// The walk may have read writes whose records are still buffered or
	// not yet appended. Make them durable before the dump becomes the
	// base: every stripe waits for each update in flight to finish its
	// append, and the sync after it puts those records on disk. Writers
	// wait for the drain, not the fsync. With the AOF off the dump's
	// segment takes no record after the drain, and its sync is its seal.
	p.lock(allStripes)
	end := seg.Sync
	if !p.aofOn {
		p.aof.Store(nil)
		end = seg.Close
	}
	p.unlock(allStripes)
	if serr := end(); serr != nil {
		p.degradeAOF(serr)
		if err == nil {
			err = serr
		}
	}
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dir.CommitBase(seq)
}

// StartPeriodicSave triggers a BGSAVE-equivalent dump cycle every
// period (the daemon's -save flag). A cycle that finds another save in
// flight is skipped, not queued. The returned stop function halts the
// ticker and waits for its goroutine; call it before Close. With
// persistence disabled it is a no-op.
func (s *Server) StartPeriodicSave(period time.Duration) (stop func()) {
	if s.pst == nil {
		return func() {}
	}
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if err := s.pst.save(true); err == nil {
					continue
				}
				// "already in progress" or an I/O failure: either way the
				// next tick retries; failures also land in saveStatus.
			case <-quit:
				return
			}
		}
	}()
	return func() { close(quit); <-done }
}

// close seals the persister: refuses every later save, waits for an
// in-flight background dump and seals the current segment. Called after
// every connection goroutine has drained, so no append can race it; it
// takes every stripe all the same, as every store into p.aof does.
func (p *persister) close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.bgWG.Wait()
	p.lock(allStripes)
	defer p.unlock(allStripes)
	if a := p.aof.Load(); a != nil {
		a.Close()
		p.aof.Store(nil)
	}
}
