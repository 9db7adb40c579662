package server

import (
	"fmt"
	"iter"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"nbtrie/internal/expiry"
	"nbtrie/internal/persist"
	"nbtrie/internal/resp"
)

// Durability orchestration: how the server composes internal/persist's
// dumps, AOF segments and manifest with the map's O(1) snapshots.
//
// # The exact-boundary invariant
//
// Recovery is "load the base dump, then replay the AOF chain". That is
// only correct if every acknowledged mutation lands in EXACTLY one of
// the two — a record that is both in the dump and in a replayed segment
// is applied twice, and replay is not idempotent across reorderings
// (replaying an old "RENAME a b" after a newer "SET a v" resurrects b
// with the wrong value). The server enforces the boundary with one
// RWMutex, gate: every mutating command holds gate.RLock across its
// map update AND its AOF append, and a rotation holds gate.Lock while
// it (a) opens a fresh AOF segment, (b) commits the manifest listing
// it, (c) takes the map snapshot the dump will stream from and (d)
// seals the old segment (flush + fsync + close). Writers are quiesced
// for those four steps only — O(shards) work plus a handful of file
// operations whose cost is bounded by one batch's buffered appends,
// independent of data size; the dump itself streams from the frozen
// snapshot with no lock held. Every mutation therefore observes the
// rotation entirely before it (its map update is in the snapshot, its
// record durable in an old segment the next manifest drops) or
// entirely after (not in the snapshot, record in the new segment).
// Step (d) inside the gate is load-bearing: batch commits
// (commitAOF) also run under gate.RLock against whatever segment is
// current, so a pre-swap append can only be acknowledged after either
// its own segment's commit or the rotation's seal has made it durable.
//
// The gate also makes the sharded snapshot's documented weakness moot
// here: taken under gate.Lock, the per-shard cuts see an identical
// (quiesced) world, so the composite IS a globally exact cut.
//
// # Crash windows
//
//   - Mid-dump: the manifest committed in step (b) still names the old
//     base plus the WHOLE segment chain including the new segment, so a
//     crash recovers everything acknowledged up to the crash. The
//     half-written dump is an unreferenced temp file; recovery ignores
//     and removes it.
//   - After the dump completes, it is fsynced and renamed, then a
//     second manifest commit swings base to it and drops the
//     pre-rotation segments. Both manifest commits are atomic
//     (temp+fsync+rename+dir-fsync), so recovery sees the old or the
//     new recipe, never a mix. Old files are deleted only after the
//     commit that stops referencing them.
//   - Mid-append: the AOF tail tears. Under appendfsync always a torn
//     record was never acknowledged (the fsync happens before the reply
//     flush), so truncating it loses nothing a client was promised.
//
// # Acknowledgement ordering
//
// Connections buffer replies per pipelined batch and flush when the
// parser would block (flushBeforeRead). The AOF commit is hooked into
// that same moment, BEFORE the reply flush: append (buffered, under
// gate.RLock) → aof.Commit (write syscall; +fsync under always, itself
// under gate.RLock — see commitAOF) → reply flush. A client that has
// seen "+OK" therefore knows the record is at least in the kernel
// (always: on stable storage) — the classic group-commit pattern, one
// write+fsync per batch rather than per command. When the commit
// FAILS, the batch's replies are never flushed: the connection drops,
// the AOF degrades (stderr + INFO), and dispatch refuses further
// mutations with -MISCONF — a failed disk can delay or kill client
// traffic but can never turn into a false acknowledgement.

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
	s      *Server
	dir    string
	aofOn  bool
	policy persist.SyncPolicy

	// mu serializes SAVE/BGSAVE/rotation bookkeeping and Close; it is
	// never held while streaming a dump.
	mu       sync.Mutex
	aof      *persist.AOF
	manifest persist.Manifest
	seq      uint64 // highest sequence number in use

	bgActive   atomic.Bool
	lastSave   atomic.Int64 // unix seconds of the last completed dump
	saveStatus atomic.Value // string: "ok" or the last dump error
	aofStatus  atomic.Value // string: "ok" or the last append error
	bgWG       sync.WaitGroup

	// applyRecord's scratch (recovery is single-threaded): the upcased
	// record name and the encoded keys.
	word []byte
	ks   []uint64
}

// openPersister recovers dir's state into s.db (dump, then AOF chain,
// truncating a torn tail) and arranges for new appends; called from New
// before any listener exists, so recovery sees no concurrency.
func openPersister(s *Server, cfg PersistConfig) (*persister, error) {
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	p := &persister{s: s, dir: cfg.Dir, aofOn: cfg.AOF, policy: cfg.Fsync}
	p.saveStatus.Store("ok")
	p.aofStatus.Store("ok")

	m, ok, err := persist.ReadManifest(cfg.Dir)
	if err != nil {
		return nil, err
	}
	if ok {
		if err := p.recover(m); err != nil {
			return nil, err
		}
		p.manifest = m
	}
	p.removeUnreferenced()

	if p.aofOn {
		// Appends go to a fresh segment committed into the manifest
		// before the first record can land in it, so a crash at any
		// point finds every segment it needs listed.
		p.seq++
		name := persist.IncrName(p.seq)
		p.manifest.Incrs = append(p.manifest.Incrs, name)
		if err := persist.WriteManifest(p.dir, p.manifest); err != nil {
			return nil, err
		}
		a, err := persist.OpenAOF(filepath.Join(p.dir, name), p.policy)
		if err != nil {
			return nil, err
		}
		p.aof = a
	}
	return p, nil
}

// recover loads the manifest's recipe into the (empty) map.
func (p *persister) recover(m persist.Manifest) error {
	if m.Base != "" {
		if n, ok := persist.SeqOf(m.Base); ok && n > p.seq {
			p.seq = n
		}
		err := persist.LoadDump(p.dir, m.Base, func(k, v []byte, expireAtMS uint64) error {
			if err := p.applyRecord([][]byte{[]byte("SET"), k, v}); err != nil {
				return err
			}
			if expireAtMS != 0 {
				// Re-arm the dumped deadline, even one already past: the
				// reaper's opening pass (and any lazy read) purges it, the
				// same convergence path as replayed PEXPIREAT records.
				ek, err := p.s.keyer.Encode(k)
				if err != nil {
					return err
				}
				p.s.exp.Set(ek, int64(expireAtMS))
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("server: loading base dump %s: %w", m.Base, err)
		}
	}
	for _, name := range m.Incrs {
		if n, ok := persist.SeqOf(name); ok && n > p.seq {
			p.seq = n
		}
		_, truncated, err := persist.ReplayFile(
			filepath.Join(p.dir, name), p.s.cfg.Limits, p.applyRecord)
		if err != nil {
			return fmt.Errorf("server: replaying %s: %w", name, err)
		}
		if truncated {
			fmt.Fprintf(os.Stderr, "nbtried: truncated torn tail of %s (crash artifact; the partial record was never acknowledged)\n", name)
		}
	}
	return nil
}

// removeUnreferenced deletes dump/segment-shaped files the manifest
// does not name — half-written temp files and stale bases/segments a
// crash interrupted the cleanup of.
func (p *persister) removeUnreferenced() {
	referenced := map[string]bool{persist.ManifestName: true}
	if p.manifest.Base != "" {
		referenced[p.manifest.Base] = true
	}
	for _, n := range p.manifest.Incrs {
		referenced[n] = true
	}
	ents, err := os.ReadDir(p.dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		if !referenced[e.Name()] {
			os.Remove(filepath.Join(p.dir, e.Name()))
		}
	}
}

// applyRecord replays one AOF/dump record against the map (and the
// expiry index: every record that changes a key's TTL state at serve
// time changes it identically at replay time). It looks the record up in
// the command table and applies the row's arity and key spec exactly as
// dispatch does, then the row's replay — the replay-side mirror of the
// handler, minus replies and re-appending. It runs single-threaded
// (recovery), so the multi-step RENAME needs no atomicity. Reaper purges
// are deliberately NOT recorded: recovery re-evaluates the replayed
// absolute deadlines against the clock, so an expiry that happened while
// up happens again (lazily or on the reaper's opening pass) after a
// restart.
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
	if !c.fits(len(args)) {
		return fmt.Errorf("%s record with %d args", c.name, len(args))
	}
	ks, err := c.keys(p.s.keyer, args, p.ks[:0])
	p.ks = ks
	if err != nil {
		return err
	}
	return c.replay(p.s, args, ks)
}

// replaySet re-applies SET and MSET records: a plain store discards any
// earlier arming.
func (s *Server) replaySet(args [][]byte, ks []uint64) error {
	for i, k := range ks {
		s.db.Store(k, args[2+2*i])
		s.exp.Clear(k)
	}
	return nil
}

func (s *Server) replayDel(_ [][]byte, ks []uint64) error {
	for _, k := range ks {
		s.db.Delete(k)
		s.exp.Clear(k)
	}
	return nil
}

func (s *Server) replayRename(_ [][]byte, ks []uint64) error {
	old, new := ks[0], ks[1]
	if old == new {
		return nil
	}
	if v, ok := s.db.Load(old); ok {
		s.db.Delete(old)
		s.db.Store(new, v)
		// At serve time a rename's destination holds no arming when the
		// move lands (it was absent, or expired and lazily purged —
		// arming included). Replay must match: an earlier PEXPIREAT
		// record may have re-armed the destination's old (possibly past)
		// deadline, which must not survive onto the moved value, or the
		// opening reaper pass eats it.
		s.exp.Clear(new)
		// The deadline travels with the value, exactly as it did at
		// serve time (both the atomic and the two-phase rename log this
		// one record).
		if e, had := s.exp.Lookup(old); had {
			s.exp.Set(new, e.DeadlineMS)
			s.exp.Remove(old, e)
		}
	}
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
	if s.db.Contains(ks[0]) {
		s.exp.Set(ks[0], ms)
	}
	return nil
}

func (s *Server) replayPersist(_ [][]byte, ks []uint64) error {
	s.exp.Clear(ks[0])
	return nil
}

// appendMutation records one acknowledged mutation. Callers hold
// gate.RLock across the map update and this call (the exact-boundary
// invariant); that RLock is also what makes reading p.aof safe, since
// rotations swap it under gate.Lock.
func (s *Server) appendMutation(args ...[]byte) {
	p := s.pst
	if p == nil || !p.aofOn {
		return
	}
	if err := p.aof.Append(args...); err != nil {
		p.degradeAOF(err)
	}
}

// commitAOF is the batch-boundary hook: everything appended since the
// last commit reaches the file (and stable storage, under always)
// before the replies for the batch are flushed. It holds gate.RLock so
// the p.aof read is ordered against rotations: a rotation seals the
// previous segment before releasing the gate, so the segment committed
// here either is the one this batch appended to, or post-dates a seal
// that already made those appends durable — a post-swap commit can
// never acknowledge records still buffered in the pre-swap segment.
//
// A false return means the commit failed and the batch's replies MUST
// NOT be flushed: they would acknowledge writes that never became
// durable. Callers drop the connection instead.
func (s *Server) commitAOF() (ok bool) {
	p := s.pst
	if p == nil || !p.aofOn {
		return true
	}
	s.gate.RLock()
	defer s.gate.RUnlock()
	if p.aof == nil {
		return true
	}
	start := time.Now()
	if err := p.aof.Commit(); err != nil {
		p.degradeAOF(err)
		return false
	}
	// Commit duration covers the buffered write-out plus the fsync under
	// appendfsync=always — the per-batch durability cost a client's reply
	// waits on.
	s.met.aofCommit.Record(uint64(time.Since(start).Microseconds()))
	return true
}

// degradeAOF records the first AOF write error. The INFO status flips
// from "ok", one loud line goes to stderr, and from then on dispatch
// refuses every mutating command with -MISCONF (persistDegraded below):
// the server never keeps silently acking writes it can no longer make
// durable. Reads keep working; recovery is operator action + restart.
func (p *persister) degradeAOF(err error) {
	if p.aofStatus.CompareAndSwap("ok", err.Error()) {
		fmt.Fprintf(os.Stderr, "nbtried: AOF write failed; refusing further mutations (-MISCONF) until restart: %v\n", err)
	}
}

// persistDegraded reports whether the AOF has recorded a write error.
func (s *Server) persistDegraded() bool {
	p := s.pst
	return p != nil && p.aofOn && p.aofStatus.Load() != "ok"
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
// snapshot is taken and a goroutine streams the dump. In both modes
// mutators are quiesced only for the rotation instant.
func (p *persister) save(background bool) error {
	p.mu.Lock()
	if p.bgActive.Load() {
		p.mu.Unlock()
		return fmt.Errorf("a background save is already in progress")
	}

	// Rotation, under the write gate: fresh segment, conservative
	// manifest (old base + whole chain + fresh segment), snapshot.
	dumpSeq := p.seq + 1
	var newSeg *persist.AOF
	var err error
	prev := p.manifest

	p.s.gate.Lock()
	if p.aofOn {
		segName := persist.IncrName(dumpSeq)
		newSeg, err = persist.OpenAOF(filepath.Join(p.dir, segName), p.policy)
		if err != nil {
			p.s.gate.Unlock()
			p.mu.Unlock()
			return err
		}
		next := persist.Manifest{Base: prev.Base, Incrs: append(append([]string{}, prev.Incrs...), segName)}
		if err := persist.WriteManifest(p.dir, next); err != nil {
			p.s.gate.Unlock()
			p.mu.Unlock()
			newSeg.Close()
			os.Remove(filepath.Join(p.dir, segName))
			return err
		}
		p.manifest = next
	}
	p.seq = dumpSeq
	// Both snapshots under the same gate.Lock instant: the dump's
	// (value, deadline) pairs are one consistent cut — no TTL for a key
	// the value cut doesn't have, no value whose arming the TTL cut
	// missed.
	snap := p.s.db.Snapshot() // globally exact: writers are quiesced by the gate
	expSnap := p.s.exp.Snapshot()
	oldSeg := p.aof
	if p.aofOn {
		p.aof = newSeg
	}
	if oldSeg != nil {
		// Seal (flush + fsync + close) the old segment BEFORE releasing
		// the gate. commitAOF runs under gate.RLock and commits whatever
		// p.aof points to, so a batch appended pre-swap can be committed
		// — and its replies acknowledged — against the NEW segment only.
		// Sealing inside the gate makes those pre-swap records durable
		// before any such acknowledgement is possible; sealing after the
		// unlock would leave a window where a crash loses acked bytes
		// still sitting in the old segment's write buffer.
		oldSeg.Close()
	}
	p.s.gate.Unlock()

	doDump := func() error {
		defer p.bgActive.Store(false)
		err := p.writeDumpAndCommit(snap, expSnap, dumpSeq)
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

// writeDumpAndCommit streams the snapshot into base-<seq>, swings the
// manifest to it and removes the files the new recipe dropped. Each
// record carries the key's deadline from the expiry cut (0 = no TTL),
// so a dump restores TTL state without any AOF record.
func (p *persister) writeDumpAndCommit(snap snapshotIter, expSnap *expiry.Snapshot, seq uint64) error {
	baseName := persist.BaseName(seq)
	err := persist.SaveDump(p.dir, baseName, func(fn func(k, v []byte, expireAtMS uint64) bool) {
		for k, v := range snap.All() {
			if !fn(p.s.keyer.Decode(k), v, uint64(expSnap.DeadlineMS(k))) {
				return
			}
		}
	})
	if err != nil {
		return err
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	old := p.manifest
	next := persist.Manifest{Base: baseName}
	if p.aofOn {
		// The segment opened by this cycle's rotation — and any opened
		// by later rotations while a BGSAVE streamed — hold exactly the
		// post-snapshot records.
		next.Incrs = segmentsAtOrAfter(old.Incrs, seq)
	}
	if err := persist.WriteManifest(p.dir, next); err != nil {
		return err
	}
	p.manifest = next

	drop := map[string]bool{}
	if old.Base != "" && old.Base != baseName {
		drop[old.Base] = true
	}
	for _, n := range old.Incrs {
		drop[n] = true
	}
	for _, n := range next.Incrs {
		delete(drop, n)
	}
	for n := range drop {
		os.Remove(filepath.Join(p.dir, n))
	}
	return nil
}

// segmentsAtOrAfter filters the chain to segments with sequence >= seq.
func segmentsAtOrAfter(chain []string, seq uint64) []string {
	var out []string
	for _, n := range chain {
		if s, ok := persist.SeqOf(n); ok && s >= seq {
			out = append(out, n)
		}
	}
	return out
}

// snapshotIter is the slice of ShardedMapSnapshot the dump needs;
// narrowing it keeps writeDumpAndCommit testable.
type snapshotIter interface {
	All() iter.Seq2[uint64, []byte]
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

// close seals the persister: waits for an in-flight background dump and
// syncs+closes the current segment. Called after every connection
// goroutine has drained, so no append can race it.
func (p *persister) close() {
	p.bgWG.Wait()
	p.mu.Lock()
	defer p.mu.Unlock()
	// gate.Lock keeps the p.aof write ordered with commitAOF's
	// gate.RLock reads (same mu→gate order as save's rotation); by the
	// time close runs the connections are drained, so this is
	// belt-and-braces for the race detector, not a live contention.
	p.s.gate.Lock()
	defer p.s.gate.Unlock()
	if p.aof != nil {
		p.aof.Close()
		p.aof = nil
	}
}

// infoPersistence renders INFO's persistence section.
func (p *persister) info() string {
	aofEnabled := 0
	var aofSize int64
	segs := 0
	if p.aofOn {
		aofEnabled = 1
		p.mu.Lock()
		if p.aof != nil {
			aofSize = p.aof.Size()
		}
		segs = len(p.manifest.Incrs)
		p.mu.Unlock()
	}
	bg := 0
	if p.bgActive.Load() {
		bg = 1
	}
	return fmt.Sprintf(
		"persistence_dir:%s\r\n"+
			"aof_enabled:%d\r\n"+
			"aof_fsync:%s\r\n"+
			"aof_current_size:%d\r\n"+
			"aof_segments:%d\r\n"+
			"aof_last_write_status:%s\r\n"+
			"rdb_bgsave_in_progress:%d\r\n"+
			"rdb_last_save_time:%d\r\n"+
			"rdb_last_bgsave_status:%s\r\n",
		p.dir,
		aofEnabled,
		p.policy,
		aofSize,
		segs,
		p.aofStatus.Load(),
		bg,
		p.lastSave.Load(),
		p.saveStatus.Load(),
	)
}
