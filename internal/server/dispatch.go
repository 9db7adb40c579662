package server

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"nbtrie"
	"nbtrie/internal/resp"
)

// session is one connection's dispatch state: the reply writer plus the
// scratch buffers that make the steady-state hot path allocation-free.
// Arguments arrive as views into the connection's RESP arena
// (ReadCommandReuse) and are valid only for the current command; the
// ONLY bytes dispatch copies out of the arena are SET/MSET values
// headed into the map (resp.Detach — exactly one allocation each, the
// value's own backing array). Everything else — command word, keys,
// reply bytes — is consumed before the next command overwrites it.
type session struct {
	s *Server
	w *resp.Writer

	ks     []uint64 // encodeKeys scratch, reused across commands
	cmdBuf []byte   // upper's scratch: the upcased command word

	// stripe is this connection's index into the striped per-command
	// counters (see metrics.go) — assigned once per session so counter
	// writes from different connections land on different cache lines.
	stripe uint32
}

func newSession(s *Server, w *resp.Writer) *session {
	return &session{s: s, w: w, stripe: s.met.connSeq.Add(1)}
}

// dispatch answers one command into ss.w (the caller flushes). It
// returns true when the connection should close (QUIT). Unknown
// commands and arity/key errors are ordinary RESP errors: the
// connection survives, only protocol-level framing errors are fatal
// (handled by the caller).
//
// This wrapper owns per-command accounting: it classifies the command,
// times the inline execution, and records calls / errors / latency into
// the metrics registry plus the slowlog threshold check — all wait-free
// and allocation-free (time.Now is a vDSO read; the slowlog only copies
// arguments for commands that already blew the threshold).
func (ss *session) dispatch(args [][]byte) (quit bool) {
	// Upcase into session scratch (args[0] must stay intact: the
	// unknown-command error echoes it as typed), then switch directly
	// on the []byte→string conversions: both are allocation-free once
	// the scratch is warm, and the compiler elides the conversion copy
	// when the string is only compared.
	cmd := ss.upper(args[0])
	ci := cmdIndexOf(cmd)
	errsBefore := ss.w.ErrorCount()
	start := time.Now()
	quit = ss.dispatchCmd(cmd, args)
	d := time.Since(start)
	ss.s.met.record(ss.stripe, ci, d, ss.w.ErrorCount()-errsBefore)
	if ss.s.slog.admits(d) {
		ss.s.slog.add(d, args)
	}
	return quit
}

// dispatchCmd executes one command. It is the one place each mutation's
// order is written: take the persistence gate, clear or capture the TTL
// arming, store or delete, then append the AOF record.
func (ss *session) dispatchCmd(cmd []byte, args [][]byte) (quit bool) {
	s, w := ss.s, ss.w
	switch string(cmd) {
	case "PING":
		switch len(args) {
		case 1:
			w.WriteSimple("PONG")
		case 2:
			w.WriteBulk(args[1])
		default:
			ss.wrongArity("PING")
		}
	case "QUIT":
		w.WriteSimple("OK")
		return true
	case "GET":
		if len(args) != 2 {
			ss.wrongArity("GET")
			return
		}
		k, ok := ss.encodeKey(args[1])
		if !ok {
			return
		}
		if v, found := s.getLive(k); found {
			w.WriteBulk(v)
		} else {
			w.WriteNull()
		}
	case "SET":
		if len(args) != 3 {
			ss.wrongArity("SET")
			return
		}
		if s.persistDegraded() {
			s.misconf(w)
			return
		}
		k, ok := ss.encodeKey(args[1])
		if !ok {
			return
		}
		// args[2] is arena-backed and dies with this command; Detach
		// copies out the one slice that outlives it (the stored value).
		// Map update and AOF record stay on one side of any dump
		// rotation (the gate); the AOF append itself copies args into
		// its own buffer synchronously, so arena-backed keys are safe to
		// pass through.
		v := resp.Detach(args[2])
		s.gate.RLock()
		// TTL cleared BEFORE the store (SET discards any deadline): a
		// concurrent purge that loads the fresh value then re-checks the
		// arming finds it gone and aborts — see expiry.go.
		s.clearTTL(k)
		s.db.Store(k, v)
		s.appendMutation(args...)
		s.gate.RUnlock()
		w.WriteSimple("OK")
	case "DEL":
		if len(args) < 2 {
			ss.wrongArity("DEL")
			return
		}
		if s.persistDegraded() {
			s.misconf(w)
			return
		}
		// Validate every key before the first delete: an invalid key
		// mid-batch must fail the command without having half-applied it.
		ks, ok := ss.encodeKeys(args[1:])
		if !ok {
			return
		}
		n := int64(0)
		s.gate.RLock()
		for _, k := range ks {
			// Capture the arming BEFORE the delete so the removal is
			// conditional on it: a SETEX racing in after the delete
			// installs a fresh arming this DEL must not clobber.
			e, hadTTL := s.exp.Lookup(k)
			if s.db.Delete(k) {
				n++
			}
			if hadTTL {
				s.exp.Remove(k, e)
			}
		}
		if n > 0 {
			// Replaying a DEL of the keys that were already absent is a
			// no-op, so the whole command is one record.
			s.appendMutation(args...)
		}
		s.gate.RUnlock()
		w.WriteInt(n)
	case "EXISTS":
		if len(args) < 2 {
			ss.wrongArity("EXISTS")
			return
		}
		ks, ok := ss.encodeKeys(args[1:])
		if !ok {
			return
		}
		n := int64(0)
		for _, k := range ks {
			if s.existsLive(k) {
				n++
			}
		}
		w.WriteInt(n)
	case "MGET":
		if len(args) < 2 {
			ss.wrongArity("MGET")
			return
		}
		// Validate every key before emitting the array header: a key
		// error halfway through an array reply would corrupt the stream.
		ks, ok := ss.encodeKeys(args[1:])
		if !ok {
			return
		}
		// Replies go straight into the connection writer — no
		// intermediate value slice; the stored values are never copied.
		w.WriteArrayHeader(len(ks))
		for _, k := range ks {
			if v, found := s.getLive(k); found {
				w.WriteBulk(v)
			} else {
				w.WriteNull()
			}
		}
	case "MSET":
		if len(args) < 3 || len(args)%2 != 1 {
			ss.wrongArity("MSET")
			return
		}
		if s.persistDegraded() {
			s.misconf(w)
			return
		}
		ks := ss.ks[:0]
		for i := 1; i < len(args); i += 2 {
			k, ok := ss.encodeKey(args[i])
			if !ok {
				return
			}
			ks = append(ks, k)
		}
		ss.ks = ks
		// Each Store is individually linearizable; the batch is not
		// atomic as a whole (the trie has no multi-key transaction), but
		// the pre-validation above means it either starts with every key
		// accepted or not at all. Values outlive the arena: detach each.
		s.gate.RLock()
		for i, k := range ks {
			args[2+2*i] = resp.Detach(args[2+2*i])
			s.clearTTL(k)
			s.db.Store(k, args[2+2*i])
		}
		s.appendMutation(args...)
		s.gate.RUnlock()
		w.WriteSimple("OK")
	case "DBSIZE":
		if len(args) != 1 {
			ss.wrongArity("DBSIZE")
			return
		}
		w.WriteInt(int64(s.db.Len()))
	case "SCAN":
		ss.scan(args)
	case "RENAME":
		ss.rename(args, false)
	case "RENAMESTRICT":
		ss.rename(args, true)
	case "EXPIRE":
		ss.expireCmd(args, 1000, false)
	case "PEXPIRE":
		ss.expireCmd(args, 1, false)
	case "EXPIREAT":
		ss.expireCmd(args, 1000, true)
	case "PEXPIREAT":
		ss.expireCmd(args, 1, true)
	case "TTL":
		ss.ttlCmd(args, false)
	case "PTTL":
		ss.ttlCmd(args, true)
	case "PERSIST":
		ss.persistCmd(args)
	case "SETEX":
		ss.setex(args)
	case "GETEX":
		ss.getex(args)
	case "SAVE", "BGSAVE":
		if len(args) != 1 {
			ss.wrongArity(string(args[0]))
			return
		}
		if s.pst == nil {
			w.WriteError("ERR persistence is disabled (start nbtried with -dir)")
			return
		}
		bg := string(args[0]) == "BGSAVE"
		if err := s.pst.save(bg); err != nil {
			w.WriteError("ERR " + err.Error())
			return
		}
		if bg {
			w.WriteSimple("Background saving started")
		} else {
			w.WriteSimple("OK")
		}
	case "LASTSAVE":
		if len(args) != 1 {
			ss.wrongArity("LASTSAVE")
			return
		}
		if s.pst == nil {
			w.WriteInt(0)
			return
		}
		w.WriteInt(s.pst.lastSave.Load())
	case "INFO":
		switch len(args) {
		case 1:
			w.WriteBulkString(s.infoText(""))
		case 2:
			// Redis semantics: INFO <section> returns only that section;
			// an unknown section name returns an empty bulk. INFO is cold,
			// so lowering the argument may allocate freely.
			w.WriteBulkString(s.infoText(strings.ToLower(string(args[1]))))
		default:
			ss.wrongArity("INFO")
		}
	case "SLOWLOG":
		ss.slowlogCmd(args)
	default:
		// %q, not %s: args[0] is raw client bytes and a bare CR/LF would
		// split the RESP reply stream.
		w.WriteError(fmt.Sprintf("ERR unknown command %q", args[0]))
	}
	return false
}

// scanCursor is one open SCAN: a frozen O(1) snapshot of the map plus
// the trie key the next page starts from.
type scanCursor struct {
	snap *nbtrie.ShardedMapSnapshot[[]byte]
	next uint64
}

// scan implements SCAN cursor [COUNT n], backed by the engine's O(1)
// snapshots: SCAN 0 freezes a snapshot and every later page of that
// cursor walks the SAME frozen keyspace in ascending key order. A full
// cursor walk is therefore a consistent cut — every key in the snapshot
// exactly once, no duplicates, no skips, and no concurrent mutation
// visible mid-scan (strictly stronger than Redis's guarantee; see
// DESIGN.md §8). The wire cursor is an opaque server-assigned id, not a
// resume key.
//
// Cursors live in a bounded table; the oldest is evicted when it fills,
// and a SCAN with an unknown/evicted id terminates with cursor 0 and an
// empty page — the shape Redis clients already handle for an exhausted
// scan. Snapshots are reclaimed by GC when their cursor is dropped.
func (ss *session) scan(args [][]byte) {
	s, w := ss.s, ss.w
	if len(args) != 2 && len(args) != 4 {
		ss.wrongArity("SCAN")
		return
	}
	cursor, err := strconv.ParseUint(string(args[1]), 10, 64)
	if err != nil {
		w.WriteError("ERR invalid cursor")
		return
	}
	count := s.cfg.ScanDefaultCount
	if len(args) == 4 {
		// Reusing the command-word scratch is safe here: dispatch's
		// switch has already consumed it by the time an arm runs.
		if string(ss.upper(args[2])) != "COUNT" {
			w.WriteError(fmt.Sprintf("ERR syntax error: expected COUNT, got %q", args[2]))
			return
		}
		c, err := strconv.Atoi(string(args[3]))
		if err != nil || c < 1 {
			w.WriteError("ERR COUNT must be a positive integer")
			return
		}
		// Clamp to the resolved array limit before sizing anything: an
		// unclamped client COUNT would drive the page allocation (and
		// the reply array) arbitrarily large.
		if c > s.cfg.Limits.MaxArrayLen {
			c = s.cfg.Limits.MaxArrayLen
		}
		count = c
	}

	var sc *scanCursor
	if cursor == 0 {
		sc = &scanCursor{snap: s.db.Snapshot()}
	} else {
		s.scanMu.Lock()
		sc = s.scans[cursor]
		delete(s.scans, cursor) // re-registered below if the walk continues
		s.scanMu.Unlock()
		if sc == nil {
			// Unknown or evicted: terminate the client's loop cleanly.
			w.WriteArrayHeader(2)
			w.WriteBulk([]byte("0"))
			w.WriteArrayHeader(0)
			return
		}
	}

	keys := make([][]byte, 0, count)
	more := false
	for k := range sc.snap.Ascend(sc.next) {
		if len(keys) == count {
			sc.next = k // the first key of the next page
			more = true
			break
		}
		// Lazy expiry applies to SCAN too: a key whose deadline has
		// passed since the snapshot froze is skipped (and purged from
		// the live map, not the frozen cut).
		if s.expireIfDue(k) {
			continue
		}
		keys = append(keys, s.keyer.Decode(k))
	}

	var id uint64
	if more {
		s.scanMu.Lock()
		id = s.scanNext
		s.scanNext++
		s.scans[id] = sc
		if len(s.scans) > s.cfg.MaxScanCursors {
			oldest := id
			for other := range s.scans {
				if other < oldest {
					oldest = other
				}
			}
			delete(s.scans, oldest)
		}
		s.scanMu.Unlock()
	}

	w.WriteArrayHeader(2)
	w.WriteBulk(strconv.AppendUint(nil, id, 10))
	w.WriteArrayHeader(len(keys))
	for _, key := range keys {
		w.WriteBulk(key)
	}
}

// rename implements RENAME old new (and its strict variant,
// RENAMESTRICT). Same-shard pairs are always the paper's atomic Replace
// — ShardedMap.MoveKey routes them through ReplaceKey, one
// linearization point moving the value from old to new. Cross-shard
// pairs diverge:
//
//   - RENAME runs the documented two-phase MoveKey (DESIGN.md §12):
//     insert at the destination, then delete the source. Not atomic — a
//     concurrent reader can briefly see both keys — but never neither,
//     and the in-flight marker makes the move recoverable. This is
//     MOVE-style semantics, announced rather than faked atomicity.
//   - RENAMESTRICT preserves the old contract: cross-shard pairs are
//     refused with -CROSSSHARD (mirroring Redis Cluster's -CROSSSLOT),
//     for clients that must know their rename was one linearization
//     point.
//
// In both variants an existing destination is an error, not an
// overwrite: Replace and MoveKey are insert-if-absent by definition,
// and silently deleting the destination first would need a second
// linearization point. A deadline on the source travels with the value
// (re-armed on the destination after the move, same loose-consistency
// window as the move itself).
func (ss *session) rename(args [][]byte, strict bool) {
	s, w := ss.s, ss.w
	cmdName := "RENAME"
	if strict {
		cmdName = "RENAMESTRICT"
	}
	if len(args) != 3 {
		ss.wrongArity(cmdName)
		return
	}
	// Refuse like every other mutation while the AOF is degraded; the
	// rename-to-self fast path below mutates nothing but gets the same
	// refusal for predictability.
	if s.persistDegraded() {
		s.misconf(w)
		return
	}
	old, ok := ss.encodeKey(args[1])
	if !ok {
		return
	}
	new, ok := ss.encodeKey(args[2])
	if !ok {
		return
	}
	if old == new {
		// Degenerate rename-to-self: Replace refuses (old != new is part
		// of its contract), but "key exists" would be a misleading
		// error. Match Redis: succeed iff the key exists.
		if s.existsLive(old) {
			w.WriteSimple("OK")
		} else {
			w.WriteError("ERR no such key")
		}
		return
	}
	// An expired-but-unpurged source must rename as absent.
	if s.expireIfDue(old) {
		w.WriteError("ERR no such key")
		return
	}
	// And an expired-but-unpurged destination must not block the move:
	// it reads as absent everywhere else, so "destination key exists"
	// would be a lie. Purge it before attempting the move.
	s.expireIfDue(new)
	// The source's arming, captured before the move so it can travel:
	// conditional removal afterwards, same discipline as DEL.
	oldArming, hadTTL := s.exp.Lookup(old)

	var moved bool
	var err error
	s.gate.RLock()
	if strict {
		moved, err = s.db.ReplaceKey(old, new)
	} else {
		moved, err = s.db.MoveKey(old, new)
	}
	if moved {
		if hadTTL {
			// Re-arm the destination, then drop the source's arming.
			// Readers can see the destination without its TTL for the
			// instant between — the index's documented loose window.
			s.exp.Set(new, oldArming.DeadlineMS)
			s.exp.Remove(old, oldArming)
		}
		// One AOF record for the move; replay re-expresses it as
		// load+delete+store (+ deadline move), which is safe
		// single-threaded (recovery).
		s.appendMutation([]byte("RENAME"), args[1], args[2])
	}
	s.gate.RUnlock()
	if err != nil {
		switch {
		case errors.Is(err, nbtrie.ErrCrossShard):
			// Strict mode only. -CROSSSHARD mirrors Redis Cluster's
			// -CROSSSLOT: the operation is well-formed but these two keys
			// cannot be moved atomically; plain RENAME moves them with
			// two-phase (non-atomic) semantics instead.
			w.WriteError(fmt.Sprintf(
				"CROSSSHARD keys map to different shards (%d-shard map); atomic RENAMESTRICT is per-shard — use RENAME for a two-phase cross-shard move, see DESIGN.md §12: %v",
				s.db.Shards(), err))
		case errors.Is(err, nbtrie.ErrMoveBusy):
			w.WriteError("ERR cross-shard move of this key already in flight; retry")
		default:
			w.WriteError("ERR " + err.Error())
		}
		return
	}
	if moved {
		w.WriteSimple("OK")
		return
	}
	// Distinguish the two failure modes for the error message only;
	// the check is best-effort under concurrency, the refusal itself
	// was decided atomically by Replace/MoveKey.
	if !s.db.Contains(old) {
		w.WriteError("ERR no such key")
	} else {
		w.WriteError("ERR destination key exists (RENAME is insert-if-absent, like the trie's atomic Replace; DEL it first to overwrite)")
	}
}

// encodeKey maps a wire key through the keyer, answering a RESP error
// and returning ok=false when the key is not representable.
func (ss *session) encodeKey(key []byte) (uint64, bool) {
	k, err := ss.s.keyer.Encode(key)
	if err != nil {
		ss.w.WriteError("ERR " + err.Error())
		return 0, false
	}
	return k, true
}

// encodeKeys maps a batch of wire keys into the session's reusable
// scratch, failing the whole command on the first unrepresentable one
// *before* the caller acts on any — so a multi-key command is never
// half-applied and never emits a partial array reply. The returned
// slice is valid until the next encodeKeys/MSET on this session.
func (ss *session) encodeKeys(keys [][]byte) ([]uint64, bool) {
	ks := ss.ks[:0]
	for _, key := range keys {
		k, ok := ss.encodeKey(key)
		if !ok {
			return nil, false
		}
		ks = append(ks, k)
	}
	ss.ks = ks
	return ks, true
}

// wrongArity is the standard Redis arity error.
func (ss *session) wrongArity(cmd string) {
	ss.w.WriteError(fmt.Sprintf("ERR wrong number of arguments for '%s' command", cmd))
}

// upper returns b upper-cased into the session's reused scratch —
// allocation-free once the scratch has grown to the longest command
// word, and it leaves b intact (error replies echo the command as the
// client typed it). The returned slice is valid until the next call.
func (ss *session) upper(b []byte) []byte {
	ss.cmdBuf = append(ss.cmdBuf[:0], b...)
	upperInPlace(ss.cmdBuf)
	return ss.cmdBuf
}

// upperInPlace upper-cases ASCII in place (only ever applied to the
// session-owned scratch, never to caller bytes).
func upperInPlace(b []byte) {
	for i, c := range b {
		if 'a' <= c && c <= 'z' {
			b[i] = c - ('a' - 'A')
		}
	}
}

// toUpper returns an upper-cased copy only when needed; replay-side
// callers (applyRecord) that must not mutate shared test fixtures keep
// using it.
func toUpper(b []byte) []byte {
	if i := bytes.IndexFunc(b, func(r rune) bool { return 'a' <= r && r <= 'z' }); i < 0 {
		return b
	}
	out := make([]byte, len(b))
	for i, c := range b {
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		out[i] = c
	}
	return out
}
