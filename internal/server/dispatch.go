package server

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"nbtrie"
	"nbtrie/internal/resp"
)

// command is one row of the command table: everything dispatch, AOF
// replay and the metrics know about a wire command, written once.
type command struct {
	name     string // upper-case wire name; its lower case labels metrics and INFO
	min, max int    // argument count, command word included; max < 0: unbounded
	// Key positions, Redis-style: args[first], args[first+step], … up
	// to args[last], where a negative last counts from the end. first 0
	// means the command takes no keys.
	first, last, step int
	write             bool // refused with -MISCONF while the AOF is degraded
	run               handler
	// replay re-applies a logged record of this command during recovery
	// (nil: the command is never logged under its own name).
	replay func(s *Server, args [][]byte, ks []uint64) error
}

// handler answers one command whose row checks have passed; ks holds the
// encoded keys at the row's key positions.
type handler func(ss *session, args [][]byte, ks []uint64)

// commands is the command table, in metrics order; counter slot
// len(commands) is "other", every word that names no row. cmdByName
// indexes it by wire name. Both are filled in init because INFO's
// handler renders commandstats from this table: as a package-level
// initializer the table would refer to itself.
var (
	commands  []command
	cmdByName map[string]uint8
)

func init() {
	commands = []command{
		// → ShardedMap.Load behind the lazy expiry check (wait-free, 0-alloc in the trie).
		{name: "GET", min: 2, max: 2, first: 1, last: 1, step: 1, run: (*session).get},
		// → ShardedMap.Store (lock-free upsert); SET is MSET with one pair.
		{name: "SET", min: 3, max: 3, first: 1, last: 1, step: 1, write: true, run: (*session).set, replay: (*Server).replaySet},
		// → n × ShardedMap.Delete (lock-free).
		{name: "DEL", min: 2, max: -1, first: 1, last: -1, step: 1, write: true, run: (*session).del, replay: (*Server).replayDel},
		// → n × ShardedMap.Contains (wait-free).
		{name: "EXISTS", min: 2, max: -1, first: 1, last: -1, step: 1, run: (*session).exists},
		// → n × Load / n × Store: each key individually linearizable, the
		// batch not atomic (the trie has no multi-key transaction).
		{name: "MGET", min: 2, max: -1, first: 1, last: -1, step: 1, run: (*session).mget},
		{name: "MSET", min: 3, max: -1, first: 1, last: -1, step: 2, write: true, run: (*session).set, replay: (*Server).replaySet},
		{name: "PING", min: 1, max: 2, run: (*session).ping},
		{name: "QUIT", min: 1, max: -1, run: (*session).quitCmd},
		// → ShardedMap.Len (per-shard atomic counters).
		{name: "DBSIZE", min: 1, max: 1, run: (*session).dbsize},
		// → ShardedMap.Snapshot, then Ascend over the frozen cut.
		{name: "SCAN", min: 2, max: 4, run: (*session).scan},
		// → ShardedMap.MoveKey: the paper's atomic Replace when the keys
		// share a shard, a two-phase move across shards (DESIGN.md §12).
		{name: "RENAME", min: 3, max: 3, first: 1, last: 2, step: 1, write: true, run: renameCmd(false), replay: (*Server).replayRename},
		// → ShardedMap.ReplaceKey: atomic only, cross-shard pairs refused.
		{name: "RENAMESTRICT", min: 3, max: 3, first: 1, last: 2, step: 1, write: true, run: renameCmd(true)},
		// The TTL commands → expiry.Index, the deadline-ordered secondary
		// trie; every EXPIRE variant is logged as PEXPIREAT (expiry.go).
		{name: "EXPIRE", min: 3, max: 3, first: 1, last: 1, step: 1, write: true, run: expireCmd(1000, false)},
		{name: "PEXPIRE", min: 3, max: 3, first: 1, last: 1, step: 1, write: true, run: expireCmd(1, false)},
		{name: "EXPIREAT", min: 3, max: 3, first: 1, last: 1, step: 1, write: true, run: expireCmd(1000, true)},
		{name: "PEXPIREAT", min: 3, max: 3, first: 1, last: 1, step: 1, write: true, run: expireCmd(1, true), replay: (*Server).replayPexpireat},
		{name: "TTL", min: 2, max: 2, first: 1, last: 1, step: 1, run: ttlCmd(false)},
		{name: "PTTL", min: 2, max: 2, first: 1, last: 1, step: 1, run: ttlCmd(true)},
		{name: "PERSIST", min: 2, max: 2, first: 1, last: 1, step: 1, write: true, run: (*session).persistCmd, replay: (*Server).replayPersist},
		// → expiry.Index.Set, then ShardedMap.Store; logged as SET + PEXPIREAT.
		{name: "SETEX", min: 4, max: 4, first: 1, last: 1, step: 1, write: true, run: (*session).setex},
		// → Load; only the re-arming and disarming options are refused
		// while the AOF is degraded, so the handler checks that itself.
		{name: "GETEX", min: 2, max: 4, first: 1, last: 1, step: 1, run: (*session).getex},
		{name: "SAVE", min: 1, max: 1, run: saveCmd(false)},
		{name: "BGSAVE", min: 1, max: 1, run: saveCmd(true)},
		{name: "LASTSAVE", min: 1, max: 1, run: (*session).lastsave},
		{name: "INFO", min: 1, max: 2, run: (*session).info},
		{name: "SLOWLOG", min: 2, max: -1, run: (*session).slowlogCmd},
	}
	cmdByName = make(map[string]uint8, len(commands))
	for i, c := range commands {
		cmdByName[c.name] = uint8(i)
	}
}

// fits reports whether n arguments fit the row: within [min, max], and a
// key run with step > 1 through the end (MSET's pairs) in whole groups.
func (c *command) fits(n int) bool {
	return n >= c.min && (c.max < 0 || n <= c.max) &&
		(c.step < 2 || c.last >= 0 || (n-c.first)%c.step == 0)
}

// keys encodes the row's key arguments, appending to ks (reusable
// scratch). It fails on the first unrepresentable key, before the
// handler acts on any: a multi-key command is never half-applied and
// never emits a partial array reply.
func (c *command) keys(keyer Keyer, args [][]byte, ks []uint64) ([]uint64, error) {
	if c.first == 0 {
		return ks, nil
	}
	last := c.last
	if last < 0 {
		last += len(args)
	}
	for i := c.first; i <= last; i += c.step {
		k, err := keyer.Encode(args[i])
		if err != nil {
			return ks, err
		}
		ks = append(ks, k)
	}
	return ks, nil
}

// cmdLabel is counter slot ci's metrics and INFO label: the row's name
// in lower case (Redis renders cmdstat keys lowercase), or "other".
func cmdLabel(ci int) string {
	if ci == len(commands) {
		return "other"
	}
	return strings.ToLower(commands[ci].name)
}

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

	ks     []uint64 // encoded-key scratch, reused across commands
	cmdBuf []byte   // upper's scratch: the upcased command word
	quit   bool     // set by QUIT: the connection closes after this reply

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
// This wrapper owns per-command accounting: it finds the command's row,
// times the inline execution, and records calls / errors / latency into
// the metrics registry plus the slowlog threshold check — all wait-free
// and allocation-free (the map lookup's []byte→string conversion is
// elided, time.Now is a vDSO read; the slowlog only copies arguments
// for commands that already blew the threshold).
func (ss *session) dispatch(args [][]byte) (quit bool) {
	ci, known := cmdByName[string(ss.upper(args[0]))]
	if !known {
		ci = uint8(len(commands))
	}
	errsBefore := ss.w.ErrorCount()
	start := time.Now()
	if known {
		ss.run(&commands[ci], args)
	} else {
		// %q, not %s: args[0] is raw client bytes and a bare CR/LF would
		// split the RESP reply stream.
		ss.w.WriteError(fmt.Sprintf("ERR unknown command %q", clip(args[0])))
	}
	d := time.Since(start)
	ss.s.met.record(ss.stripe, int(ci), d, ss.w.ErrorCount()-errsBefore)
	if ss.s.slog.admits(d) {
		ss.s.slog.add(d, args)
	}
	return ss.quit
}

// run executes one command through its row, in a fixed order: arity,
// then the -MISCONF refusal of a write while the AOF is degraded, then
// key encoding, then the handler.
func (ss *session) run(c *command, args [][]byte) {
	if !c.fits(len(args)) {
		ss.wrongArity(c.name)
		return
	}
	if c.write && ss.s.persistDegraded() {
		ss.s.misconf(ss.w)
		return
	}
	ks, err := c.keys(ss.s.keyer, args, ss.ks[:0])
	ss.ks = ks
	if err != nil {
		ss.w.WriteError("ERR " + err.Error())
		return
	}
	c.run(ss, args, ks)
}

func (ss *session) ping(args [][]byte, _ []uint64) {
	if len(args) == 2 {
		ss.w.WriteBulk(args[1])
		return
	}
	ss.w.WriteSimple("PONG")
}

func (ss *session) quitCmd(_ [][]byte, _ []uint64) {
	ss.quit = true
	ss.w.WriteSimple("OK")
}

// get answers GET, and MGET after its array header: one bulk or null
// per key. The stored values are written straight into the connection
// writer, never copied.
func (ss *session) get(_ [][]byte, ks []uint64) {
	for _, k := range ks {
		if v, found := ss.s.getLive(k); found {
			ss.w.WriteBulk(v)
		} else {
			ss.w.WriteNull()
		}
	}
}

func (ss *session) mget(args [][]byte, ks []uint64) {
	ss.w.WriteArrayHeader(len(ks))
	ss.get(args, ks)
}

// set stores SET's pair or MSET's pairs, in the order every mutation
// follows: take the persistence gate, clear or capture the TTL arming,
// store or delete, then append the AOF record. The gate keeps the map
// update and the record on one side of any dump rotation; the AOF
// append copies args into its own buffer synchronously, so arena-backed
// keys are safe to pass through.
func (ss *session) set(args [][]byte, ks []uint64) {
	s := ss.s
	s.gate.RLock()
	for i, k := range ks {
		// The value is arena-backed and dies with this command: Detach
		// copies out the one slice that outlives it.
		v := resp.Detach(args[2+2*i])
		// TTL cleared BEFORE the store (SET discards any deadline): a
		// concurrent purge that loads the fresh value then re-checks the
		// arming finds it gone and aborts — see expiry.go.
		s.clearTTL(k)
		s.db.Store(k, v)
	}
	s.appendMutation(args...)
	s.gate.RUnlock()
	ss.w.WriteSimple("OK")
}

func (ss *session) del(args [][]byte, ks []uint64) {
	s := ss.s
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
	ss.w.WriteInt(n)
}

func (ss *session) exists(_ [][]byte, ks []uint64) {
	n := int64(0)
	for _, k := range ks {
		if ss.s.existsLive(k) {
			n++
		}
	}
	ss.w.WriteInt(n)
}

func (ss *session) dbsize(_ [][]byte, _ []uint64) {
	ss.w.WriteInt(int64(ss.s.db.Len()))
}

// saveCmd returns the SAVE (bg false) or BGSAVE handler.
func saveCmd(bg bool) handler {
	return func(ss *session, _ [][]byte, _ []uint64) {
		w := ss.w
		if ss.s.pst == nil {
			w.WriteError("ERR persistence is disabled (start nbtried with -dir)")
			return
		}
		if err := ss.s.pst.save(bg); err != nil {
			w.WriteError("ERR " + err.Error())
			return
		}
		if bg {
			w.WriteSimple("Background saving started")
		} else {
			w.WriteSimple("OK")
		}
	}
}

func (ss *session) lastsave(_ [][]byte, _ []uint64) {
	var t int64
	if ss.s.pst != nil {
		t = ss.s.pst.lastSave.Load()
	}
	ss.w.WriteInt(t)
}

// info answers INFO [section]. Redis semantics: INFO <section> returns
// only that section; an unknown section name returns an empty bulk.
// INFO is cold, so lowering the argument may allocate freely.
func (ss *session) info(args [][]byte, _ []uint64) {
	section := ""
	if len(args) == 2 {
		section = strings.ToLower(string(args[1]))
	}
	ss.w.WriteBulkString(ss.s.infoText(section))
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
func (ss *session) scan(args [][]byte, _ []uint64) {
	s, w := ss.s, ss.w
	if len(args) == 3 {
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
		// Reusing the command-word scratch is safe here: dispatch has
		// already looked the word up by the time a handler runs.
		if string(ss.upper(args[2])) != "COUNT" {
			w.WriteError(fmt.Sprintf("ERR syntax error: expected COUNT, got %q", clip(args[2])))
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

// renameCmd returns the RENAME old new handler, or with strict set its
// RENAMESTRICT variant. Same-shard pairs are always the paper's atomic
// Replace — ShardedMap.MoveKey routes them through ReplaceKey, one
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
// window as the move itself). Like every write row, both variants are
// refused while the AOF is degraded — the rename-to-self fast path
// below mutates nothing but gets the same refusal for predictability.
func renameCmd(strict bool) handler {
	return func(ss *session, args [][]byte, ks []uint64) {
		s, w := ss.s, ss.w
		old, new := ks[0], ks[1]
		if old == new {
			// Degenerate rename-to-self: Replace refuses (old != new is
			// part of its contract), but "key exists" would be a
			// misleading error. Match Redis: succeed iff the key exists.
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
		// And an expired-but-unpurged destination must not block the
		// move: it reads as absent everywhere else, so "destination key
		// exists" would be a lie. Purge it before attempting the move.
		s.expireIfDue(new)
		// The source's arming, captured before the move so it can
		// travel: conditional removal afterwards, same discipline as DEL.
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
				// -CROSSSLOT: the operation is well-formed but these two
				// keys cannot be moved atomically; plain RENAME moves them
				// with two-phase (non-atomic) semantics instead.
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
}

// wrongArity is the standard Redis arity error.
func (ss *session) wrongArity(cmd string) {
	ss.w.WriteError(fmt.Sprintf("ERR wrong number of arguments for '%s' command", cmd))
}

// maxEcho caps the client bytes an error reply quotes back, as Redis's
// %.128s does: the reply is built per command, and a command word may
// be as long as the bulk limit.
const maxEcho = 128

// clip bounds raw client bytes for echoing (callers still %q-quote the
// result, so a CR/LF cannot split the reply stream).
func clip(b []byte) []byte {
	return b[:min(len(b), maxEcho)]
}

// upper returns b upper-cased into the session's reused scratch —
// allocation-free once the scratch has grown to the longest command
// word, and it leaves b intact (error replies echo the command as the
// client typed it). The returned slice is valid until the next call.
func (ss *session) upper(b []byte) []byte {
	ss.cmdBuf = upperInto(ss.cmdBuf, b)
	return ss.cmdBuf
}

// upperInto overwrites dst with b upper-cased (ASCII only) and returns
// it; b is never modified.
func upperInto(dst, b []byte) []byte {
	dst = append(dst[:0], b...)
	for i, c := range dst {
		if 'a' <= c && c <= 'z' {
			dst[i] = c - ('a' - 'A')
		}
	}
	return dst
}
