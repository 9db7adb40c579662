package server

import (
	"fmt"
	"strconv"
	"strings"
	"time"

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
	// (nil: the command is never logged under its own name). logMax,
	// when set, is one more argument count replay accepts: the record
	// RENAME logs carries the moved value and deadline, too, and SETEX's
	// record is SET key value PXAT ms.
	replay func(s *Server, args [][]byte, ks []uint64) error
	logMax int
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
		// Each key command is one operation of the keyspace, expiry.Index,
		// over one Map whose leaves hold value and deadline.
		// → Load: one wait-free descent; the clock is read only for an armed key.
		{name: "GET", min: 2, max: 2, first: 1, last: 1, step: 1, run: (*session).get},
		// → Store: one Swap (lock-free upsert); SET is MSET with one pair.
		{name: "SET", min: 3, max: 3, first: 1, last: 1, step: 1, write: true, run: (*session).set, replay: (*Server).replaySet, logMax: 5},
		// → n × Delete: one LoadAndDelete each (lock-free).
		{name: "DEL", min: 2, max: -1, first: 1, last: -1, step: 1, write: true, run: (*session).del, replay: (*Server).replayDel},
		// → n × Contains (wait-free).
		{name: "EXISTS", min: 2, max: -1, first: 1, last: -1, step: 1, run: (*session).exists},
		// → n × Load / n × Store: each key individually linearizable, the
		// batch not atomic (the trie has no multi-key transaction).
		{name: "MGET", min: 2, max: -1, first: 1, last: -1, step: 1, run: (*session).mget},
		{name: "MSET", min: 3, max: -1, first: 1, last: -1, step: 2, write: true, run: (*session).set, replay: (*Server).replaySet},
		{name: "PING", min: 1, max: 2, run: (*session).ping},
		{name: "QUIT", min: 1, max: -1, run: (*session).quitCmd},
		// → Len (the trie's atomic counter).
		{name: "DBSIZE", min: 1, max: 1, run: (*session).dbsize},
		// → Ascend over the live trie from the cursor.
		{name: "SCAN", min: 2, max: 4, run: (*session).scan},
		// → Rename: Map.ReplaceKey, the paper's atomic Replace, wherever
		// the keys lie; logged as its effect, RENAME old new value deadline.
		{name: "RENAME", min: 3, max: 3, first: 1, last: 2, step: 1, write: true, run: (*session).rename, replay: (*Server).replayRename, logMax: 5},
		// The TTL commands (expiry.go): EXPIRE and PERSIST swap the leaf for
		// one with the same bytes and a new deadline; every EXPIRE variant
		// is logged as PEXPIREAT.
		{name: "EXPIRE", min: 3, max: 3, first: 1, last: 1, step: 1, write: true, run: expireCmd(1000, false)},
		{name: "PEXPIRE", min: 3, max: 3, first: 1, last: 1, step: 1, write: true, run: expireCmd(1, false)},
		{name: "EXPIREAT", min: 3, max: 3, first: 1, last: 1, step: 1, write: true, run: expireCmd(1000, true)},
		{name: "PEXPIREAT", min: 3, max: 3, first: 1, last: 1, step: 1, write: true, run: expireCmd(1, true), replay: (*Server).replayPexpireat},
		{name: "TTL", min: 2, max: 2, first: 1, last: 1, step: 1, run: ttlCmd(false)},
		{name: "PTTL", min: 2, max: 2, first: 1, last: 1, step: 1, run: ttlCmd(true)},
		{name: "PERSIST", min: 2, max: 2, first: 1, last: 1, step: 1, write: true, run: (*session).persistCmd, replay: (*Server).replayPersist},
		// → StoreDeadline: one Swap of value and deadline together; logged
		// as one record, SET key value PXAT ms.
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
func (c *command) keys(args [][]byte, ks []uint64) ([]uint64, error) {
	if c.first == 0 {
		return ks, nil
	}
	last := c.last
	if last < 0 {
		last += len(args)
	}
	for i := c.first; i <= last; i += c.step {
		k, err := BytesKeyer{}.Encode(args[i])
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
// (ReadCommandReuse) and are valid only for the current command.
// Dispatch copies nothing out of the arena: a SET/MSET/SETEX value goes
// to the keyspace as an arena view, and the leaf that stores it copies
// the bytes into itself (expiry.Value), in the leaf's own allocation.
// Everything else — command word, keys, reply bytes — is consumed
// before the next command overwrites it.
type session struct {
	s *Server
	w *resp.Writer

	ks     []uint64 // encoded-key scratch, reused across commands
	cmdBuf []byte   // upper's scratch: the upcased command word
	num    []byte   // itoa's scratch: an integer argument of an AOF record
	quit   bool     // set by QUIT: the connection closes after this reply
	wrote  bool     // the batch appended a record since its last commitAOF
}

func newSession(s *Server, w *resp.Writer) *session {
	return &session{s: s, w: w}
}

// dispatch answers one command into ss.w (the caller flushes). It
// returns true when the connection should close (QUIT). Unknown
// commands and arity/key errors are ordinary RESP errors: the
// connection survives, only protocol-level framing errors are fatal
// (handled by the caller).
//
// This wrapper owns per-command accounting: it finds the command's row,
// times the inline execution, and records the latency sample (which is
// also the call) and any error replies into the metrics registry, plus
// the slowlog threshold check — all wait-free and allocation-free (the
// map lookup's []byte→string conversion is elided, time.Now is a vDSO
// read; the slowlog only copies arguments for commands that already
// blew the threshold).
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
	ss.s.met.record(int(ci), d, ss.w.ErrorCount()-errsBefore)
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
	ks, err := c.keys(args, ss.ks[:0])
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
		if v, found := ss.s.db.Load(k); found {
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
// follows: take the keys' stripes, update the keyspace, then append the
// AOF record. The stripes keep the keyspace update and the record on
// one side of any dump rotation, and each key's records in the order of
// its updates (see persist.go); the AOF append copies args into its own
// buffer synchronously, so arena-backed keys are safe to pass through. A
// store discards the key's deadline in the same Swap.
func (ss *session) set(args [][]byte, ks []uint64) {
	s := ss.s
	m := s.lockKeys(ks...)
	for i, k := range ks {
		// The value is arena-backed and dies with this command; the leaf
		// keeps its own copy.
		s.db.Store(k, args[2+2*i])
	}
	ss.appendMutation(args...)
	s.unlockKeys(m)
	ss.w.WriteSimple("OK")
}

func (ss *session) del(args [][]byte, ks []uint64) {
	s := ss.s
	n := int64(0)
	m := s.lockKeys(ks...)
	for _, k := range ks {
		if s.db.Delete(k) {
			n++
		}
	}
	if n > 0 {
		// Replaying a DEL of the keys that were already absent is a
		// no-op, so the whole command is one record.
		ss.appendMutation(args...)
	}
	s.unlockKeys(m)
	ss.w.WriteInt(n)
}

func (ss *session) exists(_ [][]byte, ks []uint64) {
	n := int64(0)
	for _, k := range ks {
		if ss.s.db.Contains(k) {
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

// scanDefaultCount is SCAN's page size when no COUNT is given: Redis's
// fixed 10.
const scanDefaultCount = 10

// scan implements SCAN cursor [COUNT n] as a walk of the live trie in
// ascending trie-key order (BytesKeyer's mix order). The wire cursor is
// the trie key the next page starts from, plus 1, so that 0 means both
// "start" and "done"; a page is one Ascend from there, and the server
// keeps nothing between pages. The guarantee is Redis's (DESIGN.md §8):
// a key present for the whole walk is returned exactly once, because
// each page resumes strictly above the last key of the one before; a key
// never present is never returned; a key written mid-walk may or may not
// be. A cursor past the key space yields an empty page and cursor 0.
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
	count := scanDefaultCount
	if len(args) == 4 {
		// Reusing the command-word scratch is safe here: dispatch has
		// already looked the word up by the time a handler runs.
		if string(ss.upper(args[2])) != "COUNT" {
			w.WriteError(fmt.Sprintf("ERR syntax error: expected COUNT, got %q", clip(args[2])))
			return
		}
		if count, err = strconv.Atoi(string(args[3])); err != nil || count < 1 {
			w.WriteError("ERR COUNT must be a positive integer")
			return
		}
	}
	// Clamp to the resolved array limit before sizing anything: an
	// unclamped COUNT would drive the page allocation (and the reply
	// array) arbitrarily large, and a page over the limit would be
	// rejected by every consumer of the shared codec.
	count = min(count, s.cfg.Limits.MaxArrayLen)

	keys := make([][]byte, 0, count)
	var next uint64
	for k, v := range s.db.Ascend(max(cursor, 1) - 1) {
		if len(keys) == count {
			next = k + 1 // trie keys are 59 bits: k+1 is never 0
			break
		}
		// Lazy expiry applies to SCAN too: a due key is skipped and
		// purged if it still holds that arming.
		if s.db.Expired(k, v) {
			continue
		}
		keys = append(keys, BytesKeyer{}.AppendDecode(nil, k))
	}

	w.WriteArrayHeader(2)
	w.WriteBulk(strconv.AppendUint(nil, next, 10))
	w.WriteArrayHeader(len(keys))
	for _, key := range keys {
		w.WriteBulk(key)
	}
}

// rename is RENAME old new: the paper's atomic Replace, one
// linearization point moving the value — and, inside the leaf, its
// deadline — from old to new, wherever the two keys lie.
//
// An existing destination is an error, not an overwrite: Replace is
// insert-if-absent by definition, and silently deleting the destination
// first would need a second linearization point. Like every write row,
// RENAME is refused while the AOF is degraded — the rename-to-self fast
// path below mutates nothing but gets the same refusal for
// predictability.
func (ss *session) rename(args [][]byte, ks []uint64) {
	s, w := ss.s, ss.w
	old, new := ks[0], ks[1]
	// An expired-but-unpurged source must rename as absent.
	if !s.db.Contains(old) {
		w.WriteError("ERR no such key")
		return
	}
	if old == new {
		// Degenerate rename-to-self: Replace refuses (old != new is part
		// of its contract), but "key exists" would be a misleading error.
		// Match Redis: succeed iff the key exists.
		w.WriteSimple("OK")
		return
	}
	// And an expired-but-unpurged destination must not block the move:
	// it reads as absent everywhere else, so "destination key exists"
	// would be a lie. The live read purges it.
	s.db.Contains(new)

	m := s.lockKeys(ks...)
	moved := s.db.Rename(old, new)
	if moved && s.logging() {
		// One AOF record for the move's effect: old deleted, new holding
		// the leaf the Replace moved. A raw read finds that leaf, since
		// no logged write reaches new while its stripe is held; only a
		// purge can have removed it (it was due), and then the effect is
		// both keys absent.
		if v, ok := s.db.Peek(new); ok {
			ss.appendMutation(recRENAME, args[1], args[2], v.B, ss.itoa(v.DeadlineMS()))
		} else {
			ss.appendMutation(recDEL, args[1], args[2])
		}
	}
	s.unlockKeys(m)
	if moved {
		w.WriteSimple("OK")
		return
	}
	// Distinguish the two failure modes for the error message only; the
	// check is best-effort under concurrency, the refusal itself was
	// decided atomically by Replace.
	if !s.db.Contains(old) {
		w.WriteError("ERR no such key")
	} else {
		w.WriteError("ERR destination key exists (RENAME is insert-if-absent, like the trie's atomic Replace; DEL it first to overwrite)")
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
