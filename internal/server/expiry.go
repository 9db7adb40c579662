package server

// Key expiry: the wire half of the TTL commands. The keyspace itself —
// values, deadlines, lazy and swept purges — is internal/expiry's Index
// (DESIGN.md §12 has the protocol); the handlers here parse arguments,
// call one Index operation, and log the AOF record under the persistence
// gate.
//
// Every read path is lazy: a key whose deadline has passed reads as
// absent and is purged on the spot. The Index's reaper (StartReaper),
// which sweeps the keyspace a bounded batch of leaves per tick, is the
// eager half; the server only starts and stops it.
//
// A key's deadline lives in its leaf, so value and deadline change at one
// linearization point: a purge deletes a key only if its leaf is still
// due, and any write that replaced the leaf in the meantime — SET, SETEX,
// EXPIRE, PERSIST — disarmed it or set its own deadline, so the purge
// cannot eat it. Writes never consult the clock; the handlers that must
// treat an expired key as absent (EXPIRE, PERSIST, GETEX, RENAME) read it
// live first.

import (
	"strconv"

	"nbtrie/internal/expiry"
	"nbtrie/internal/resp"
)

// nowMS is the server's current time in Unix milliseconds.
func (s *Server) nowMS() int64 { return s.clock() }

// ---- wire commands ----

// The names of the AOF records the TTL commands and RENAME write under
// another command's name (package-level, so logging them allocates
// nothing).
var (
	recSET       = []byte("SET")
	recDEL       = []byte("DEL")
	recPEXPIREAT = []byte("PEXPIREAT")
	recPERSIST   = []byte("PERSIST")
	recRENAME    = []byte("RENAME")
)

// parseIntArg parses a signed 64-bit integer argument (seconds or
// milliseconds). Shared by dispatch and AOF replay (PEXPIREAT records).
func parseIntArg(b []byte) (int64, bool) {
	n, err := strconv.ParseInt(string(b), 10, 64)
	return n, err == nil
}

// parseIntArg answers the standard Redis error on failure.
func (ss *session) parseIntArg(b []byte) (int64, bool) {
	n, ok := parseIntArg(b)
	if !ok {
		ss.w.WriteError("ERR value is not an integer or out of range")
	}
	return n, ok
}

// itoa renders n into the session's integer scratch; the result is valid
// until the next call.
func (ss *session) itoa(n int64) []byte {
	ss.num = strconv.AppendInt(ss.num[:0], n, 10)
	return ss.num
}

// deadlineFromArg turns a parsed quantity into an absolute deadline in
// Unix milliseconds, saturating instead of overflowing: n units of
// unitMS each, absolute (EXPIREAT/PEXPIREAT) or relative to now
// (EXPIRE/PEXPIRE).
func deadlineFromArg(now, n, unitMS int64, absolute bool) int64 {
	lim := expiry.MaxDeadlineMS / unitMS
	var ms int64
	switch {
	case n > lim:
		ms = expiry.MaxDeadlineMS
	case n < -lim:
		ms = -expiry.MaxDeadlineMS
	default:
		ms = n * unitMS
	}
	if absolute {
		return ms
	}
	return now + ms
}

// setTTL changes the deadline of key (encoded k), which the caller has
// just read live, and logs the change, under the persistence gate:
// persist drops the deadline; otherwise a deadline at or before now
// deletes the key, as Redis does, and a later one arms it. Every arming
// is logged as PEXPIREAT key <ms>, so replay is immune to replay-time
// clocks. It reports whether the key changed.
func (ss *session) setTTL(key []byte, k uint64, deadline, now int64, persist bool) bool {
	s := ss.s
	s.gate.RLock()
	defer s.gate.RUnlock()
	switch {
	case persist:
		if !s.db.Persist(k) {
			return false
		}
		s.appendMutation(recPERSIST, key)
	case deadline <= now:
		if !s.db.Delete(k) {
			return false
		}
		s.db.NoteExpired()
		s.appendMutation(recDEL, key)
	default:
		if !s.db.Set(k, deadline) {
			return false
		}
		s.appendMutation(recPEXPIREAT, key, ss.itoa(deadline))
	}
	return true
}

// expireCmd returns the EXPIRE/PEXPIRE/EXPIREAT/PEXPIREAT handler: arm
// (or re-arm) a key's deadline, n units of unitMS each, absolute or
// relative to now. Replies :1 when a deadline was set (or the key
// deleted outright for an already-past deadline, Redis semantics), :0
// when the key does not exist.
func expireCmd(unitMS int64, absolute bool) handler {
	return func(ss *session, args [][]byte, ks []uint64) {
		n, ok := ss.parseIntArg(args[2])
		if !ok {
			return
		}
		now := ss.s.nowMS()
		deadline := deadlineFromArg(now, n, unitMS, absolute)
		done := ss.s.db.Contains(ks[0]) && ss.setTTL(args[1], ks[0], deadline, now, false)
		ss.w.WriteInt(b2i(done))
	}
}

// ttlCmd returns the TTL handler (seconds, rounded to nearest — Redis
// semantics, so 100ms remaining reports 0, not 1) or with inMS the PTTL
// handler (milliseconds): -2 when the key does not exist (or has
// expired), -1 when it has no deadline, else the remaining time.
func ttlCmd(inMS bool) handler {
	return func(ss *session, _ [][]byte, ks []uint64) {
		s, w := ss.s, ss.w
		v, ok := s.db.Lookup(ks[0])
		switch {
		case !ok:
			w.WriteInt(-2)
		case v.At == 0:
			w.WriteInt(-1)
		default:
			rem := max(v.DeadlineMS()-s.nowMS(), 0)
			if !inMS {
				rem = (rem + 500) / 1000
			}
			w.WriteInt(rem)
		}
	}
}

// persistCmd implements PERSIST: drop the deadline, reply :1 iff one was
// dropped.
func (ss *session) persistCmd(args [][]byte, ks []uint64) {
	done := ss.s.db.Contains(ks[0]) && ss.setTTL(args[1], ks[0], 0, 0, true)
	ss.w.WriteInt(b2i(done))
}

// setex implements SETEX key seconds value: SET + EXPIRE as one keyspace
// write (Index.StoreDeadline), logged as the pair SET + PEXPIREAT — the
// same absolute translation Redis uses.
func (ss *session) setex(args [][]byte, ks []uint64) {
	s, w := ss.s, ss.w
	sec, ok := ss.parseIntArg(args[2])
	if !ok {
		return
	}
	if sec <= 0 {
		w.WriteError("ERR invalid expire time in 'setex' command")
		return
	}
	deadline := deadlineFromArg(s.nowMS(), sec, 1000, false)
	v := resp.Detach(args[3])
	s.gate.RLock()
	s.db.StoreDeadline(ks[0], v, deadline)
	s.appendMutation(recSET, args[1], v)
	s.appendMutation(recPEXPIREAT, args[1], ss.itoa(deadline))
	s.gate.RUnlock()
	w.WriteSimple("OK")
}

// getex implements GETEX key [EX s | PX ms | EXAT s | PXAT ms |
// PERSIST]: GET that can re-arm or disarm the deadline.
func (ss *session) getex(args [][]byte, ks []uint64) {
	s, w := ss.s, ss.w
	// Parse the option before touching anything so a syntax error
	// mutates nothing.
	var (
		doPersist bool
		doExpire  bool
		unitMS    int64
		absolute  bool
		n         int64
	)
	switch len(args) {
	case 2:
	case 3:
		if string(ss.upper(args[2])) != "PERSIST" {
			w.WriteError("ERR syntax error")
			return
		}
		doPersist = true
	case 4:
		switch string(ss.upper(args[2])) {
		case "EX":
			unitMS, absolute = 1000, false
		case "PX":
			unitMS, absolute = 1, false
		case "EXAT":
			unitMS, absolute = 1000, true
		case "PXAT":
			unitMS, absolute = 1, true
		default:
			w.WriteError("ERR syntax error")
			return
		}
		var okN bool
		if n, okN = ss.parseIntArg(args[3]); !okN {
			return
		}
		if n <= 0 {
			w.WriteError("ERR invalid expire time in 'getex' command")
			return
		}
		doExpire = true
	}
	// The row is not a write (a bare GETEX is a read), so the options
	// that mutate take the degraded-AOF refusal here.
	if (doPersist || doExpire) && s.persistDegraded() {
		s.misconf(w)
		return
	}
	v, found := s.db.Load(ks[0])
	if !found {
		w.WriteNull()
		return
	}
	switch {
	case doPersist:
		ss.setTTL(args[1], ks[0], 0, 0, true)
	case doExpire:
		now := s.nowMS()
		ss.setTTL(args[1], ks[0], deadlineFromArg(now, n, unitMS, absolute), now, false)
	}
	w.WriteBulk(v)
}

// b2i is a boolean reply: :1 or :0.
func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
