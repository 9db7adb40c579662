package server

// Key expiry: the server-side half of the expiry subsystem (the index
// itself is internal/expiry; DESIGN.md §12 has the full protocol).
//
// Every read path is lazy: a key whose deadline has passed reads as
// absent and is purged on the spot. The background reaper (reaperLoop)
// is the eager half — it sleeps until the earliest armed deadline and
// range-scans everything due, so expired keys stop occupying memory even
// if nothing ever reads them.
//
// # Why a purge can never eat a live value
//
// The index is loosely consistent with the primary map, so every purge
// is doubly conditional, and the write paths order their two updates to
// make the dangerous interleavings impossible (Go atomics are
// sequentially consistent):
//
//   - purge (purgeExpired): load the primary value FIRST, re-verify the
//     arming is still the expired Entry we saw, then delete the primary
//     key only if it still holds that exact value (identity, via
//     DeleteFunc), and finally remove the arming only if it is still
//     that exact Entry.
//   - plain SET: clear the arming BEFORE storing the new value. A purge
//     that loaded the fresh value re-checks the arming afterwards and
//     finds it gone (or changed) — abort.
//   - SET with TTL (SETEX/GETEX EX): install the new arming BEFORE
//     storing the value. A purge racing the store either sees the new
//     arming (abort) or deletes the OLD value identity — after which
//     the store simply re-inserts the new value under the new arming.
//
// The one residual anomaly: an EXPIRE re-arming a key in the same
// instant a purge commits can lose the key as if the old deadline fired
// first — which it did; the re-arm merely lost the race. Documented in
// DESIGN.md §12 as the price of the lock-free loosely-consistent index.

import (
	"math"
	"strconv"
	"time"

	"nbtrie/internal/expiry"
	"nbtrie/internal/resp"
)

// nowMS is the server's current time in Unix milliseconds.
func (s *Server) nowMS() int64 { return s.clock() }

// expireIfDue is the lazy read-path check: true means k's deadline has
// passed (the caller must treat the key as absent); the expired value is
// purged best-effort on the way out. For keys with no arming this is one
// wait-free allocation-free index load — the cost added to GET/EXISTS/
// MGET — and the clock is only consulted when an arming exists.
func (s *Server) expireIfDue(k uint64) bool {
	e, ok := s.exp.Lookup(k)
	if !ok {
		return false
	}
	if e.DeadlineMS > s.nowMS() {
		return false
	}
	s.purgeExpired(k, e)
	return true
}

// purgeExpired removes k if it still holds the value it held while the
// expired arming e was in force. Returns true iff this call deleted the
// primary value. See the file comment for the ordering argument.
func (s *Server) purgeExpired(k uint64, e expiry.Entry) bool {
	v, ok := s.db.Load(k)
	if !ok {
		// Value already gone (concurrent DEL or purge): drop the
		// orphaned arming if it is still e.
		s.exp.Remove(k, e)
		return false
	}
	if cur, ok := s.exp.Lookup(k); !ok || cur != e {
		return false // re-armed or cleared since the caller's check
	}
	// Identity-conditional delete: same backing array, same length. A
	// value freshly stored by a racing SET is a different allocation and
	// survives. (Zero-length values have no element to take the address
	// of; for them length equality is the whole check.)
	deleted := s.db.DeleteFunc(k, func(have []byte) bool {
		return len(have) == len(v) && (len(v) == 0 || &have[0] == &v[0])
	})
	s.exp.Remove(k, e)
	if deleted {
		s.exp.NoteExpired()
	}
	return deleted
}

// clearTTL drops k's arming, conditional on the arming observed now —
// the plain-SET path (which clears before storing; see the file
// comment). Paths that clear AFTER a delete (DEL, past-deadline
// EXPIRE/GETEX) must instead capture the arming before the delete and
// Remove it conditionally, or a SETEX racing into the gap would have
// its fresh arming clobbered.
func (s *Server) clearTTL(k uint64) {
	if e, ok := s.exp.Lookup(k); ok {
		s.exp.Remove(k, e)
	}
}

// existsLive reports whether k is present and unexpired (purging it if
// due).
func (s *Server) existsLive(k uint64) bool {
	return !s.expireIfDue(k) && s.db.Contains(k)
}

// getLive is Load behind the lazy expiry check.
func (s *Server) getLive(k uint64) ([]byte, bool) {
	if s.expireIfDue(k) {
		return nil, false
	}
	return s.db.Load(k)
}

// reapOnce runs one reaper pass over everything due by now.
func (s *Server) reapOnce() int {
	start := time.Now()
	n := s.exp.Reap(s.nowMS(), s.purgeExpired)
	s.met.reapPass.Record(uint64(time.Since(start).Microseconds()))
	return n
}

// ReapNow forces one synchronous reaper pass and returns the number of
// keys it expired (tests and diagnostics; the background reaper does
// this on its own schedule).
func (s *Server) ReapNow() int { return s.reapOnce() }

// reaperLoop is the background reaper: sleep until the earliest armed
// deadline, scan everything due, repeat. The missed-wakeup protocol with
// Index.Set: Arm(MaxInt64) BEFORE reading Earliest, so any Set landing
// between the read and the sleep sees an "infinitely late" armed value
// and signals Wake; then Arm(deadline) so only genuinely earlier
// deadlines signal while sleeping.
func (s *Server) reaperLoop() {
	defer close(s.reapDone)
	// Opening pass: purge whatever expired before the process started
	// (recovery replays absolute deadlines; some are already past).
	s.reapOnce()
	for {
		s.exp.Arm(math.MaxInt64)
		deadline, ok := s.exp.Earliest()
		if !ok {
			select {
			case <-s.reapStop:
				return
			case <-s.exp.Wake():
				continue
			}
		}
		s.exp.Arm(deadline)
		if wait := deadline - s.nowMS(); wait > 0 {
			t := time.NewTimer(time.Duration(wait) * time.Millisecond)
			select {
			case <-s.reapStop:
				t.Stop()
				return
			case <-s.exp.Wake():
				t.Stop()
				continue // an earlier deadline arrived; re-plan
			case <-t.C:
			}
		}
		s.reapOnce()
	}
}

// ---- wire commands ----

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

// expireCmd returns the EXPIRE/PEXPIRE/EXPIREAT/PEXPIREAT handler: arm
// (or re-arm) a key's deadline, n units of unitMS each, absolute or
// relative to now. Replies :1 when a deadline was set (or the key
// deleted outright for an already-past deadline, Redis semantics), :0
// when the key does not exist. The AOF record is always the absolute
// form — PEXPIREAT key <ms> — so replay is immune to replay-time clocks.
func expireCmd(unitMS int64, absolute bool) handler {
	return func(ss *session, args [][]byte, ks []uint64) {
		s, w, k := ss.s, ss.w, ks[0]
		n, ok := ss.parseIntArg(args[2])
		if !ok {
			return
		}
		now := s.nowMS()
		deadline := deadlineFromArg(now, n, unitMS, absolute)
		if !s.existsLive(k) {
			w.WriteInt(0)
			return
		}
		if deadline <= now {
			// Already past: Redis deletes the key immediately and logs
			// the deletion, not the no-op timeout. Capture the arming
			// BEFORE the delete so the removal is conditional on it — a
			// SETEX racing in after the delete installs a fresh arming
			// this deletion must not clobber (same discipline as DEL).
			s.gate.RLock()
			e, hadTTL := s.exp.Lookup(k)
			deleted := s.db.Delete(k)
			if hadTTL {
				s.exp.Remove(k, e)
			}
			if deleted {
				s.appendMutation([]byte("DEL"), args[1])
			}
			s.gate.RUnlock()
			if deleted {
				s.exp.NoteExpired()
			}
			w.WriteInt(1)
			return
		}
		s.gate.RLock()
		s.exp.Set(k, deadline)
		s.appendMutation([]byte("PEXPIREAT"), args[1], strconv.AppendInt(nil, deadline, 10))
		s.gate.RUnlock()
		w.WriteInt(1)
	}
}

// ttlCmd returns the TTL handler (seconds, rounded to nearest — Redis
// semantics, so 100ms remaining reports 0, not 1) or with inMS the PTTL
// handler (milliseconds): -2 when the key does not exist (or has
// expired), -1 when it has no deadline, else the remaining time.
func ttlCmd(inMS bool) handler {
	return func(ss *session, _ [][]byte, ks []uint64) {
		s, w, k := ss.s, ss.w, ks[0]
		if !s.existsLive(k) {
			w.WriteInt(-2)
			return
		}
		e, ok := s.exp.Lookup(k)
		if !ok {
			w.WriteInt(-1)
			return
		}
		rem := e.DeadlineMS - s.nowMS()
		if rem < 0 {
			rem = 0
		}
		if inMS {
			w.WriteInt(rem)
		} else {
			w.WriteInt((rem + 500) / 1000)
		}
	}
}

// persistCmd implements PERSIST: drop the deadline, reply :1 iff one was
// dropped.
func (ss *session) persistCmd(args [][]byte, ks []uint64) {
	s, w, k := ss.s, ss.w, ks[0]
	if !s.existsLive(k) {
		w.WriteInt(0)
		return
	}
	s.gate.RLock()
	cleared := s.exp.Clear(k)
	if cleared {
		s.appendMutation([]byte("PERSIST"), args[1])
	}
	s.gate.RUnlock()
	if cleared {
		w.WriteInt(1)
	} else {
		w.WriteInt(0)
	}
}

// setex implements SETEX key seconds value: SET + EXPIRE as one command.
// The arming is installed BEFORE the value is stored (see the file
// comment), and the AOF carries the pair SET + PEXPIREAT — the same
// absolute translation Redis uses.
func (ss *session) setex(args [][]byte, ks []uint64) {
	s, w, k := ss.s, ss.w, ks[0]
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
	s.exp.Set(k, deadline)
	s.db.Store(k, v)
	s.appendMutation([]byte("SET"), args[1], v)
	s.appendMutation([]byte("PEXPIREAT"), args[1], strconv.AppendInt(nil, deadline, 10))
	s.gate.RUnlock()
	w.WriteSimple("OK")
}

// getex implements GETEX key [EX s | PX ms | EXAT s | PXAT ms |
// PERSIST]: GET that can atomically re-arm or disarm the deadline.
func (ss *session) getex(args [][]byte, ks []uint64) {
	s, w, k := ss.s, ss.w, ks[0]
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
		doExpire = true
	}
	// The row is not a write (a bare GETEX is a read), so the options
	// that mutate take the degraded-AOF refusal here.
	if (doPersist || doExpire) && s.persistDegraded() {
		s.misconf(w)
		return
	}
	v, found := s.getLive(k)
	if !found {
		w.WriteNull()
		return
	}
	now := s.nowMS()
	switch {
	case doPersist:
		s.gate.RLock()
		if s.exp.Clear(k) {
			s.appendMutation([]byte("PERSIST"), args[1])
		}
		s.gate.RUnlock()
	case doExpire:
		deadline := deadlineFromArg(now, n, unitMS, absolute)
		if deadline <= now {
			// Arming captured BEFORE the delete, removal conditional on
			// it — same race and same discipline as the EXPIRE past-
			// deadline path above.
			s.gate.RLock()
			e, hadTTL := s.exp.Lookup(k)
			if s.db.Delete(k) {
				s.appendMutation([]byte("DEL"), args[1])
				s.exp.NoteExpired()
			}
			if hadTTL {
				s.exp.Remove(k, e)
			}
			s.gate.RUnlock()
		} else {
			s.gate.RLock()
			s.exp.Set(k, deadline)
			s.appendMutation([]byte("PEXPIREAT"), args[1], strconv.AppendInt(nil, deadline, 10))
			s.gate.RUnlock()
		}
	}
	w.WriteBulk(v)
}
