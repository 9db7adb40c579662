package server

import (
	"strconv"
	"sync"
	"time"
)

// Slowlog threshold sentinels for Config.SlowlogSlowerThanUS. The zero
// value selects the DEFAULT threshold, not log-everything: a zero-value
// Config must keep the pinned 0-alloc command paths, and logging every
// command copies its arguments. cmd/nbtried maps the Redis-semantics
// flag (-slowlog-log-slower-than: 0 = everything, negative = off) onto
// these.
const (
	// SlowlogDefaultUS is the threshold used when Config leaves
	// SlowlogSlowerThanUS at zero: 10ms, Redis's default.
	SlowlogDefaultUS = 10_000
	// SlowlogOff disables slowlog recording entirely.
	SlowlogOff = -1
	// SlowlogAll records every command regardless of duration.
	SlowlogAll = -2
)

// slowlogMaxArgs / slowlogMaxArgLen bound what one entry copies: Redis
// keeps 32 arguments of 128 bytes (minus truncation markers); the same
// caps keep a slow MSET from pinning megabytes in the ring.
const (
	slowlogMaxArgs   = 32
	slowlogMaxArgLen = 128
)

// slowlogEntry is one logged command. Args are truncated private copies
// — the originals live in the connection's RESP arena and die with the
// command.
type slowlogEntry struct {
	ID         int64
	UnixTime   int64
	DurationUS int64
	Args       [][]byte
}

// slowlog is the Redis-style ring of the slowest commands. A plain
// mutex, not obs counters: the log only admits commands that already
// took ≥ threshold (10ms default), so the lock is far off the hot path;
// the threshold COMPARISON is the only thing fast commands ever pay.
type slowlog struct {
	thresholdUS int64 // resolved: >=0 active threshold, SlowlogOff, or SlowlogAll
	maxLen      int

	mu     sync.Mutex
	nextID int64
	ring   []slowlogEntry
	head   int // next write position
	size   int
}

func newSlowlog(thresholdUS int64, maxLen int) *slowlog {
	switch {
	case thresholdUS == 0:
		thresholdUS = SlowlogDefaultUS
	case thresholdUS < 0 && thresholdUS != SlowlogAll:
		thresholdUS = SlowlogOff
	}
	if maxLen <= 0 {
		maxLen = 128
	}
	return &slowlog{thresholdUS: thresholdUS, maxLen: maxLen, ring: make([]slowlogEntry, maxLen)}
}

// admits is the hot-path check: one comparison, no lock, no allocation.
func (sl *slowlog) admits(d time.Duration) bool {
	if sl.thresholdUS == SlowlogAll {
		return true
	}
	return sl.thresholdUS >= 0 && d.Microseconds() >= sl.thresholdUS
}

// add records one command. Callers check admits first; add copies and
// truncates the arguments (they are arena-backed and about to die).
func (sl *slowlog) add(d time.Duration, args [][]byte) {
	n := len(args)
	truncated := 0
	if n > slowlogMaxArgs {
		truncated = n - slowlogMaxArgs + 1
		n = slowlogMaxArgs - 1
	}
	cp := make([][]byte, 0, n+1)
	for _, a := range args[:n] {
		if len(a) > slowlogMaxArgLen {
			marker := []byte("... (" + strconv.Itoa(len(a)-slowlogMaxArgLen) + " more bytes)")
			t := make([]byte, 0, slowlogMaxArgLen+len(marker))
			t = append(t, a[:slowlogMaxArgLen]...)
			t = append(t, marker...)
			cp = append(cp, t)
			continue
		}
		cp = append(cp, append([]byte(nil), a...))
	}
	if truncated > 0 {
		cp = append(cp, []byte("... ("+strconv.Itoa(truncated)+" more arguments)"))
	}
	sl.mu.Lock()
	id := sl.nextID
	sl.nextID++
	sl.ring[sl.head] = slowlogEntry{
		ID:         id,
		UnixTime:   time.Now().Unix(),
		DurationUS: d.Microseconds(),
		Args:       cp,
	}
	sl.head = (sl.head + 1) % sl.maxLen
	if sl.size < sl.maxLen {
		sl.size++
	}
	sl.mu.Unlock()
}

// get returns up to n entries, newest first (Redis's SLOWLOG GET order).
// n < 0 means all.
func (sl *slowlog) get(n int) []slowlogEntry {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if n < 0 || n > sl.size {
		n = sl.size
	}
	out := make([]slowlogEntry, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, sl.ring[(sl.head-i+sl.maxLen)%sl.maxLen])
	}
	return out
}

func (sl *slowlog) reset() {
	sl.mu.Lock()
	for i := range sl.ring {
		sl.ring[i] = slowlogEntry{}
	}
	sl.head, sl.size = 0, 0
	sl.mu.Unlock()
}

func (sl *slowlog) len() int {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.size
}

// slowlogCmd implements SLOWLOG GET [n] / RESET / LEN.
func (ss *session) slowlogCmd(args [][]byte, _ []uint64) {
	w := ss.w
	switch string(ss.upper(args[1])) {
	case "GET":
		n := 10
		if len(args) == 3 {
			v, err := strconv.Atoi(string(args[2]))
			if err != nil || v < -1 {
				w.WriteError("ERR count should be >= -1")
				return
			}
			n = v
		} else if len(args) > 3 {
			ss.wrongArity("SLOWLOG")
			return
		}
		entries := ss.s.slog.get(n)
		w.WriteArrayHeader(len(entries))
		for _, e := range entries {
			w.WriteArrayHeader(4)
			w.WriteInt(e.ID)
			w.WriteInt(e.UnixTime)
			w.WriteInt(e.DurationUS)
			w.WriteArrayHeader(len(e.Args))
			for _, a := range e.Args {
				w.WriteBulk(a)
			}
		}
	case "RESET":
		if len(args) != 2 {
			ss.wrongArity("SLOWLOG")
			return
		}
		ss.s.slog.reset()
		w.WriteSimple("OK")
	case "LEN":
		if len(args) != 2 {
			ss.wrongArity("SLOWLOG")
			return
		}
		w.WriteInt(int64(ss.s.slog.len()))
	default:
		w.WriteError("ERR unknown SLOWLOG subcommand (GET, RESET, LEN)")
	}
}
