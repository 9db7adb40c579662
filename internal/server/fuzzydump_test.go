package server

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nbtrie/internal/persist"
	"nbtrie/internal/resp"
)

// The oracles of the fuzzy dump: with the AOF on, BGSAVE walks the live
// keyspace while writers carry on, and recovery replays the new segment
// over whatever the walk read (persist.go has the argument). They hold
// the two rules that argument rests on, the key stripes and RENAME's
// effect record, and its conclusion: recovered equals live.

// send issues one command on c from a goroutine of its own and returns
// the channel its reply arrives on, rendered, or the I/O error.
func send(c *testClient, args ...string) <-chan string {
	ch := make(chan string, 1)
	go func() {
		v, err := c.try(args...)
		if err != nil {
			ch <- err.Error()
			return
		}
		ch <- v.String()
	}()
	return ch
}

// await receives from ch, failing the test after a few seconds.
func await[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

// TestPersistAOFOrderFollowsTheTrie parks A's write of k between its
// keyspace update and its first append, then lets B's SET k b run.
// Unless B waits for A's append, B stores b and appends it first, A
// appends its records after it, and the segment replays to A's value
// while the live value is b. The key stripes make B wait, so GET and
// PTTL after a restart equal the live ones. A is a SET, or a SETEX,
// whose two records B's could otherwise split.
func TestPersistAOFOrderFollowsTheTrie(t *testing.T) {
	for _, first := range [][]string{{"SET", "k", "a"}, {"SETEX", "k", "100", "a"}} {
		t.Run(first[0], func(t *testing.T) { aofOrderFollowsTheTrie(t, first) })
	}
}

func aofOrderFollowsTheTrie(t *testing.T, first []string) {
	cfg := newFakeClock().cfg(persistCfg(t.TempDir()))
	parked, release := make(chan struct{}), make(chan struct{})
	second := make(chan struct{}, 1)
	var appends atomic.Int32
	s, addr := startServer(t, cfg, func(s *Server) {
		s.pst.beforeAppend = func() {
			switch appends.Add(1) {
			case 1:
				close(parked)
				<-release
			case 2:
				second <- struct{}{}
			}
		}
	})
	a, b := dial(t, addr), dial(t, addr)
	doneA := send(a, first...)
	await(t, parked, "A's write to reach its append")
	doneB := send(b, "SET", "k", "b")
	select {
	case <-second:
		// B reached its append while A is parked: no stripe held it.
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	for _, done := range []<-chan string{doneA, doneB} {
		if got := await(t, done, "a write's reply"); got != "OK" {
			t.Fatalf("write replied %s, want OK", got)
		}
	}
	state := func(c *testClient) string { return c.do("GET", "k").String() + ", PTTL " + c.do("PTTL", "k").String() }
	live := state(a)
	_, addr2 := restart(t, s, cfg)
	if got := state(dial(t, addr2)); got != live {
		t.Fatalf("k after a restart = %s, live it was %s: the AOF logged k's writes out of order", got, live)
	}
}

// TestPersistRenameDuringDump runs the counterexample to logging RENAME
// as the move itself. The dump walk passes b (absent) and pauses after
// c; then RENAME a b and SET a 2 run, and the walk reads a=2. Replaying
// "RENAME a b" over that dump would move 2 into b; the effect record
// (a deleted, b = 1) recovers a=2 and b=1.
func TestPersistRenameDuringDump(t *testing.T) {
	// b < c in the lower half of the keyspace, a and d in the upper one.
	// The walk descends into the upper half only after the pause, from
	// the node under the root, which no write here removes while both
	// halves hold keys: it reads the a that SET a 2 inserted.
	upper := func(k string) bool { return keyBits(t, k, 1) == 1 }
	a, d := findKey(t, "a", upper), findKey(t, "d", upper)
	b := findKey(t, "b", func(k string) bool { return !upper(k) })
	c := findKey(t, "c", func(k string) bool { return !upper(k) && mustEncode(t, k) > mustEncode(t, b) })

	dir := t.TempDir()
	cfg := persistCfg(dir)
	parked, release := make(chan struct{}), make(chan struct{})
	s, addr := startServer(t, cfg, func(s *Server) {
		ck := mustEncode(t, c)
		s.pst.dumped = func(k uint64) {
			if k == ck {
				close(parked)
				<-release
			}
		}
	})
	cl := dial(t, addr)
	cl.mustSimple("OK", "MSET", a, "1", c, "x", d, "y")
	cl.mustSimple("Background saving started", "BGSAVE")
	await(t, parked, "the dump to pass c")
	cl.mustSimple("OK", "RENAME", a, b)
	cl.mustSimple("OK", "SET", a, "2")
	close(release)
	waitSave(t, s)

	// The premise: the dump holds a=2 and no b.
	dumped := dumpContents(t, dir)
	if dumped[a] != "2" || dumped[b] != "" {
		t.Fatalf("the dump holds %q: want a=2 and no b, the walk reading a after the RENAME", dumped)
	}
	_, addr2 := restart(t, s, cfg)
	c2 := dial(t, addr2)
	c2.mustBulk("2", "GET", a)
	c2.mustBulk("1", "GET", b)
	c2.mustBulk("x", "GET", c)
	c2.mustBulk("y", "GET", d)
	c2.mustInt(4, "DBSIZE")
}

// TestPersistCrashAtBaseSwing crashes the server the moment a live dump
// becomes the base, with a write the walk read on both sides still in
// the segment's buffer: the walk reads a=1, RENAME a b runs on a session
// that never reaches a batch commit, and the walk reads b=1. Unless the
// segment is synced before the base swing, the directory as the crash
// leaves it recovers both a and b, a state that never existed.
func TestPersistCrashAtBaseSwing(t *testing.T) {
	// a and c in the lower half of the keyspace, b and d in the upper
	// one, so the walk reads b after the pause at a, as in
	// TestPersistRenameDuringDump.
	lower := func(k string) bool { return keyBits(t, k, 1) == 0 }
	upper := func(k string) bool { return !lower(k) }
	a, c := findKey(t, "a", lower), findKey(t, "c", lower)
	b, d := findKey(t, "b", upper), findKey(t, "d", upper)

	dir := t.TempDir()
	cfg := persistCfg(dir)
	parked, release := make(chan struct{}), make(chan struct{})
	s, addr := startServer(t, cfg, func(s *Server) {
		ka := mustEncode(t, a)
		s.pst.dumped = func(k uint64) {
			if k == ka {
				close(parked)
				<-release
			}
		}
	})
	cl := dial(t, addr)
	cl.mustSimple("OK", "MSET", a, "1", c, "x", d, "y")
	cl.mustSimple("Background saving started", "BGSAVE")
	await(t, parked, "the dump to pass a")
	// A session with no connection appends its records and never
	// commits them: only the dump can put them on disk.
	var replies bytes.Buffer
	w := resp.NewWriter(bufio.NewWriter(&replies))
	newSession(s, w).dispatch([][]byte{[]byte("RENAME"), []byte(a), []byte(b)})
	if err := w.Flush(); err != nil || replies.String() != "+OK\r\n" {
		t.Fatalf("RENAME replied %q (%v), want +OK", replies.String(), err)
	}
	close(release)
	waitSave(t, s)

	// The premise: the dump holds both sides of the RENAME.
	if dumped := dumpContents(t, dir); dumped[a] != "1" || dumped[b] != "1" {
		t.Fatalf("the dump holds %q: want a=1 and b=1, the walk reading b after the RENAME", dumped)
	}
	// The crash: the directory as it is, the segment's buffer lost.
	crash := filepath.Join(t.TempDir(), "crash")
	if err := os.CopyFS(crash, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
	_, addr2 := startServer(t, persistCfg(crash))
	c2 := dial(t, addr2)
	c2.mustNull("GET", a)
	c2.mustBulk("1", "GET", b)
	c2.mustInt(3, "DBSIZE")
}

// dumpContents reads the base dump dir's manifest names, value by wire
// key.
func dumpContents(t *testing.T, dir string) map[string]string {
	t.Helper()
	m, ok, err := persist.ReadManifest(dir)
	if err != nil || !ok || m.Base == "" {
		t.Fatalf("manifest: %+v, ok=%v, err=%v; want one naming a base dump", m, ok, err)
	}
	f, err := os.Open(filepath.Join(dir, m.Base))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got := map[string]string{}
	err = persist.ReadDump(f, resp.DefaultLimits.MaxBulkLen, func(k, v []byte, _ uint64) error {
		got[string(k)] = string(v)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestPersistRecoveredEqualsLive churns SET, MSET, SETEX, DEL, RENAME,
// EXPIRE and PERSIST over 64 keys from four connections while BGSAVE
// loops, with the clock frozen so that no deadline passes. At
// quiescence every key's value and PTTL after a restart must equal the
// live ones.
func TestPersistRecoveredEqualsLive(t *testing.T) {
	clk := newFakeClock()
	cfg := clk.cfg(persistCfg(t.TempDir()))
	s, addr := startServer(t, cfg)
	const nkeys, writers = 64, 4
	ops := 1500
	if testing.Short() {
		ops = 300
	}
	key := func(r *rand.Rand) string { return "k" + strconv.Itoa(r.IntN(nkeys)) }

	var wg sync.WaitGroup
	var running atomic.Int32
	running.Store(writers)
	for w := 0; w < writers; w++ {
		c := dial(t, addr)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer running.Add(-1)
			r := rand.New(rand.NewPCG(uint64(w), 55))
			for i := 0; i < ops; i++ {
				v := fmt.Sprintf("w%d.%d", w, i)
				var cmd []string
				switch r.IntN(9) {
				case 0, 1:
					cmd = []string{"SET", key(r), v}
				case 2:
					cmd = []string{"MSET", key(r), v, key(r), v}
				case 3:
					cmd = []string{"SETEX", key(r), strconv.Itoa(1 + r.IntN(1000)), v}
				case 4:
					cmd = []string{"DEL", key(r), key(r)}
				case 5, 6:
					cmd = []string{"RENAME", key(r), key(r)}
				case 7:
					// Now and then a deadline already past: a delete.
					cmd = []string{"EXPIRE", key(r), strconv.Itoa(r.IntN(1000) - 50)}
				case 8:
					cmd = []string{"PERSIST", key(r)}
				}
				if _, err := c.try(cmd...); err != nil {
					t.Errorf("%v: %v", cmd, err)
					return
				}
			}
		}()
	}
	admin := dial(t, addr)
	saves := 0
	for running.Load() > 0 {
		if v := admin.do("BGSAVE"); v.Kind == resp.TypeSimple {
			saves++
		}
		time.Sleep(2 * time.Millisecond)
	}
	wg.Wait()
	waitSave(t, s)
	if saves == 0 {
		t.Fatal("no BGSAVE started while the writers ran")
	}

	type state struct{ val, pttl string }
	read := func(c *testClient) map[string]state {
		got := map[string]state{}
		for i := 0; i < nkeys; i++ {
			k := "k" + strconv.Itoa(i)
			got[k] = state{c.do("GET", k).String(), c.do("PTTL", k).String()}
		}
		return got
	}
	live := read(admin)
	s2, addr2 := restart(t, s, cfg)
	recovered := read(dial(t, addr2))
	for k, want := range live {
		if got := recovered[k]; got != want {
			t.Errorf("%s after a restart: GET %s, PTTL %s; live it was GET %s, PTTL %s", k, got.val, got.pttl, want.val, want.pttl)
		}
	}
	if err := s2.DB().Validate(); err != nil {
		t.Fatalf("recovered keyspace invalid: %v", err)
	}
	t.Logf("%d BGSAVEs started under %d writers × %d ops", saves, writers, ops)
}

// TestPersistReplaysOldRenameRecords recovers a segment of the records
// a server wrote before RENAME was logged as its effect: RENAME old new
// with no value, which replay re-runs as the move. The destination it
// meets holds a key that had expired at serve time; the move drops it
// and carries the source's deadline.
func TestPersistReplaysOldRenameRecords(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	cfg := clk.cfg(persistCfg(dir))
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	m, ok, err := persist.ReadManifest(dir)
	if err != nil || !ok || len(m.Incrs) == 0 {
		t.Fatalf("manifest: %+v, ok=%v, err=%v; want one naming a segment", m, ok, err)
	}
	f, err := os.OpenFile(filepath.Join(dir, m.Incrs[len(m.Incrs)-1]), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	now := clk.now()
	w := resp.NewWriter(bufio.NewWriter(f))
	for _, rec := range [][]string{
		{"SET", "a", "1"},
		{"PEXPIREAT", "a", strconv.FormatInt(now+5000, 10)},
		{"SET", "b", "stale"},
		{"PEXPIREAT", "b", strconv.FormatInt(now-5000, 10)},
		{"RENAME", "a", "b"},
		{"SET", "a", "2"},
	} {
		w.WriteCommandString(rec...)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	_, addr := startServer(t, cfg)
	c := dial(t, addr)
	c.mustBulk("1", "GET", "b")
	c.mustInt(5000, "PTTL", "b")
	c.mustBulk("2", "GET", "a")
	c.mustInt(-1, "PTTL", "a")
	c.mustInt(2, "DBSIZE")
}
