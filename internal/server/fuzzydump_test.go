package server

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nbtrie/internal/persist"
	"nbtrie/internal/resp"
)

// The oracles of the fuzzy dump: BGSAVE walks the live keyspace while
// writers carry on, and recovery replays the rotation's segment over
// whatever the walk read (persist.go has the argument). They hold the
// rules that argument rests on, the key stripes and RENAME's effect
// record, and its conclusion, recovered equals live, in both AOF modes;
// and the rules of the segment's lifecycle: sealed before it is swapped
// out, swapped only under every stripe, and with the AOF off named by
// no manifest before the base swing.

// modeCfg is persistCfg with the AOF on or off.
func modeCfg(dir string, aof bool) Config {
	cfg := persistCfg(dir)
	cfg.Persist.AOF = aof
	return cfg
}

// bothModes runs f as one subtest per AOF mode.
func bothModes(t *testing.T, f func(t *testing.T, aof bool)) {
	for _, aof := range []bool{true, false} {
		t.Run(fmt.Sprintf("aof=%v", aof), func(t *testing.T) { f(t, aof) })
	}
}

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
func TestPersistRenameDuringDump(t *testing.T) { bothModes(t, renameDuringDump) }

func renameDuringDump(t *testing.T, aof bool) {
	// b < c in the lower half of the keyspace, a and d in the upper one.
	// The walk descends into the upper half only after the pause, from
	// the node under the root, which no write here removes while both
	// halves hold keys: it reads the a that SET a 2 inserted.
	upper := func(k string) bool { return keyBits(t, k, 1) == 1 }
	a, d := findKey(t, "a", upper), findKey(t, "d", upper)
	b := findKey(t, "b", func(k string) bool { return !upper(k) })
	c := findKey(t, "c", func(k string) bool { return !upper(k) && mustEncode(t, k) > mustEncode(t, b) })

	dir := t.TempDir()
	cfg := modeCfg(dir, aof)
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
func TestPersistCrashAtBaseSwing(t *testing.T) { bothModes(t, crashAtBaseSwing) }

func crashAtBaseSwing(t *testing.T, aof bool) {
	// a and c in the lower half of the keyspace, b and d in the upper
	// one, so the walk reads b after the pause at a, as in
	// TestPersistRenameDuringDump.
	lower := func(k string) bool { return keyBits(t, k, 1) == 0 }
	upper := func(k string) bool { return !lower(k) }
	a, c := findKey(t, "a", lower), findKey(t, "c", lower)
	b, d := findKey(t, "b", upper), findKey(t, "d", upper)

	dir := t.TempDir()
	cfg := modeCfg(dir, aof)
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
	_, addr2 := startServer(t, modeCfg(crashCopy(t, dir), aof))
	c2 := dial(t, addr2)
	c2.mustNull("GET", a)
	c2.mustBulk("1", "GET", b)
	c2.mustInt(3, "DBSIZE")
}

// crashCopy copies the data directory dir as a crash would leave it:
// the files as they are, every user-space buffer lost.
func crashCopy(t *testing.T, dir string) string {
	t.Helper()
	crash := filepath.Join(t.TempDir(), "crash")
	if err := os.CopyFS(crash, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
	return crash
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
// live ones. With the AOF off only a dump survives a restart, so the
// first dump to write a record once three quarters of the churn is done
// parks its walk until the writers finish: its segment holds the
// churn's tail, and the recipe it commits must recover the live state.
func TestPersistRecoveredEqualsLive(t *testing.T) { bothModes(t, recoveredEqualsLive) }

func recoveredEqualsLive(t *testing.T, aof bool) {
	const nkeys, writers = 64, 4
	ops := 1500
	if testing.Short() {
		ops = 300
	}
	var done atomic.Int32
	var held atomic.Bool
	writersDone := make(chan struct{})
	clk := newFakeClock()
	cfg := clk.cfg(modeCfg(t.TempDir(), aof))
	s, addr := startServer(t, cfg, func(s *Server) {
		if aof {
			return
		}
		s.pst.dumped = func(uint64) {
			if int(done.Load()) >= writers*ops*3/4 && held.CompareAndSwap(false, true) {
				<-writersDone
			}
		}
	})
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
				done.Add(1)
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
	close(writersDone)
	waitSave(t, s)
	if saves == 0 {
		t.Fatal("no BGSAVE started while the writers ran")
	}
	if !aof && !held.Load() {
		t.Fatal("no dump's walk was held across the churn's tail")
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
// and carries the source's deadline. The segment also holds a SETEX as
// it was logged before it was one record (SET, then PEXPIREAT), a
// five-argument MSET, which must not read as SET's deadline form, and a
// SETEX as it is logged now, SET key value PXAT ms.
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
	at := func(d int64) string { return strconv.FormatInt(now+d, 10) }
	w := resp.NewWriter(bufio.NewWriter(f))
	for _, rec := range [][]string{
		{"SET", "a", "1"},
		{"PEXPIREAT", "a", at(5000)},
		{"SET", "b", "stale"},
		{"PEXPIREAT", "b", at(-5000)},
		{"RENAME", "a", "b"},
		{"SET", "a", "2"},
		// SETEX as it was logged before it was one record.
		{"SET", "c", "3"},
		{"PEXPIREAT", "c", at(7000)},
		// Five arguments, two keys: MSET's row, no deadline.
		{"MSET", "d", "4", "e", "5"},
		// SETEX as it is logged now.
		{"SET", "f", "6", "PXAT", at(9000)},
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
	for _, want := range []struct {
		key, val string
		pttl     int64
	}{{"b", "1", 5000}, {"a", "2", -1}, {"c", "3", 7000}, {"d", "4", -1}, {"e", "5", -1}, {"f", "6", 9000}} {
		c.mustBulk(want.val, "GET", want.key)
		c.mustInt(want.pttl, "PTTL", want.key)
	}
	c.mustInt(6, "DBSIZE")
}

// parkDump returns a setup that parks a dump's walk once, after its
// n-th record, while park is set: parked closes, and the walk waits for
// release.
func parkDump(n int32, park *atomic.Bool, parked, release chan struct{}) func(*Server) {
	return func(s *Server) {
		var records atomic.Int32
		s.pst.dumped = func(uint64) {
			if park.Load() && records.Add(1) == n {
				close(parked)
				<-release
			}
		}
	}
}

// TestPersistCrashMidDumpWithoutAOF: with the AOF off, the writes since
// the last dump were never logged, so the segment a BGSAVE logs its
// dump's writes to must stay out of every manifest until the base
// swing. SAVE sees x; SET a is not logged; BGSAVE parks its walk, and
// SET b lands in the dump's segment, which the test puts on disk as a
// full buffer might. A crash then must recover exactly what SAVE saw: a
// manifest naming the segment would recover b without a, a state no
// prefix of the history held. Once the dump completes, its recipe holds
// all three.
func TestPersistCrashMidDumpWithoutAOF(t *testing.T) {
	dir := t.TempDir()
	cfg := modeCfg(dir, false)
	var park atomic.Bool
	parked, release := make(chan struct{}), make(chan struct{})
	s, addr := startServer(t, cfg, parkDump(1, &park, parked, release))
	c := dial(t, addr)
	c.mustSimple("OK", "SET", "x", "1")
	c.mustSimple("OK", "SAVE")
	c.mustSimple("OK", "SET", "a", "1")
	park.Store(true)
	c.mustSimple("Background saving started", "BGSAVE")
	await(t, parked, "the dump to write a record")
	c.mustSimple("OK", "SET", "b", "1")
	if err := s.pst.aof.Load().Sync(); err != nil {
		t.Fatal(err)
	}
	crash := crashCopy(t, dir)
	close(release)
	waitSave(t, s)

	_, addr2 := startServer(t, modeCfg(crash, false))
	c2 := dial(t, addr2)
	c2.mustBulk("1", "GET", "x")
	c2.mustNull("GET", "a")
	c2.mustNull("GET", "b")
	c2.mustInt(1, "DBSIZE")

	_, addr3 := restart(t, s, cfg)
	dial(t, addr3).mustInt(3, "DBSIZE")
}

// TestPersistRestartAcrossAOFModes: a data directory written with the
// AOF off, its recipe a base and the segment of the writes made during
// the dump, restarts with the AOF on and takes that segment into its
// chain; the directory that run leaves restarts with the AOF off. After
// each restart every key's GET and PTTL equal their values before the
// shutdown.
func TestPersistRestartAcrossAOFModes(t *testing.T) {
	clk := newFakeClock()
	dir := t.TempDir()
	off, on := clk.cfg(modeCfg(dir, false)), clk.cfg(modeCfg(dir, true))
	var park atomic.Bool
	parked, release := make(chan struct{}), make(chan struct{})
	s, addr := startServer(t, off, parkDump(4, &park, parked, release))
	c := dial(t, addr)
	c.mustSimple("OK", "MSET", "a", "1", "b", "2", "c", "3")
	c.mustSimple("OK", "SETEX", "t", "100", "x")
	park.Store(true)
	c.mustSimple("Background saving started", "BGSAVE")
	await(t, parked, "the dump to write every key")
	// The walk has passed every key: only the segment holds these.
	c.mustSimple("OK", "SET", "a", "1b")
	c.mustInt(1, "DEL", "b")
	c.mustSimple("OK", "SETEX", "u", "200", "y")
	c.mustInt(1, "EXPIRE", "t", "300")
	c.mustSimple("OK", "RENAME", "c", "d")
	close(release)
	waitSave(t, s)
	m, _, err := persist.ReadManifest(dir)
	if err != nil || len(m.Incrs) != 1 {
		t.Fatalf("manifest %+v (%v): want a base and the dump's segment", m, err)
	}
	if st, err := os.Stat(filepath.Join(dir, m.Incrs[0])); err != nil || st.Size() == 0 {
		t.Fatalf("the dump's segment %s is empty or missing (%v): the premise needs its records", m.Incrs[0], err)
	}

	state := func(c *testClient) string {
		var b strings.Builder
		for _, k := range []string{"a", "b", "c", "d", "t", "u", "v"} {
			fmt.Fprintf(&b, "%s=%s/%s ", k, c.do("GET", k), c.do("PTTL", k))
		}
		return b.String()
	}
	live := state(c)
	s2, addr2 := restart(t, s, on)
	c2 := dial(t, addr2)
	if got := state(c2); got != live {
		t.Fatalf("AOF off, then on: recovered %s; before the shutdown %s", got, live)
	}
	c2.mustSimple("OK", "SET", "a", "1c")
	c2.mustInt(1, "PERSIST", "t")
	c2.mustSimple("OK", "SET", "v", "z")
	live = state(c2)
	_, addr3 := restart(t, s2, off)
	if got := state(dial(t, addr3)); got != live {
		t.Fatalf("AOF on, then off: recovered %s; before the shutdown %s", got, live)
	}
}

// TestPersistSealBeforeSwap: a batch's commit takes no lock, so a batch
// appended to the old segment can be committed once a rotation has
// begun. A session with no connection appends SET k v and does not
// commit.
//   - sealed: in the middle of the rotation the test commits as that
//     batch's boundary would, and copies the directory as a crash would
//     leave it. The commit acknowledged k, so the copy must recover it. A
//     rotation that swapped segments before sealing the old one would let
//     the commit flush the new, empty segment while k's record sat in the
//     old one's buffer.
//   - seal failed: the test closes the segment once, so the rotation's
//     seal fails. The commit after SAVE lands on the new segment and
//     succeeds there, but the failed seal leaves k's record with no
//     durability promise, so the batch must not be acknowledged.
func TestPersistSealBeforeSwap(t *testing.T) {
	t.Run("sealed", func(t *testing.T) {
		dir := t.TempDir()
		var ss *session
		committed, crash := make(chan bool, 1), make(chan string, 1)
		s, addr := startServer(t, persistCfg(dir), func(s *Server) {
			s.pst.rotating = func() {
				committed <- ss.commitAOF()
				crash <- crashCopy(t, dir)
			}
		})
		ss = appendUncommitted(s)
		dial(t, addr).mustSimple("OK", "SAVE")
		if !await(t, committed, "the rotation") {
			t.Fatal("a batch commit during the rotation failed")
		}
		_, addr2 := startServer(t, persistCfg(await(t, crash, "the crash copy")))
		dial(t, addr2).mustBulk("v", "GET", "k")
	})
	t.Run("seal failed", func(t *testing.T) {
		s, addr := startServer(t, persistCfg(t.TempDir()))
		ss := appendUncommitted(s)
		// Until the data directory has a fault-injecting file seam, closing
		// the segment twice is how a test makes a seal fail.
		if err := s.pst.aof.Load().Close(); err != nil {
			t.Fatal(err)
		}
		dial(t, addr).mustSimple("OK", "SAVE")
		if !s.persistDegraded() {
			t.Fatal("a failed seal did not degrade the AOF")
		}
		if ss.commitAOF() {
			t.Fatal("a batch whose segment's seal failed was acknowledged")
		}
	})
}

// appendUncommitted dispatches SET k v on a session with no connection,
// so the batch appends its record and nothing commits it.
func appendUncommitted(s *Server) *session {
	var replies bytes.Buffer
	ss := newSession(s, resp.NewWriter(bufio.NewWriter(&replies)))
	ss.dispatch([][]byte{[]byte("SET"), []byte("k"), []byte("v")})
	return ss
}

// TestPersistSwapWaitsForEveryStripe parks a write between its keyspace
// update and its append while p.aof is swapped. The swap takes every
// stripe, so it waits for the write's append; one that did not would
// seal the segment under the write, whose append then fails.
//   - rotation (AOF on): the failed append would degrade the AOF, and
//     the next write would be refused with -MISCONF.
//   - drain (AOF off): the walk has passed k1 and k2 when SET k1 parks
//     and SET k2 lands; the failed append would leave the new k1 out of
//     the dump's segment, and recovery would hold the later write to k2
//     without the earlier one to k1.
func TestPersistSwapWaitsForEveryStripe(t *testing.T) {
	for _, tc := range []struct {
		name string
		aof  bool
	}{{"rotation", true}, {"drain", false}} {
		t.Run(tc.name, func(t *testing.T) { swapWaitsForEveryStripe(t, tc.aof) })
	}
}

func swapWaitsForEveryStripe(t *testing.T, aof bool) {
	cfg := modeCfg(t.TempDir(), aof)
	var park atomic.Bool
	walked, releaseWalk := make(chan struct{}), make(chan struct{})
	parked, release := make(chan struct{}), make(chan struct{})
	var appends atomic.Int32
	s, addr := startServer(t, cfg, parkDump(2, &park, walked, releaseWalk), func(s *Server) {
		s.pst.beforeAppend = func() {
			if park.Load() && appends.Add(1) == 1 {
				close(parked)
				<-release
			}
		}
	})
	a, b := dial(t, addr), dial(t, addr)
	a.mustSimple("OK", "MSET", "k1", "old", "k2", "old")
	park.Store(true)
	var doneA, save <-chan string
	if aof {
		// A's append is parked before the rotation starts; the walk runs
		// free.
		close(releaseWalk)
		doneA = send(a, "SET", "k1", "new")
		await(t, parked, "SET k1 to reach its append")
		save = send(b, "BGSAVE")
	} else {
		// The walk has passed both keys; A parks, B lands, the walk ends.
		b.mustSimple("Background saving started", "BGSAVE")
		await(t, walked, "the dump to pass k1 and k2")
		doneA = send(a, "SET", "k1", "new")
		await(t, parked, "SET k1 to reach its append")
		b.mustSimple("OK", "SET", "k2", "new")
		close(releaseWalk)
	}
	// Time for a swap that does not wait for A to finish.
	var early string
	select {
	case early = <-save:
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if got := await(t, doneA, "SET k1's reply"); got != "OK" {
		t.Fatalf("SET k1 replied %s, want OK", got)
	}
	if save != nil && early == "" {
		early = await(t, save, "BGSAVE's reply")
	}
	if save != nil && early != "Background saving started" {
		t.Fatalf("BGSAVE replied %s", early)
	}
	waitSave(t, s)
	b.mustSimple("OK", "SET", "k3", "later")
	_, addr2 := restart(t, s, cfg)
	c := dial(t, addr2)
	c.mustBulk("new", "GET", "k1")
	if !aof {
		c.mustBulk("new", "GET", "k2")
	}
}
