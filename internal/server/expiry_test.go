package server

import (
	"bufio"
	"bytes"
	"io"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nbtrie/internal/resp"
)

// fakeClock is the injectable millisecond clock the expiry tests drive
// by hand; it starts well away from zero so deadline arithmetic never
// brushes the clamp floor.
type fakeClock struct{ ms atomic.Int64 }

func newFakeClock() *fakeClock {
	c := &fakeClock{}
	c.ms.Store(1_000_000)
	return c
}
func (c *fakeClock) now() int64       { return c.ms.Load() }
func (c *fakeClock) advance(ms int64) { c.ms.Add(ms) }
func (c *fakeClock) cfg(base Config) Config {
	base.Clock = c.now
	return base
}

func TestServerExpireTTLBasics(t *testing.T) {
	clk := newFakeClock()
	_, addr := startServer(t, clk.cfg(Config{}))
	c := dial(t, addr)

	c.mustSimple("OK", "SET", "k", "v")
	c.mustInt(-1, "TTL", "k") // exists, no deadline
	c.mustInt(-2, "TTL", "nope")
	c.mustInt(0, "EXPIRE", "nope", "100")

	c.mustInt(1, "EXPIRE", "k", "100")
	c.mustInt(100, "TTL", "k")
	c.mustInt(100_000, "PTTL", "k")

	clk.advance(500)
	c.mustInt(100, "TTL", "k") // 99.5s rounds to nearest: 100
	c.mustInt(99_500, "PTTL", "k")
	c.mustBulk("v", "GET", "k") // not yet due

	clk.advance(99_500) // exactly at the deadline: due
	c.mustNull("GET", "k")
	c.mustInt(0, "EXISTS", "k")
	c.mustInt(-2, "TTL", "k")
	c.mustInt(0, "DBSIZE") // the lazy purge removed the value, not just hid it
}

func TestServerExpireVariants(t *testing.T) {
	clk := newFakeClock()
	_, addr := startServer(t, clk.cfg(Config{}))
	c := dial(t, addr)

	c.mustSimple("OK", "MSET", "a", "1", "b", "2", "c", "3", "d", "4")
	c.mustInt(1, "PEXPIRE", "a", "1500")
	c.mustInt(2, "TTL", "a") // 1.5s rounds to nearest: 2
	now := clk.now()
	c.mustInt(1, "EXPIREAT", "b", itoa((now+30_000)/1000))
	c.mustInt(30, "TTL", "b")
	c.mustInt(1, "PEXPIREAT", "c", itoa(now+2000))
	c.mustInt(2000, "PTTL", "c")

	// Already-past deadline: the key is deleted immediately, reply :1.
	c.mustInt(1, "EXPIRE", "d", "-5")
	c.mustNull("GET", "d")
	c.mustInt(3, "DBSIZE")

	// Re-arming replaces the deadline outright (no min/max games).
	c.mustInt(1, "EXPIRE", "a", "500")
	c.mustInt(500_000, "PTTL", "a")

	// Bad argument: standard Redis error, nothing armed.
	c.mustErrContain("not an integer", "EXPIRE", "a", "soon")
	c.mustInt(500_000, "PTTL", "a")
	// Arity errors name the command as the table spells it, whatever
	// the client typed.
	c.mustErrContain("wrong number of arguments for 'EXPIRE' command", "expire", "a")
}

func TestServerSetexGetex(t *testing.T) {
	clk := newFakeClock()
	_, addr := startServer(t, clk.cfg(Config{}))
	c := dial(t, addr)

	c.mustSimple("OK", "SETEX", "s", "60", "cached")
	c.mustBulk("cached", "GET", "s")
	c.mustInt(60, "TTL", "s")
	c.mustErrContain("invalid expire time", "SETEX", "s", "0", "x")
	c.mustErrContain("invalid expire time", "SETEX", "s", "-3", "x")
	c.mustInt(60, "TTL", "s") // refused SETEX changed nothing

	// GETEX reads and re-arms in one command.
	c.mustBulk("cached", "GETEX", "s", "EX", "120")
	c.mustInt(120, "TTL", "s")
	c.mustBulk("cached", "GETEX", "s", "PX", "5000")
	c.mustInt(5000, "PTTL", "s")
	c.mustBulk("cached", "GETEX", "s", "PXAT", itoa(clk.now()+9000))
	c.mustInt(9000, "PTTL", "s")
	c.mustBulk("cached", "GETEX", "s") // bare GETEX: read, deadline untouched
	c.mustInt(9000, "PTTL", "s")
	c.mustBulk("cached", "GETEX", "s", "PERSIST")
	c.mustInt(-1, "TTL", "s")

	// A non-positive expire time is refused and changes nothing.
	for _, opt := range []string{"EX", "PX", "EXAT", "PXAT"} {
		for _, n := range []string{"0", "-5"} {
			c.mustErrContain("invalid expire time in 'getex' command", "GETEX", "s", opt, n)
		}
	}
	c.mustInt(-1, "TTL", "s")
	c.mustBulk("cached", "GET", "s")

	// GETEX with a past deadline deletes, like EXPIRE.
	c.mustBulk("cached", "GETEX", "s", "EXAT", "1")
	c.mustNull("GET", "s")

	c.mustNull("GETEX", "absent", "EX", "10")
	c.mustErrContain("syntax error", "GETEX", "s", "NEVER")
	c.mustErrContain("syntax error", "GETEX", "s", "WHENEVER", "10")
}

func TestServerPersistCommand(t *testing.T) {
	clk := newFakeClock()
	_, addr := startServer(t, clk.cfg(Config{}))
	c := dial(t, addr)

	c.mustSimple("OK", "SET", "k", "v")
	c.mustInt(0, "PERSIST", "k") // no deadline to drop
	c.mustInt(1, "EXPIRE", "k", "100")
	c.mustInt(1, "PERSIST", "k")
	c.mustInt(-1, "TTL", "k")
	c.mustInt(0, "PERSIST", "absent")

	// The dropped deadline really is gone: time passes, the key stays.
	clk.advance(500_000)
	c.mustBulk("v", "GET", "k")
}

func TestServerWriteCommandsClearTTL(t *testing.T) {
	clk := newFakeClock()
	_, addr := startServer(t, clk.cfg(Config{}))
	c := dial(t, addr)

	// Plain SET discards the old arming (Redis semantics).
	c.mustSimple("OK", "SETEX", "k", "10", "v1")
	c.mustSimple("OK", "SET", "k", "v2")
	c.mustInt(-1, "TTL", "k")
	clk.advance(60_000)
	c.mustBulk("v2", "GET", "k")

	// MSET too.
	c.mustInt(1, "EXPIRE", "k", "10")
	c.mustSimple("OK", "MSET", "k", "v3", "j", "x")
	c.mustInt(-1, "TTL", "k")

	// DEL drops the arming with the value: a later re-SET is clean.
	c.mustInt(1, "EXPIRE", "k", "10")
	c.mustInt(1, "DEL", "k")
	c.mustSimple("OK", "SET", "k", "v4")
	c.mustInt(-1, "TTL", "k")
	clk.advance(60_000)
	c.mustBulk("v4", "GET", "k")
}

func TestServerScanSkipsExpired(t *testing.T) {
	clk := newFakeClock()
	_, addr := startServer(t, clk.cfg(Config{}))
	c := dial(t, addr)

	c.mustSimple("OK", "MSET", "10", "a", "20", "b", "30", "c")
	c.mustInt(1, "EXPIRE", "20", "5")
	clk.advance(10_000)

	v := c.do("SCAN", "0", "COUNT", "100")
	if v.Kind != resp.TypeArray || len(v.Array) != 2 {
		t.Fatalf("SCAN reply shape: %s", v)
	}
	var got []string
	for _, k := range v.Array[1].Array {
		got = append(got, string(k.Str))
	}
	want := []string{"10", "30"}
	sortByEncode(t, want)
	if !slices.Equal(got, want) {
		t.Fatalf("SCAN over a half-expired keyspace = %v, want %v", got, want)
	}
}

func TestServerRenameMovesTTL(t *testing.T) {
	clk := newFakeClock()
	_, addr := startServer(t, clk.cfg(Config{}))
	c := dial(t, addr)
	// dst is near k100 (nearKey); far lies in the other half of the
	// keyspace from dst, and far2 from k700.
	dst := nearKey(t, "k100")
	far := farKey(t, dst)
	far2 := farKey(t, "k700", far)

	// A rename between near keys carries the deadline.
	c.mustSimple("OK", "SET", "k100", "v")
	c.mustInt(1, "PEXPIRE", "k100", "30000")
	clk.advance(10_000)
	c.mustSimple("OK", "RENAME", "k100", dst)
	c.mustInt(20_000, "PTTL", dst)
	c.mustInt(-2, "TTL", "k100")

	// So does a rename across the halves: the same atomic Replace.
	c.mustSimple("OK", "RENAME", dst, far)
	c.mustInt(20_000, "PTTL", far)
	c.mustInt(-2, "TTL", dst)

	// And the moved deadline still fires.
	clk.advance(20_000)
	c.mustNull("GET", far)

	// An expired source renames as absent.
	c.mustSimple("OK", "SET", "k300", "w")
	c.mustInt(1, "PEXPIRE", "k300", "50")
	clk.advance(51)
	c.mustErrContain("no such key", "RENAME", "k300", "k400")

	// An expired-but-unpurged destination must not block the rename: it
	// reads as absent everywhere else, so the move purges it and
	// proceeds instead of answering "destination key exists".
	c.mustSimple("OK", "MSET", "k500", "live", "k600", "dying")
	c.mustInt(1, "PEXPIRE", "k600", "50")
	clk.advance(51)
	c.mustSimple("OK", "RENAME", "k500", "k600") // near keys
	c.mustBulk("live", "GET", "k600")
	c.mustInt(-1, "TTL", "k600") // the dead destination's arming is gone

	c.mustSimple("OK", "MSET", "k700", "live2", far2, "dying2")
	c.mustInt(1, "PEXPIRE", far2, "50")
	clk.advance(51)
	c.mustSimple("OK", "RENAME", "k700", far2) // across the halves
	c.mustBulk("live2", "GET", far2)
	c.mustInt(-1, "TTL", far2)
}

// TestServerReaperPurges uses the real wall clock: short TTLs must
// vanish from DBSIZE (which takes no lazy-expiry path) without any
// client ever touching the keys again — that is the reaper working.
func TestServerReaperPurges(t *testing.T) {
	_, addr := startServer(t, Config{})
	c := dial(t, addr)

	c.mustSimple("OK", "MSET", "a", "1", "b", "2", "keep", "3")
	c.mustInt(1, "PEXPIRE", "a", "30")
	c.mustInt(1, "PEXPIRE", "b", "60")

	deadline := time.Now().Add(5 * time.Second)
	for {
		if v := c.do("DBSIZE"); v.Kind == resp.TypeInt && v.Int == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("reaper did not purge: DBSIZE = %s", c.do("DBSIZE"))
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.mustBulk("3", "GET", "keep")

	info := c.do("INFO")
	if !strings.Contains(string(info.Str), "expired_keys:2") {
		t.Fatalf("INFO lacks expired_keys:2:\n%s", info.Str)
	}
}

// TestServerReapNow drives the reaper synchronously against the fake
// clock: deadlines pass with no reads and no wall time, one forced pass
// purges exactly what is due.
func TestServerReapNow(t *testing.T) {
	clk := newFakeClock()
	s, addr := startServer(t, clk.cfg(Config{}))
	c := dial(t, addr)

	c.mustSimple("OK", "MSET", "a", "1", "b", "2", "c", "3")
	c.mustInt(1, "PEXPIRE", "a", "1000")
	c.mustInt(1, "PEXPIRE", "b", "2000")
	if n := s.db.Reap(clk.now()); n != 0 {
		t.Fatalf("Reap before any deadline = %d", n)
	}
	clk.advance(1500)
	if n := s.db.Reap(clk.now()); n != 1 {
		t.Fatalf("Reap past a's deadline = %d, want 1", n)
	}
	c.mustInt(2, "DBSIZE")
	clk.advance(1000)
	if n := s.db.Reap(clk.now()); n != 1 {
		t.Fatalf("Reap past b's deadline = %d, want 1", n)
	}
	c.mustInt(1, "DBSIZE")
	c.mustBulk("3", "GET", "c")
}

// TestServerReapOnRecovery: keys that fell due while the server was down
// come back armed from the dump and the AOF, and the reaper's opening
// pass purges them with no client reading a key, so DBSIZE (which takes
// no lazy path) and keys_with_ttl count only live keys.
func TestServerReapOnRecovery(t *testing.T) {
	clk := newFakeClock()
	cfg := clk.cfg(persistCfg(t.TempDir()))
	s, addr := startServer(t, cfg)
	c := dial(t, addr)
	for i := range 20 {
		c.mustSimple("OK", "SETEX", "d"+strconv.Itoa(i), "10", "v") // due during downtime
		if i == 9 {
			c.mustSimple("OK", "SAVE") // the first half recovers from the dump
		}
	}
	for i := range 5 {
		c.mustSimple("OK", "SETEX", "l"+strconv.Itoa(i), "1000", "v")
	}
	c.mustSimple("OK", "SET", "p", "v")
	clk.advance(60_000)

	s2, addr2 := restart(t, s, cfg)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, passes := s2.db.Stats(); passes.Count > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the reaper's opening pass never ran")
		}
	}
	c2 := dial(t, addr2)
	c2.mustInt(6, "DBSIZE")
	if expired, _ := s2.db.Stats(); expired != 20 {
		t.Fatalf("expired_keys = %d after the opening pass, want 20", expired)
	}
	if n := s2.db.ArmedKeys(); n != 5 {
		t.Fatalf("keys_with_ttl = %d after the opening pass, want 5", n)
	}
	c2.mustInt(940, "TTL", "l0")
}

func TestServerTTLSurvivesRestart(t *testing.T) {
	clk := newFakeClock()
	dir := t.TempDir()
	cfg := clk.cfg(persistCfg(dir))
	s, addr := startServer(t, cfg)
	c := dial(t, addr)

	// A rename whose destination had expired (and was lazily purged) at
	// serve time: replay re-arms the destination from its earlier
	// PEXPIREAT record, and the replayed RENAME must clear that stale
	// arming off the moved value — or the reaper's opening pass eats it
	// right after recovery.
	c.mustSimple("OK", "MSET", "mvsrc", "live", "mvdst", "dying")
	c.mustInt(1, "PEXPIRE", "mvdst", "50")
	clk.advance(51)
	c.mustSimple("OK", "RENAME", "mvsrc", "mvdst")
	c.mustInt(-1, "TTL", "mvdst")

	c.mustSimple("OK", "SET", "long", "v1")
	c.mustInt(1, "PEXPIRE", "long", "500000")
	c.mustSimple("OK", "SETEX", "short", "30", "v2") // 30s: dies during downtime
	c.mustSimple("OK", "SET", "keep2", "v3")
	c.mustSimple("OK", "SET", "drop", "v4")
	c.mustInt(1, "EXPIRE", "drop", "100")
	c.mustInt(1, "PERSIST", "drop")
	clk.advance(100_000)

	// AOF-only restart: deadlines come back from PEXPIREAT records, the
	// 30s key expired while "down", PERSIST replay keeps dropped alive.
	s2, addr2 := restart(t, s, cfg)
	c2 := dial(t, addr2)
	c2.mustBulk("v1", "GET", "long")
	c2.mustInt(400_000, "PTTL", "long")
	c2.mustNull("GET", "short")
	c2.mustInt(-1, "TTL", "keep2")
	c2.mustInt(-1, "TTL", "drop")
	c2.mustBulk("live", "GET", "mvdst") // survived the stale-arming replay
	c2.mustInt(-1, "TTL", "mvdst")
	c2.mustInt(0, "EXISTS", "mvsrc")
	clk.advance(200_000)
	c2.mustBulk("v4", "GET", "drop")

	// Dump restart: SAVE folds the AOF into a TTL-carrying base dump;
	// the deadline must survive the dump → recover round trip too.
	c2.mustSimple("OK", "SAVE")
	_, addr3 := restart(t, s2, cfg)
	c3 := dial(t, addr3)
	c3.mustInt(200_000, "PTTL", "long")
	c3.mustBulk("v1", "GET", "long")
	clk.advance(200_000)
	c3.mustNull("GET", "long")
	c3.mustBulk("v3", "GET", "keep2")
}

func TestServerInfoExpirySection(t *testing.T) {
	clk := newFakeClock()
	_, addr := startServer(t, clk.cfg(Config{}))
	c := dial(t, addr)

	c.mustSimple("OK", "MSET", "a", "1", "b", "2")
	c.mustInt(1, "EXPIRE", "a", "100")
	info := string(c.do("INFO").Str)
	for _, want := range []string{"# Expiry", "keys_with_ttl:1", "expired_keys:0", "reaper_passes:"} {
		if !strings.Contains(info, want) {
			t.Fatalf("INFO lacks %q:\n%s", want, info)
		}
	}
	clk.advance(200_000)
	c.mustNull("GET", "a")
	info = string(c.do("INFO").Str)
	for _, want := range []string{"keys_with_ttl:0", "expired_keys:1"} {
		if !strings.Contains(info, want) {
			t.Fatalf("INFO after expiry lacks %q:\n%s", want, info)
		}
	}
}

// TestServerTTLStress runs every keyspace write against a few keys from
// concurrent sessions while the clock advances under them and the
// reaper sweeps beside them: SET, SETEX, EXPIRE, PERSIST, DEL, RENAME
// (across the halves of the keyspace too), GETEX and GET. Once they stop, the armed-key count
// must equal the number of armed leaves (Validate). Then the clock passes
// every deadline and one full reaper pass runs: no leaf may still be
// armed, and the count must read 0.
func TestServerTTLStress(t *testing.T) {
	clk := newFakeClock()
	s, err := New(clk.cfg(Config{}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// The keys' first bytes differ at several bit positions, so RENAME's
	// two parents meet at several depths.
	keys := []string{"a", "b", "c", "A", "B", "1"}
	cmds := func(rng *rand.Rand) []string {
		k, k2 := keys[rng.Intn(len(keys))], keys[rng.Intn(len(keys))]
		secs := strconv.Itoa(1 + rng.Intn(3))
		switch rng.Intn(8) {
		case 0:
			return []string{"SET", k, "v"}
		case 1:
			return []string{"SETEX", k, secs, "e"}
		case 2:
			return []string{"EXPIRE", k, secs}
		case 3:
			return []string{"PERSIST", k}
		case 4:
			return []string{"DEL", k}
		case 5:
			return []string{"RENAME", k, k2}
		case 6:
			return []string{"GETEX", k, "PX", strconv.Itoa(rng.Intn(3000))}
		default:
			return []string{"GET", k}
		}
	}
	const workers, rounds = 4, 3000
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			ss := newSession(s, resp.NewWriter(bufio.NewWriter(io.Discard)))
			for i := 0; i < rounds; i++ {
				var args [][]byte
				for _, a := range cmds(rng) {
					args = append(args, []byte(a))
				}
				ss.dispatch(args)
				if i%50 == 0 {
					clk.advance(int64(rng.Intn(400)))
				}
			}
		}(g)
	}
	wg.Wait()
	// Close stops the background reaper, so the checks below see a
	// quiescent keyspace.
	s.Close()
	if err := s.db.Validate(); err != nil {
		t.Fatalf("at quiescence: %v", err)
	}

	clk.advance(time.Hour.Milliseconds())
	s.db.Reap(clk.now())
	for k, v := range s.db.Ascend(0) {
		if v.At != 0 {
			t.Errorf("key %q still armed at %d after every deadline passed and a reaper pass", BytesKeyer{}.AppendDecode(nil, k), v.DeadlineMS())
		}
	}
	if n := s.db.ArmedKeys(); n != 0 {
		t.Errorf("%d armed keys counted after every key was purged", n)
	}
	if err := s.db.Validate(); err != nil {
		t.Fatal(err)
	}
}

func itoa(n int64) string { return strconv.FormatInt(n, 10) }

// FuzzTTLArgs throws arbitrary argument vectors at the dispatch
// argument surface: sel picks a row of the command table, or past the
// last row an unknown word, and the command runs through the real
// dispatch path (parse → dispatch → reply encode, no socket). The
// properties: never panic; always produce exactly one well-formed RESP
// reply per command; and count it exactly once — the row's
// nbtried_commands_total rises by 1 and its error counter by the number
// of error replies sent.
func FuzzTTLArgs(f *testing.F) {
	row := func(name string) uint8 { return cmdByName[name] }
	f.Add(row("EXPIRE"), []byte("k\x00100"))
	f.Add(row("PEXPIRE"), []byte("k\x00-9999999999999999999"))
	f.Add(row("SETEX"), []byte("k\x0060\x00value"))
	f.Add(row("GETEX"), []byte("k\x00EX\x0010"))
	f.Add(row("GETEX"), []byte("k\x00PERSIST"))
	f.Add(row("TTL"), []byte("k"))
	f.Add(row("GETEX"), []byte("k\x00PXAT\x00notanumber"))
	f.Add(row("MSET"), []byte("k\x00v\x00toolongkey\x00w"))
	f.Add(row("SCAN"), []byte("0\x00COUNT\x00-1"))
	f.Add(uint8(len(commands)), []byte("k"))

	s, err := New(Config{})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })

	f.Fuzz(func(t *testing.T, sel uint8, raw []byte) {
		if len(raw) > 512 {
			return
		}
		ci := int(sel) % (len(commands) + 1)
		cmd := "NOSUCHCMD"
		if ci < len(commands) {
			cmd = commands[ci].name
		}
		args := [][]byte{[]byte(cmd)}
		for _, part := range bytes.SplitN(raw, []byte{0}, 6) {
			args = append(args, part)
		}
		calls, errs := s.met.cmdCalls.Load(ci), s.met.cmdErrs.Load(ci)
		var out bytes.Buffer
		bw := bufio.NewWriter(&out)
		ss := newSession(s, resp.NewWriter(bw))
		ss.dispatch(args)
		if err := ss.w.Flush(); err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(bytes.NewReader(out.Bytes()))
		v, err := resp.ReadReply(br, resp.Limits{})
		if err != nil {
			t.Fatalf("%s %q produced an unreadable reply %q: %v", cmd, raw, out.Bytes(), err)
		}
		if rest, _ := br.Peek(1); len(rest) != 0 {
			t.Fatalf("%s %q produced more than one reply: %q", cmd, raw, out.Bytes())
		}
		if d := s.met.cmdCalls.Load(ci) - calls; d != 1 {
			t.Fatalf("%s %q counted %d calls under %q, want 1", cmd, raw, d, cmdLabel(ci))
		}
		if d, want := s.met.cmdErrs.Load(ci)-errs, errorReplies(v); d != want {
			t.Fatalf("%s %q counted %d errors under %q, sent %d: %q", cmd, raw, d, cmdLabel(ci), want, out.Bytes())
		}
	})
}

// errorReplies counts the error replies in v, nested ones included.
func errorReplies(v resp.Value) int64 {
	n := int64(0)
	if v.Kind == resp.TypeError {
		n++
	}
	for _, e := range v.Array {
		n += errorReplies(e)
	}
	return n
}
