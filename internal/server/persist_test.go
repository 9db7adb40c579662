package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"nbtrie/internal/persist"
	"nbtrie/internal/resp"
)

func persistCfg(dir string) Config {
	return Config{Persist: PersistConfig{Dir: dir, AOF: true, Fsync: persist.SyncAlways}}
}

// restart closes the running server and boots a fresh one over the same
// data directory — the crash-free half of the recovery contract.
func restart(t *testing.T, s *Server, cfg Config) (*Server, string) {
	t.Helper()
	if err := s.Close(); err != nil {
		t.Fatalf("Close before restart: %v", err)
	}
	return startServer(t, cfg)
}

func TestPersistRecoverAfterRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := persistCfg(dir)
	s, addr := startServer(t, cfg)
	c := dial(t, addr)
	c.mustSimple("OK", "SET", "alpha", "1")
	c.mustSimple("OK", "SET", "beta", "2")
	c.mustSimple("OK", "SET", "gamma", "3")
	c.mustInt(1, "DEL", "beta")
	c.mustSimple("OK", "RENAME", "gamma", "delta")
	c.mustSimple("OK", "MSET", "m1", "x", "m2", "y")
	c.mustSimple("OK", "SET", "alpha", "1b") // overwrite must replay last-wins

	_, addr2 := restart(t, s, cfg)
	c2 := dial(t, addr2)
	c2.mustBulk("1b", "GET", "alpha")
	c2.mustNull("GET", "beta")
	c2.mustNull("GET", "gamma")
	c2.mustBulk("3", "GET", "delta")
	c2.mustBulk("x", "GET", "m1")
	c2.mustBulk("y", "GET", "m2")
	c2.mustInt(4, "DBSIZE")
}

func TestPersistSaveRotatesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	cfg := persistCfg(dir)
	s, addr := startServer(t, cfg)
	c := dial(t, addr)
	for i := 0; i < 100; i++ {
		c.mustSimple("OK", "SET", fmt.Sprintf("k%03d", i), fmt.Sprintf("v%d", i))
	}
	c.mustSimple("OK", "SAVE")
	// Post-SAVE writes land in the rotated segment only.
	c.mustSimple("OK", "SET", "post", "save")
	c.mustInt(1, "DEL", "k000")

	// The manifest must have swung to the new base with exactly one
	// segment — the rotation's recipe.
	m, ok, err := persist.ReadManifest(dir)
	if err != nil || !ok {
		t.Fatalf("manifest after SAVE: ok=%v err=%v", ok, err)
	}
	if m.Base == "" || len(m.Incrs) != 1 {
		t.Fatalf("manifest after SAVE = %+v, want base + 1 segment", m)
	}

	_, addr2 := restart(t, s, cfg)
	c2 := dial(t, addr2)
	c2.mustBulk("save", "GET", "post")
	c2.mustNull("GET", "k000")
	c2.mustBulk("v42", "GET", "k042")
	c2.mustInt(100, "DBSIZE") // 100 - k000 + post
}

func TestPersistWithoutAOFOnlySaveSurvives(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Persist: PersistConfig{Dir: dir, AOF: false}}
	s, addr := startServer(t, cfg)
	c := dial(t, addr)
	c.mustSimple("OK", "SET", "durable", "yes")
	c.mustSimple("OK", "SAVE")
	c.mustSimple("OK", "SET", "vol", "lost")

	_, addr2 := restart(t, s, cfg)
	c2 := dial(t, addr2)
	c2.mustBulk("yes", "GET", "durable")
	c2.mustNull("GET", "vol")
}

// TestPersistSaveAllocsPerKey pins what a dump allocates per key: the
// whole dump decodes every key into one reused buffer and writes the
// record framing from shared slices, so the per-key count is ~0, where a
// fresh decoded key and a fresh record marker would cost 2. The keys are
// armed, so the deadline's trip from the leaf is covered. It also pins
// the bytes one SAVE allocates: a write buffer of at most 64 KiB made for
// the dump, where a 1 MiB one took 8.4 B per operation on a workload that
// saves every 125,000 writes, and little else.
func TestPersistSaveAllocsPerKey(t *testing.T) {
	s, err := New(Config{Persist: PersistConfig{Dir: t.TempDir()}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 5000
	val := []byte("0123456789abcdef")
	for i := 0; i < n; i++ {
		k, err := BytesKeyer{}.Encode([]byte(strconv.Itoa(i)))
		if err != nil {
			t.Fatal(err)
		}
		s.db.StoreDeadline(k, val, expiryFarFuture)
	}
	save := func() {
		if err := s.pst.save(false); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(2, save)
	if perKey := allocs / n; perKey > 0.1 {
		t.Errorf("SAVE allocates %.3f times per key, pinned at 0.1", perKey)
	}
	const runs, ceiling = 4, 96 << 10
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		save()
	}
	runtime.ReadMemStats(&after)
	if perSave := (after.TotalAlloc - before.TotalAlloc) / runs; perSave > ceiling {
		t.Errorf("SAVE allocates %d B, pinned at %d (a 64 KiB buffer and the rest)", perSave, ceiling)
	}
}

// expiryFarFuture is a deadline no test clock reaches.
const expiryFarFuture = int64(1) << 42

// TestPersistBGSAVEExactBoundary hammers unique-key SETs from several
// connections while BGSAVEs rotate underneath, then restarts: every
// acknowledged write must be present exactly once. This is the
// dump/AOF boundary test — if a record landed in neither the dump nor a
// replayed segment, or a pre-rotation record were replayed over a later
// state, recovery would diverge.
func TestPersistBGSAVEExactBoundary(t *testing.T) {
	dir := t.TempDir()
	cfg := persistCfg(dir)
	s, addr := startServer(t, cfg)

	const writers = 4
	const perWriter = 300
	var wg sync.WaitGroup
	for wr := 0; wr < writers; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			c := dial(t, addr)
			for i := 0; i < perWriter; i++ {
				c.mustSimple("OK", "SET",
					fmt.Sprintf("w%d-%04d", wr, i), fmt.Sprintf("%d:%d", wr, i))
			}
		}(wr)
	}
	// Rotations racing the writers.
	admin := dial(t, addr)
	for i := 0; i < 5; i++ {
		v := admin.do("BGSAVE")
		if v.Kind == resp.TypeError {
			// A save already in flight is the only acceptable refusal.
			if want := "already in progress"; !contains(string(v.Str), want) {
				t.Fatalf("BGSAVE error %q", v.Str)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	wg.Wait()

	s2, addr2 := restart(t, s, cfg)
	c2 := dial(t, addr2)
	for wr := 0; wr < writers; wr++ {
		for i := 0; i < perWriter; i++ {
			c2.mustBulk(fmt.Sprintf("%d:%d", wr, i), "GET", fmt.Sprintf("w%d-%04d", wr, i))
		}
	}
	if got := s2.DB().Len(); got != writers*perWriter {
		t.Fatalf("recovered %d keys, want %d", got, writers*perWriter)
	}
	if err := s2.DB().Validate(); err != nil {
		t.Fatalf("recovered trie invalid: %v", err)
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }

// TestPersistTornTailTruncated simulates the crash shape fsync=always
// promises to survive: a partial record at the AOF tail is discarded,
// everything before it recovers.
func TestPersistTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	cfg := persistCfg(dir)
	s, addr := startServer(t, cfg)
	c := dial(t, addr)
	c.mustSimple("OK", "SET", "whole", "record")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the live segment: append half a RESP record.
	m, ok, err := persist.ReadManifest(dir)
	if err != nil || !ok || len(m.Incrs) == 0 {
		t.Fatalf("manifest: ok=%v err=%v m=%+v", ok, err, m)
	}
	seg := filepath.Join(dir, m.Incrs[len(m.Incrs)-1])
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("*3\r\n$3\r\nSET\r\n$4\r\nto")
	f.Close()

	_, addr2 := startServer(t, cfg)
	c2 := dial(t, addr2)
	c2.mustBulk("record", "GET", "whole")
	c2.mustInt(1, "DBSIZE")
	_ = addr
	_ = addr2
}

// TestPersistSetexIsOneRecord: SETEX is one mutation, so a crash
// recovers all of it or none of it. Under everysec the ticker's Sync, or
// a write-through at the segment's buffer boundary, can land between any
// two appends; the beforeAppend hook puts one at every append boundary
// of one SETEX and copies the directory as a crash would leave it there,
// and a last copy is taken once the reply is in. Every copy must recover
// k absent or k=v with its TTL, never k=v with no deadline, and the last
// one k=v with its TTL.
func TestPersistSetexIsOneRecord(t *testing.T) {
	clk := newFakeClock()
	cfg := func(dir string) Config {
		cfg := clk.cfg(persistCfg(dir))
		cfg.Persist.Fsync = persist.SyncEverySec
		return cfg
	}
	dir := t.TempDir()
	var mu sync.Mutex
	var copies []string
	syncAndCopy := func(s *Server) {
		if err := s.pst.aof.Load().Sync(); err != nil {
			t.Error(err)
		}
		mu.Lock()
		defer mu.Unlock()
		copies = append(copies, crashCopy(t, dir))
	}
	s, addr := startServer(t, cfg(dir), func(s *Server) {
		s.pst.beforeAppend = func() { syncAndCopy(s) }
	})
	dial(t, addr).mustSimple("OK", "SETEX", "k", "100", "v")
	syncAndCopy(s)

	mu.Lock()
	defer mu.Unlock()
	const whole, absent = `"v", PTTL (integer) 100000`, "(nil), PTTL (integer) -2"
	for i, crash := range copies {
		_, addr2 := startServer(t, cfg(crash))
		c := dial(t, addr2)
		got := c.do("GET", "k").String() + ", PTTL " + c.do("PTTL", "k").String()
		if got != whole && (i == len(copies)-1 || got != absent) {
			t.Errorf("crash copy %d of %d recovered k = %s; want %q, or k absent before the reply", i+1, len(copies), got, whole)
		}
	}
}

// TestPersistRefusesCorruption: damage BEFORE the tail is not a tear;
// the server must refuse to boot rather than serve a silent subset.
func TestPersistRefusesCorruption(t *testing.T) {
	dir := t.TempDir()
	cfg := persistCfg(dir)
	s, addr := startServer(t, cfg)
	c := dial(t, addr)
	c.mustSimple("OK", "SET", "a", "1")
	c.mustSimple("OK", "SET", "b", "2")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_ = addr

	m, _, _ := persist.ReadManifest(dir)
	seg := filepath.Join(dir, m.Incrs[len(m.Incrs)-1])
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	b[0] = '!' // first record's framing destroyed: corruption, not a tear
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted a corrupt AOF segment")
	}
}

func TestPersistLastSaveAndInfo(t *testing.T) {
	dir := t.TempDir()
	_, addr := startServer(t, persistCfg(dir))
	c := dial(t, addr)
	c.mustInt(0, "LASTSAVE")
	c.mustSimple("OK", "SET", "k", "v")
	c.mustSimple("OK", "SAVE")
	if v := c.do("LASTSAVE"); v.Kind != resp.TypeInt || v.Int <= 0 {
		t.Fatalf("LASTSAVE after SAVE = %s", v)
	}
	// The command word is case-insensitive: lower-case bgsave is BGSAVE.
	c.mustSimple("Background saving started", "bgsave")
	info := c.do("INFO")
	for _, want := range []string{
		"# Persistence", "aof_enabled:1", "aof_fsync:always",
		"rdb_last_bgsave_status:ok", "persistence_dir:" + dir,
	} {
		if !contains(string(info.Str), want) {
			t.Errorf("INFO missing %q", want)
		}
	}
}

func TestPersistDisabledCommands(t *testing.T) {
	_, addr := startServer(t, Config{})
	c := dial(t, addr)
	c.mustErrContain("persistence is disabled", "SAVE")
	c.mustErrContain("persistence is disabled", "BGSAVE")
	c.mustInt(0, "LASTSAVE")
}

// TestPersistSaveAfterClose: once Close has sealed the persister, a
// save — a periodic saver's next tick, say — is refused, and the data
// directory and the AOF stay as Close left them. A saver ticking every
// millisecond runs across the Close.
func TestPersistSaveAfterClose(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Persist: PersistConfig{Dir: dir, AOF: true, Fsync: persist.SyncEverySec}})
	if err != nil {
		t.Fatal(err)
	}
	stopSaver := s.StartPeriodicSave(time.Millisecond)
	defer stopSaver()
	time.Sleep(5 * time.Millisecond)
	s.Close()
	names := func() (out []string) {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			out = append(out, e.Name())
		}
		return out
	}
	before := names()
	if err := s.pst.save(true); err == nil {
		t.Error("save after Close succeeded")
	}
	time.Sleep(5 * time.Millisecond) // the saver's ticks after Close
	if after := names(); !slices.Equal(before, after) {
		t.Errorf("save after Close changed the directory: %v -> %v", before, after)
	}
	if s.pst.aof.Load() != nil {
		t.Error("save after Close reopened the AOF")
	}
}

// TestPersistDegradedRefusesMutations: after an AOF write error the
// server must refuse every write row of the command table, and GETEX's
// mutating options, with -MISCONF — never silently ack writes it can no
// longer make durable. A refusal changes neither the map nor the TTL
// state and appends nothing to the AOF; reads keep serving, and INFO
// surfaces the failure. The error is either the status word alone, or a
// real one: the test closes the segment twice, so the second Close fails
// and its error sticks. The SET whose append meets it must be dropped
// unanswered, and a GET on another connection, whose flush commits that
// segment, must still be answered.
func TestPersistDegradedRefusesMutations(t *testing.T) {
	t.Run("status", func(t *testing.T) { degradedRefusesMutations(t, false) })
	t.Run("segment error", func(t *testing.T) { degradedRefusesMutations(t, true) })
}

func degradedRefusesMutations(t *testing.T, segmentError bool) {
	clk := newFakeClock()
	s, addr := startServer(t, clk.cfg(persistCfg(t.TempDir())))
	c := dial(t, addr)
	c.mustSimple("OK", "SET", "pre", "1")
	c.mustSimple("OK", "SET", "src", "v")
	c.mustSimple("OK", "SETEX", "ttl", "100", "t")

	keys, status := int64(3), "disk on fire"
	if segmentError {
		a := s.pst.aof.Load()
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		err := a.Close()
		if err == nil {
			t.Fatal("a second Close of the segment succeeded")
		}
		if v, err := dial(t, addr).try("SET", "lost", "x"); err == nil {
			t.Fatalf("a SET whose append failed replied %s; want its connection dropped", v)
		}
		// The keyspace holds the dropped write: it was applied, never
		// acknowledged.
		keys, status = keys+1, err.Error()
	} else {
		s.pst.degradeAOF(errors.New(status))
	}
	c.mustBulk("1", "GET", "pre")

	// One invocation per write row that would mutate if it were served.
	// Each is sent whatever its row's flag says, so a row that loses its
	// write flag fails below, and a write row with no case fails here.
	mutating := map[string][]string{
		"SET":       {"post", "2"},
		"DEL":       {"pre"},
		"MSET":      {"a", "1", "b", "2"},
		"RENAME":    {"src", "dst"},
		"EXPIRE":    {"pre", "100"},
		"PEXPIRE":   {"pre", "100"},
		"EXPIREAT":  {"pre", "1"}, // past: would delete
		"PEXPIREAT": {"pre", itoa(clk.now() + 5000)},
		"PERSIST":   {"ttl"},
		"SETEX":     {"post", "10", "v"},
	}
	var refused [][]string
	for _, row := range commands {
		if args, ok := mutating[row.name]; ok {
			refused = append(refused, append([]string{row.name}, args...))
		} else if row.write {
			t.Errorf("write row %s has no refusal case here", row.name)
		}
	}
	refused = append(refused, []string{"GETEX", "pre", "EX", "10"}, []string{"GETEX", "ttl", "PERSIST"})

	// state is everything a refused command must leave alone.
	state := func() string {
		var b strings.Builder
		for k, v := range s.db.Ascend(0) {
			fmt.Fprintf(&b, "%s=%s@%d ", BytesKeyer{}.AppendDecode(nil, k), v.B, v.DeadlineMS())
		}
		fmt.Fprintf(&b, "ttls=%d aof=%d", s.db.ArmedKeys(), s.pst.aof.Load().Size())
		return b.String()
	}
	before := state()
	for _, args := range refused {
		c.mustErrContain("MISCONF", args...)
		if after := state(); after != before {
			t.Errorf("refused %v changed the state:\n before %s\n after  %s", args, before, after)
		}
	}

	c.mustBulk("1", "GET", "pre")
	c.mustBulk("v", "GET", "src")
	c.mustNull("GET", "post")
	c.mustInt(100, "TTL", "ttl")
	c.mustBulk("1", "GETEX", "pre")
	c.mustInt(keys, "DBSIZE")

	info := c.do("INFO")
	if info.Kind != resp.TypeBulk || !strings.Contains(string(info.Str), "aof_last_write_status:"+status) {
		t.Fatalf("INFO does not surface the AOF failure:\n%s", info.Str)
	}
}

// TestPersistSweepKeepsForeignFiles: a data directory may hold the
// operator's files. Startup and SAVE remove only what the directory's
// own scheme names and the manifest does not — a stale segment, a
// dump's temp file — and a foreign file survives both.
func TestPersistSweepKeepsForeignFiles(t *testing.T) {
	dir := t.TempDir()
	cfg := persistCfg(dir)
	s, addr := startServer(t, cfg)
	dial(t, addr).mustSimple("OK", "SET", "k", "v")
	plant := func(names ...string) {
		for _, n := range names {
			if err := os.WriteFile(filepath.Join(dir, n), []byte("x"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(when string, gone ...string) {
		if _, err := os.Stat(filepath.Join(dir, "notes.txt")); err != nil {
			t.Errorf("%s: foreign file removed: %v", when, err)
		}
		for _, n := range gone {
			if _, err := os.Stat(filepath.Join(dir, n)); err == nil {
				t.Errorf("%s: stale %s survived", when, n)
			}
		}
	}

	stale, staleTmp := persist.IncrName(0), persist.BaseName(0)+".tmp-1"
	plant("notes.txt", stale)
	_, addr2 := restart(t, s, cfg)
	check("restart", stale)

	plant(stale, staleTmp)
	c := dial(t, addr2)
	c.mustSimple("OK", "SAVE")
	check("SAVE", stale, staleTmp)
	if ents, _ := os.ReadDir(dir); len(ents) != 4 {
		t.Errorf("after SAVE the directory holds %d files, want MANIFEST, a base, a segment and notes.txt", len(ents))
	}
	c.mustBulk("v", "GET", "k")
}

// TestPersistDumpHonoursBulkLimit: a dump holds every value the server
// accepted, so it loads back under the same bulk limit — a value above
// the default 8 MiB survives SAVE and a restart.
func TestPersistDumpHonoursBulkLimit(t *testing.T) {
	cfg := persistCfg(t.TempDir())
	cfg.Limits.MaxBulkLen = 16 << 20
	s, addr := startServer(t, cfg)
	big := strings.Repeat("x", 10<<20)
	c := dial(t, addr)
	c.mustSimple("OK", "SET", "big", big)
	c.mustSimple("OK", "SAVE")

	s2, addr2 := restart(t, s, cfg)
	dial(t, addr2).mustInt(1, "DBSIZE")
	k, err := BytesKeyer{}.Encode([]byte("big"))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := s2.DB().Load(k); !ok || len(v) != len(big) {
		t.Fatalf("recovered value has %d bytes (present %v), want %d", len(v), ok, len(big))
	}
}

// TestScanAndSaveTakeNoSnapshot: the server takes no snapshot. Any
// snapshot of the keyspace makes the next write renew the nodes on its
// path, so a SET that renews nothing shows that none was taken since the
// last write. A SCAN walk takes none, so a SET with a walk left mid-way
// renews nothing. BGSAVE's dump walks the live trie too, with the AOF
// on or off: a SET with the dump paused mid-walk, and one after it,
// renew nothing.
func TestScanAndSaveTakeNoSnapshot(t *testing.T) { bothModes(t, scanAndSaveTakeNoSnapshot) }

func scanAndSaveTakeNoSnapshot(t *testing.T, aof bool) {
	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	s, addr := startServer(t, Config{Persist: PersistConfig{Dir: t.TempDir(), AOF: aof}}, func(s *Server) {
		s.pst.dumped = func(uint64) { once.Do(func() { close(parked); <-release }) }
	})
	c := dial(t, addr)
	for i := 0; i < 30; i++ {
		c.mustSimple("OK", "SET", fmt.Sprintf("k%02d", i), "v")
	}
	renewsNothing := func(when, key string) {
		t.Helper()
		renewals := s.DB().EngineStats().SnapshotRenewals
		c.mustSimple("OK", "SET", key, "w")
		if got := s.DB().EngineStats().SnapshotRenewals; got != renewals {
			t.Errorf("a SET %s renewed %d nodes, want 0", when, got-renewals)
		}
	}

	cursor, _ := scanPage(c, "0", 5)
	if cursor == "0" {
		t.Fatal("SCAN COUNT 5 over 30 keys finished in one page")
	}
	renewsNothing("during a SCAN walk", "k00")

	c.mustSimple("Background saving started", "BGSAVE")
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		t.Fatal("BGSAVE's dump never wrote a record")
	}
	renewsNothing("during a dump", "k01")
	close(release)
	waitSave(t, s)
	renewsNothing("after BGSAVE", "k02")
}

// waitSave waits for s's background dump to finish.
func waitSave(t *testing.T, s *Server) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); s.pst.bgActive.Load(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("BGSAVE never finished")
		}
	}
}

// TestPersistTailEdgesRoundTrip stores a value at every edge of the
// keyspace's byte leaves, armed and unarmed: empty (the leaf's bytes are
// its length word), 1 to 208 B (16 B tail steps), 209 B (the first 32 B
// step), 464 B (the largest tail, the 512 B class), 465 B and 4096 B
// (copied separately). Every read of a value is a view of its leaf's
// bytes, so a live SCAN, a SAVE's dump walk and the restart that loads
// it must all hand back exactly what was stored: the same key set, the
// same bytes and, with the clock held, the same PTTL.
func TestPersistTailEdgesRoundTrip(t *testing.T) {
	const maxTail = 464 // the engine's largest inline tail
	clk := newFakeClock()
	cfg := clk.cfg(persistCfg(t.TempDir()))
	s, addr := startServer(t, cfg)
	c := dial(t, addr)
	type entry struct {
		val  string
		pttl int64
	}
	want := make(map[string]entry)
	for i, n := range []int{0, 1, 16, 17, 64, 208, 209, maxTail, maxTail + 1, 4096} {
		b := make([]byte, n)
		for j := range b {
			b[j] = byte(i*37 + j*13)
		}
		plain, armed := fmt.Sprintf("p%d", n), fmt.Sprintf("a%d", n)
		c.mustSimple("OK", "SET", plain, string(b))
		c.mustSimple("OK", "SETEX", armed, strconv.Itoa(100+i), string(b))
		want[plain], want[armed] = entry{string(b), -1}, entry{string(b), int64(100+i) * 1000}
	}
	check := func(c *testClient, when string) {
		t.Helper()
		var scanned []string
		for cursor := "0"; ; {
			next, page := scanPage(c, cursor, 3)
			scanned = append(scanned, page...)
			if cursor = next; cursor == "0" {
				break
			}
		}
		slices.Sort(scanned)
		if len(scanned) != len(want) || len(slices.Compact(scanned)) != len(want) {
			t.Errorf("%s: SCAN returned %d keys %v, want the %d stored", when, len(scanned), scanned, len(want))
		}
		for k, e := range want {
			if v := c.do("GET", k); v.Kind != resp.TypeBulk || string(v.Str) != e.val {
				t.Errorf("%s: GET %s = kind %q, %d B; want a %d B bulk, byte for byte as stored", when, k, v.Kind, len(v.Str), len(e.val))
			}
			c.mustInt(e.pttl, "PTTL", k)
		}
	}
	check(c, "live")
	c.mustSimple("OK", "SAVE")
	_, addr2 := restart(t, s, cfg)
	check(dial(t, addr2), "after SAVE and restart")
}
