package server

import (
	"fmt"
	"os"
	"path/filepath"
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
	// segment — the exact-boundary recipe.
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
// armed, so the deadline's trip from the leaf is covered.
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
	allocs := testing.AllocsPerRun(2, func() {
		if err := s.pst.save(false); err != nil {
			t.Fatal(err)
		}
	})
	if perKey := allocs / n; perKey > 0.1 {
		t.Errorf("SAVE allocates %.3f times per key, pinned at 0.1", perKey)
	}
}

// expiryFarFuture is a deadline no test clock reaches.
const expiryFarFuture = int64(1) << 42

// TestPersistBGSAVEExactBoundary hammers unique-key SETs from several
// connections while BGSAVEs rotate underneath, then restarts: every
// acknowledged write must be present exactly once. This is the
// dump/AOF double-application test — if a record landed both in a
// snapshot and in a replayed segment, or in neither, recovery diverges.
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
	s.pst.mu.Lock()
	defer s.pst.mu.Unlock()
	if s.pst.aof != nil {
		t.Error("save after Close reopened the AOF")
	}
}

// TestPersistDegradedRefusesMutations: after an AOF write error the
// server must refuse every write row of the command table, and GETEX's
// mutating options, with -MISCONF — never silently ack writes it can no
// longer make durable. A refusal changes neither the map nor the TTL
// state and appends nothing to the AOF; reads keep serving, and INFO
// surfaces the failure.
func TestPersistDegradedRefusesMutations(t *testing.T) {
	clk := newFakeClock()
	s, addr := startServer(t, clk.cfg(persistCfg(t.TempDir())))
	c := dial(t, addr)
	c.mustSimple("OK", "SET", "pre", "1")
	c.mustSimple("OK", "SET", "src", "v")
	c.mustSimple("OK", "SETEX", "ttl", "100", "t")

	s.pst.degradeAOF(fmt.Errorf("disk on fire"))

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
		for k, v := range s.db.Snapshot().All() {
			fmt.Fprintf(&b, "%s=%s@%d ", BytesKeyer{}.AppendDecode(nil, k), v.B, v.DeadlineMS())
		}
		fmt.Fprintf(&b, "ttls=%d aof=%d", s.db.ArmedKeys(), s.pst.aof.Size())
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
	c.mustInt(3, "DBSIZE")

	info := c.do("INFO")
	if info.Kind != resp.TypeBulk || !strings.Contains(string(info.Str), "aof_last_write_status:disk on fire") {
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

// TestScanAndSaveReleaseSnapshots: the server holds a snapshot only
// while BGSAVE writes its dump. A SCAN walk takes none, so INFO and
// /metrics read engine_snapshots_held 0 with a walk left mid-way and a
// SET during it renews no node; BGSAVE's cut is released once its dump
// is written, and Close leaves none held.
func TestScanAndSaveReleaseSnapshots(t *testing.T) {
	s, addr := startServer(t, Config{Persist: PersistConfig{Dir: t.TempDir()}})
	c := dial(t, addr)
	for i := 0; i < 30; i++ {
		c.mustSimple("OK", "SET", fmt.Sprintf("k%02d", i), "v")
	}
	held := func(when string, want int64) {
		t.Helper()
		if got := metricValue(t, metricsText(t, s), "nbtried_engine_snapshots_held"); got != want {
			t.Errorf("%s: nbtried_engine_snapshots_held = %d, want %d", when, got, want)
		}
		if !strings.Contains(s.infoText("engine"), fmt.Sprintf("engine_snapshots_held:%d\r\n", want)) {
			t.Errorf("%s: INFO engine lacks engine_snapshots_held:%d", when, want)
		}
	}

	held("idle", 0)
	cursor, _ := scanPage(c, "0", 5)
	if cursor == "0" {
		t.Fatal("SCAN COUNT 5 over 30 keys finished in one page")
	}
	held("a walk left mid-way", 0)
	renewals := s.DB().EngineStats().SnapshotRenewals
	c.mustSimple("OK", "SET", "k00", "w")
	if got := s.DB().EngineStats().SnapshotRenewals; got != renewals {
		t.Errorf("a SET during a SCAN walk renewed %d nodes, want 0", got-renewals)
	}

	c.mustSimple("Background saving started", "BGSAVE")
	for deadline := time.Now().Add(5 * time.Second); s.pst.bgActive.Load(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("BGSAVE never finished")
		}
	}
	held("after a finished BGSAVE", 0)

	renewals = s.DB().EngineStats().SnapshotRenewals
	c.mustSimple("OK", "SET", "k01", "w")
	if got := s.DB().EngineStats().SnapshotRenewals; got != renewals {
		t.Errorf("a SET after BGSAVE renewed %d nodes, want 0", got-renewals)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if h := s.DB().EngineStats().SnapshotsHeld; h != 0 {
		t.Errorf("after Close: %d snapshots held, want 0", h)
	}
}
