package server

import (
	"fmt"
	"os"
	"path/filepath"
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

// TestScanSnapshotConsistentCut: a full cursor walk returns exactly the
// keys present when the cursor was opened — concurrent SETs and DELs
// between pages are invisible to it (DESIGN.md §8).
func TestScanSnapshotConsistentCut(t *testing.T) {
	_, addr := startServer(t, Config{})
	c := dial(t, addr)
	const n = 100
	for i := 0; i < n; i++ {
		c.mustSimple("OK", "SET", fmt.Sprintf("key%03d", i), "v")
	}

	seen := map[string]int{}
	cursor := "0"
	pages := 0
	for {
		v := c.do("SCAN", cursor, "COUNT", "7")
		if v.Kind != resp.TypeArray || len(v.Array) != 2 {
			t.Fatalf("SCAN reply %s", v)
		}
		for _, k := range v.Array[1].Array {
			seen[string(k.Str)]++
		}
		cursor = string(v.Array[0].Str)
		pages++
		if pages == 2 {
			// Mid-walk churn: none of this may leak into the cursor.
			c.mustSimple("OK", "SET", "zzz-new", "late")
			c.mustInt(1, "DEL", "key050")
			c.mustSimple("OK", "SET", "key051", "overwritten")
		}
		if cursor == "0" {
			break
		}
		if pages > 2*n {
			t.Fatal("SCAN never terminated")
		}
	}
	if len(seen) != n {
		t.Fatalf("walk saw %d distinct keys, want %d", len(seen), n)
	}
	for k, cnt := range seen {
		if cnt != 1 {
			t.Errorf("key %q returned %d times", k, cnt)
		}
	}
	if _, ok := seen["zzz-new"]; ok {
		t.Error("key inserted mid-walk leaked into the snapshot cursor")
	}
	if _, ok := seen["key050"]; !ok {
		t.Error("key deleted mid-walk vanished from the snapshot cursor")
	}
}

// TestScanCursorEviction: the cursor table is bounded; the evicted
// (oldest) cursor terminates cleanly with an empty final page.
func TestScanCursorEviction(t *testing.T) {
	_, addr := startServer(t, Config{MaxScanCursors: 2})
	c := dial(t, addr)
	for i := 0; i < 30; i++ {
		c.mustSimple("OK", "SET", fmt.Sprintf("k%02d", i), "v")
	}
	open := func() string {
		v := c.do("SCAN", "0", "COUNT", "5")
		return string(v.Array[0].Str)
	}
	c1 := open()
	open()
	open()
	open() // table cap 2: c1 must be long gone
	if c1 == "0" {
		t.Fatal("first SCAN finished in one page; COUNT too large for the test")
	}
	v := c.do("SCAN", c1)
	if string(v.Array[0].Str) != "0" || len(v.Array[1].Array) != 0 {
		t.Fatalf("evicted cursor: got cursor=%s page=%d, want clean termination",
			v.Array[0].Str, len(v.Array[1].Array))
	}
}

// TestPersistAcrossKeyers: the dump stores wire keys, so a restart with
// a different shard count recovers identically.
func TestPersistShardCountChange(t *testing.T) {
	dir := t.TempDir()
	cfgA := Config{Shards: 2, Persist: PersistConfig{Dir: dir, AOF: true, Fsync: persist.SyncAlways}}
	s, addr := startServer(t, cfgA)
	c := dial(t, addr)
	for i := 0; i < 64; i++ {
		c.mustSimple("OK", "SET", "key-"+strconv.Itoa(i), strconv.Itoa(i))
	}
	c.mustSimple("OK", "SAVE")
	c.mustSimple("OK", "SET", "tail", "write")

	cfgB := cfgA
	cfgB.Shards = 8
	_, addr2 := restart(t, s, cfgB)
	c2 := dial(t, addr2)
	c2.mustBulk("33", "GET", "key-33")
	c2.mustBulk("write", "GET", "tail")
	c2.mustInt(65, "DBSIZE")
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
		"SET":          {"post", "2"},
		"DEL":          {"pre"},
		"MSET":         {"a", "1", "b", "2"},
		"RENAME":       {"src", "dst"},
		"RENAMESTRICT": {"src", "dst"},
		"EXPIRE":       {"pre", "100"},
		"PEXPIRE":      {"pre", "100"},
		"EXPIREAT":     {"pre", "1"}, // past: would delete
		"PEXPIREAT":    {"pre", itoa(clk.now() + 5000)},
		"PERSIST":      {"ttl"},
		"SETEX":        {"post", "10", "v"},
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
		for k, v := range s.db.All() {
			e, _ := s.exp.Lookup(k)
			fmt.Fprintf(&b, "%s=%s@%d ", s.keyer.Decode(k), v, e.DeadlineMS)
		}
		fmt.Fprintf(&b, "ttls=%d aof=%d", s.exp.Len(), s.pst.aof.Size())
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
