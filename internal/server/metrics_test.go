package server

import (
	"bufio"
	"fmt"
	"io"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"nbtrie/internal/resp"
)

// metricsText renders the Prometheus exposition for assertions.
func metricsText(t *testing.T, s *Server) string {
	t.Helper()
	var b strings.Builder
	s.WriteMetrics(&b)
	return b.String()
}

// metricValue extracts the value of a single-sample family (exact line
// prefix match, e.g. `nbtried_keys ` or `nbtried_commands_total{cmd="get"} `).
func metricValue(t *testing.T, text, prefix string) int64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, prefix+" "); ok {
			var v int64
			if _, err := fmt.Sscanf(rest, "%d", &v); err != nil {
				t.Fatalf("metric %s: bad value %q", prefix, rest)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in exposition", prefix)
	return 0
}

// TestMetricsFamiliesAndCounts and TestSlowlogCommands name their
// subtest for the dispatch path it covers: every command runs on its
// connection's goroutine.
func TestMetricsFamiliesAndCounts(t *testing.T) {
	t.Run("conn", metricsFamiliesAndCounts)
}

func metricsFamiliesAndCounts(t *testing.T) {
	s, addr := startServer(t, Config{})

	// Idle: the engine's contention counters must read zero before
	// any command touches the trie.
	idle := metricsText(t, s)
	for _, m := range []string{
		"nbtried_engine_help_total",
		"nbtried_engine_help_assists_total",
		"nbtried_engine_child_cas_failures_total",
		"nbtried_engine_flag_backtracks_total",
		"nbtried_engine_op_retries_total",
		"nbtried_engine_snapshot_renewals_total",
	} {
		if v := metricValue(t, idle, m); v != 0 {
			t.Errorf("idle server: %s = %d, want 0", m, v)
		}
	}

	c := dial(t, addr)
	c.mustSimple("OK", "SET", "a", "1")
	c.mustBulk("1", "GET", "a")
	c.mustNull("GET", "missing")
	c.mustInt(1, "DEL", "a")
	c.mustErrContain("wrong number of arguments", "GET")

	text := metricsText(t, s)
	// Exact per-command counts: the error-arity GET still counts as
	// a GET call and as one GET error.
	if v := metricValue(t, text, `nbtried_commands_total{cmd="get"}`); v != 3 {
		t.Errorf(`commands_total{cmd="get"} = %d, want 3`, v)
	}
	if v := metricValue(t, text, `nbtried_commands_total{cmd="set"}`); v != 1 {
		t.Errorf(`commands_total{cmd="set"} = %d, want 1`, v)
	}
	if v := metricValue(t, text, `nbtried_command_errors_total{cmd="get"}`); v != 1 {
		t.Errorf(`command_errors_total{cmd="get"} = %d, want 1`, v)
	}
	if v := metricValue(t, text, "nbtried_engine_help_total"); v == 0 {
		t.Error("engine_help_total still zero after a SET")
	}
	if v := metricValue(t, text, "nbtried_connections_total"); v != 1 {
		t.Errorf("connections_total = %d, want 1", v)
	}
	for _, m := range []string{
		"nbtried_net_input_bytes_total",
		"nbtried_net_output_bytes_total",
		`nbtried_command_latency_seconds_count{cmd="set"}`,
	} {
		if v := metricValue(t, text, m); v <= 0 {
			t.Errorf("%s = %d, want > 0", m, v)
		}
	}
	// Histogram well-formedness: a +Inf bucket per emitted family.
	if !strings.Contains(text, `nbtried_command_latency_seconds_bucket{cmd="set",le="+Inf"}`) {
		t.Error("command latency histogram missing +Inf bucket for set")
	}
	if !strings.Contains(text, "nbtried_engine_depth_bucket{") {
		t.Error("engine depth histogram missing after mutations")
	}
}

func TestMetricsHandlerHTTP(t *testing.T) {
	s, addr := startServer(t, Config{})
	c := dial(t, addr)
	c.mustSimple("OK", "SET", "k", "v")

	rr := httptest.NewRecorder()
	s.MetricsHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != 200 {
		t.Fatalf("GET /metrics = %d, want 200", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	if !strings.Contains(rr.Body.String(), `nbtried_commands_total{cmd="set"} 1`) {
		t.Error("handler body missing the SET count")
	}
}

// TestMetricsEngineContention drives concurrent same-key writers through
// the server and checks the contention counters move. On a single-CPU
// run the CAS windows are only interleaved by preemption, so the strict
// nonzero assertion applies only when real parallelism is available (the
// deterministic helper-counted test lives in internal/engine).
func TestMetricsEngineContention(t *testing.T) {
	s, addr := startServer(t, Config{Shards: 1})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := dial(t, addr)
			for i := 0; i < 2000; i++ {
				k := fmt.Sprintf("k%d", i%16)
				if g%2 == 0 {
					c.mustSimple("OK", "SET", k, "v")
				} else {
					c.do("DEL", k)
				}
			}
		}(g)
	}
	wg.Wait()
	text := metricsText(t, s)
	help := metricValue(t, text, "nbtried_engine_help_total")
	if help == 0 {
		t.Fatal("engine_help_total zero after 16k mutations")
	}
	contended := metricValue(t, text, "nbtried_engine_child_cas_failures_total") +
		metricValue(t, text, "nbtried_engine_op_retries_total") +
		metricValue(t, text, "nbtried_engine_help_assists_total") +
		metricValue(t, text, "nbtried_engine_flag_backtracks_total")
	t.Logf("help=%d contended=%d (GOMAXPROCS=%d)", help, contended, runtime.GOMAXPROCS(0))
	if contended == 0 && runtime.GOMAXPROCS(0) > 1 {
		t.Error("no contention counter moved despite parallel same-key writers")
	}
}

func TestSlowlogCommands(t *testing.T) {
	t.Run("conn", slowlogCommands)
}

func slowlogCommands(t *testing.T) {
	_, addr := startServer(t, Config{
		SlowlogSlowerThanUS: SlowlogAll,
		SlowlogMaxLen:       4,
	})
	c := dial(t, addr)
	c.mustSimple("OK", "SET", "a", "1")
	c.mustBulk("1", "GET", "a")

	v := c.do("SLOWLOG", "GET")
	if v.Kind != resp.TypeArray || len(v.Array) < 2 {
		t.Fatalf("SLOWLOG GET = %s, want >=2 entries", v)
	}
	// Newest first: entry 0 is the GET, entry 1 the SET. Each entry
	// is [id, unix-ts, duration-us, args...].
	e := v.Array[0]
	if e.Kind != resp.TypeArray || len(e.Array) != 4 {
		t.Fatalf("entry = %s, want 4 fields", e)
	}
	if e.Array[0].Kind != resp.TypeInt || e.Array[2].Kind != resp.TypeInt {
		t.Fatalf("entry ids/durations not integers: %s", e)
	}
	args := e.Array[3]
	if args.Kind != resp.TypeArray || len(args.Array) != 2 ||
		!strings.EqualFold(string(args.Array[0].Str), "GET") {
		t.Fatalf("newest entry args = %s, want [GET a]", args)
	}

	// LEN is capped at SlowlogMaxLen; the ring keeps the newest.
	for i := 0; i < 10; i++ {
		c.mustSimple("OK", "SET", fmt.Sprintf("k%d", i), "v")
	}
	lv := c.do("SLOWLOG", "LEN")
	if lv.Kind != resp.TypeInt || lv.Int != 4 {
		t.Fatalf("SLOWLOG LEN = %s, want 4", lv)
	}

	// GET n limits, GET -1 returns all.
	if got := c.do("SLOWLOG", "GET", "2"); len(got.Array) != 2 {
		t.Fatalf("SLOWLOG GET 2 returned %d entries", len(got.Array))
	}
	if got := c.do("SLOWLOG", "GET", "-1"); len(got.Array) != 4 {
		t.Fatalf("SLOWLOG GET -1 returned %d entries, want 4", len(got.Array))
	}

	// With SlowlogAll the RESET itself is logged after it empties
	// the ring (Redis does the same with slowlog-log-slower-than 0).
	c.mustSimple("OK", "SLOWLOG", "RESET")
	c.mustInt(1, "SLOWLOG", "LEN")
	c.mustErrContain("unknown SLOWLOG subcommand", "SLOWLOG", "HELP")
	c.mustErrContain("count should be >= -1", "SLOWLOG", "GET", "-5")
}

func TestSlowlogTruncation(t *testing.T) {
	_, addr := startServer(t, Config{SlowlogSlowerThanUS: SlowlogAll})
	c := dial(t, addr)
	// 40 arguments (MSET k v ×...): the entry keeps 31 + a marker.
	args := []string{"MSET"}
	for i := 0; i < 20; i++ {
		args = append(args, fmt.Sprintf("k%d", i), strings.Repeat("x", 200))
	}
	c.mustSimple("OK", args...)
	v := c.do("SLOWLOG", "GET", "1")
	entry := v.Array[0].Array[3]
	if len(entry.Array) != slowlogMaxArgs {
		t.Fatalf("logged %d args, want %d (31 + marker)", len(entry.Array), slowlogMaxArgs)
	}
	last := string(entry.Array[slowlogMaxArgs-1].Str)
	if !strings.Contains(last, "more arguments)") {
		t.Errorf("last arg = %q, want truncation marker", last)
	}
	// The 200-byte values are cut to 128 + a byte marker.
	val := string(entry.Array[2].Str)
	if !strings.HasPrefix(val, strings.Repeat("x", slowlogMaxArgLen)) || !strings.Contains(val, "(72 more bytes)") {
		t.Errorf("value arg = %q, want 128 x's + (72 more bytes) marker", val)
	}
}

func TestSlowlogDisabled(t *testing.T) {
	_, addr := startServer(t, Config{SlowlogSlowerThanUS: SlowlogOff})
	c := dial(t, addr)
	c.mustSimple("OK", "SET", "a", "1")
	c.mustInt(0, "SLOWLOG", "LEN")
}

func TestInfoSectionFiltering(t *testing.T) {
	_, addr := startServer(t, Config{})
	c := dial(t, addr)
	c.mustSimple("OK", "SET", "a", "1")
	c.mustBulk("1", "GET", "a")

	full := c.do("INFO")
	if full.Kind != resp.TypeBulk {
		t.Fatalf("INFO = %s, want bulk", full)
	}
	for _, h := range []string{
		"# Server", "# Clients", "# Stats", "# Commandstats",
		"# Latencystats", "# Expiry", "# Persistence", "# Engine", "# Keyspace",
	} {
		if !strings.Contains(string(full.Str), h+"\r\n") {
			t.Errorf("INFO missing section header %q", h)
		}
	}

	// One section: exactly that header, no others.
	one := c.do("INFO", "persistence")
	if one.Kind != resp.TypeBulk {
		t.Fatalf("INFO persistence = %s, want bulk", one)
	}
	body := string(one.Str)
	if !strings.HasPrefix(body, "# Persistence\r\n") {
		t.Fatalf("INFO persistence = %q, want only the Persistence section", body)
	}
	if strings.Count(body, "# ") != 1 {
		t.Errorf("INFO persistence contains extra sections: %q", body)
	}

	// Case-insensitive, Redis-style.
	if u := c.do("INFO", "KEYSPACE"); !strings.HasPrefix(string(u.Str), "# Keyspace\r\n") {
		t.Errorf("INFO KEYSPACE = %q, want the Keyspace section", u.Str)
	}

	// Unknown section: empty bulk, not an error.
	unknown := c.do("INFO", "nosuchsection")
	if unknown.Kind != resp.TypeBulk || len(unknown.Str) != 0 {
		t.Fatalf("INFO nosuchsection = %s, want empty bulk", unknown)
	}

	// "all"/"default"/"everything" behave like no argument.
	for _, sel := range []string{"all", "default", "everything"} {
		v := c.do("INFO", sel)
		if !strings.Contains(string(v.Str), "# Keyspace\r\n") || !strings.Contains(string(v.Str), "# Server\r\n") {
			t.Errorf("INFO %s missing sections", sel)
		}
	}

	c.mustErrContain("wrong number of arguments", "INFO", "a", "b")

	// Commandstats reflects the commands this test ran.
	cs := c.do("INFO", "commandstats")
	if !strings.Contains(string(cs.Str), "cmdstat_set:calls=1,") {
		t.Errorf("INFO commandstats = %q, want cmdstat_set:calls=1", cs.Str)
	}
	if !strings.Contains(string(cs.Str), "cmdstat_get:calls=1,") {
		t.Errorf("INFO commandstats = %q, want cmdstat_get:calls=1", cs.Str)
	}
	ls := c.do("INFO", "latencystats")
	if !strings.Contains(string(ls.Str), "latency_percentiles_usec_get:p50=") {
		t.Errorf("INFO latencystats = %q, want get percentiles", ls.Str)
	}
}

func TestInfoEngineSection(t *testing.T) {
	_, addr := startServer(t, Config{Shards: 4})
	c := dial(t, addr)
	for i := 0; i < 64; i++ {
		c.mustSimple("OK", "SET", fmt.Sprintf("key%03d", i), "v")
	}
	v := c.do("INFO", "engine")
	body := string(v.Str)
	for _, want := range []string{
		"engine_help_total:", "engine_help_assists_total:",
		"engine_child_cas_failures_total:", "engine_op_retries_total:",
		"engine_depth_samples:", "engine_depth_p50:",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("INFO engine missing %q in %q", want, body)
		}
	}
	if !strings.Contains(body, "engine_shard0_help:") && !strings.Contains(body, "engine_shard") {
		t.Errorf("INFO engine missing per-shard breakdown: %q", body)
	}
}

// TestCommandLabels pins the per-command metric labels, in order.
// benchmark/ checks nbtried_commands_total{cmd=...} against the
// commands it sent, by these names, so renaming a row must fail here
// rather than there.
func TestCommandLabels(t *testing.T) {
	want := []string{
		"get", "set", "del", "exists", "mget", "mset", "ping", "quit",
		"dbsize", "scan", "rename", "renamestrict", "expire", "pexpire",
		"expireat", "pexpireat", "ttl", "pttl", "persist", "setex", "getex",
		"save", "bgsave", "lastsave", "info", "slowlog", "other",
	}
	var labels []string
	for ci := range len(commands) + 1 {
		labels = append(labels, cmdLabel(ci))
	}
	if !slices.Equal(labels, want) {
		t.Fatalf("table labels = %v\nwant %v", labels, want)
	}

	// Call every row once, plus an unknown word: each label must show up
	// once in INFO commandstats and in /metrics.
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ss := newSession(s, resp.NewWriter(bufio.NewWriter(io.Discard)))
	for _, c := range commands {
		ss.dispatch([][]byte{[]byte(c.name)})
	}
	ss.dispatch([][]byte{[]byte("NOSUCHCMD")})
	var stats []string
	for _, line := range strings.Split(s.infoText("commandstats"), "\r\n") {
		if rest, ok := strings.CutPrefix(line, "cmdstat_"); ok {
			name, _, _ := strings.Cut(rest, ":")
			stats = append(stats, name)
		}
	}
	if !slices.Equal(stats, want) {
		t.Errorf("INFO commandstats labels = %v\nwant %v", stats, want)
	}
	text := metricsText(t, s)
	for _, l := range want {
		if v := metricValue(t, text, fmt.Sprintf("nbtried_commands_total{cmd=%q}", l)); v != 1 {
			t.Errorf("commands_total{cmd=%q} = %d, want 1", l, v)
		}
	}
}
