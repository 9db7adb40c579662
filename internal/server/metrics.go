package server

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"nbtrie/internal/obs"
)

// This file holds the server's statistics: the metrics registry the
// record paths write, wait-free and zero-alloc, and the stats table the
// two views read. Every scalar statistic is one row of the table, named
// once for INFO (section and key) and for /metrics (family and HELP) and
// read once per render. infoText and WriteMetrics are loops over the
// rows, plus the per-command lines and histograms that have no scalar
// form; writeHist states the one rule for histogram bucket bounds.

// metrics is the server's always-on counter registry. Per-command call
// and error counters are striped by connection (obs.Striped) so a busy
// multi-core server's connections don't serialize on a shared cache
// line; latency histograms are one obs.Hist per command (each Record is
// two atomic adds). Every record path here is wait-free and zero-alloc —
// the same discipline as the engine counters — which is what lets the
// server keep its pinned 0-alloc GET/EXISTS/DEL/MGET paths with metrics
// permanently enabled.
type metrics struct {
	// One slot per command-table row plus "other" (see cmdLabel).
	cmdCalls *obs.Striped // per-command dispatches
	cmdErrs  *obs.Striped // error replies per command
	latency  []obs.Hist   // per-command latency, microseconds

	bytesIn  obs.Counter // socket reads (per fill, not per command)
	bytesOut obs.Counter // socket writes

	aofCommit obs.Hist // commitAOF duration, microseconds (batches with work)

	// connSeq hands each new session a stripe index.
	connSeq atomic.Uint32
}

func newMetrics() *metrics {
	n := len(commands) + 1
	return &metrics{
		cmdCalls: obs.NewStriped(n),
		cmdErrs:  obs.NewStriped(n),
		latency:  make([]obs.Hist, n),
	}
}

// record accounts one dispatched command: a call, its latency and any
// error replies it produced. Wait-free, zero-alloc.
func (m *metrics) record(stripe uint32, ci int, d time.Duration, errs int64) {
	m.cmdCalls.Inc(stripe, ci)
	if errs > 0 {
		m.cmdErrs.Add(stripe, ci, errs)
	}
	m.latency[ci].Record(uint64(d.Microseconds()))
}

// stat is one row of the statistics table. INFO shows it as the line
// key:val in its section; /metrics, when family is set, as that family
// with help as its HELP text: a counter when the name ends in _total, a
// gauge otherwise, or a histogram once it has samples when val is an
// obs.HistSnapshot (such rows have no section).
type stat struct {
	section, key string
	family, help string
	val          any
}

// infoTitles is INFO's section order. Commandstats and Latencystats
// have no rows: infoText renders them from the per-command counters.
var infoTitles = []string{"Server", "Clients", "Stats", "Commandstats",
	"Latencystats", "Expiry", "Persistence", "Engine", "Keyspace"}

// stats reads every statistic once, each section's rows in INFO order.
func (s *Server) stats() []stat {
	m := s.met
	var calls, errs int64 // every dispatch counts in cmdCalls, unknown words as "other"
	for ci := range m.latency {
		calls += m.cmdCalls.Load(ci)
		errs += m.cmdErrs.Load(ci)
	}
	expired, passes := s.db.Stats()
	es := s.db.EngineStats()
	depth := obs.HistSnapshot{Buckets: es.DepthBuckets, Count: es.DepthSamples, Sum: es.DepthSum}
	aofOn := s.pst != nil && s.pst.aofOn
	rows := []stat{
		{"Server", "nbtried_version", "", "", Version},
		{"Server", "engine", "", "", "nbtrie-patricia"},
		{"Server", "keyer", "", "", "bytes"},
		{"Server", "key_width_bits", "", "", BytesKeyer{}.Width()},
		{"Server", "uptime_in_seconds", "nbtried_uptime_seconds",
			"Seconds since the server started.", int64(time.Since(s.start).Seconds())},
		{"Clients", "connected_clients", "nbtried_connected_clients",
			"Currently open client connections.", s.connectedClients()},
		{"Stats", "total_connections_received", "nbtried_connections_total",
			"Connections accepted since start.", s.totalConns.Load()},
		{"Stats", "total_commands_processed", "", "", calls},
		{"Stats", "total_error_replies", "", "", errs},
		{"Stats", "total_net_input_bytes", "nbtried_net_input_bytes_total",
			"Bytes read from client sockets.", m.bytesIn.Load()},
		{"Stats", "total_net_output_bytes", "nbtried_net_output_bytes_total",
			"Bytes written to client sockets.", m.bytesOut.Load()},
		{"Stats", "slowlog_len", "nbtried_slowlog_entries",
			"Entries currently in the slowlog ring.", s.slog.len()},
		{"Expiry", "keys_with_ttl", "nbtried_keys_with_ttl",
			"Keys with an armed deadline.", s.db.ArmedKeys()},
		{"Expiry", "expired_keys", "nbtried_expired_keys_total",
			"Keys expired (lazy + reaper).", expired},
		{"Expiry", "reaper_passes", "nbtried_reaper_passes_total",
			"Reaper passes: one sweep tick's batches, or one full pass.", passes.Count},
		{"", "", "nbtried_reaper_pass_duration_seconds",
			"Reaper pass duration.", passes},
		{"Persistence", "persistence_dir", "", "", s.cfg.Persist.Dir},
		{"Persistence", "aof_enabled", "nbtried_aof_enabled",
			"Whether the append-only file is enabled.", flag(aofOn)},
		{"", "", "nbtried_aof_commit_duration_seconds",
			"AOF group-commit duration.", m.aofCommit.Snapshot()},
		{"Engine", "engine_help_total", "nbtried_engine_help_total",
			"help() executions (initiators + helpers).", es.Help},
		{"Engine", "engine_help_assists_total", "nbtried_engine_help_assists_total",
			"Operations that completed another operation's work.", es.HelpAssists},
		{"Engine", "engine_child_cas_failures_total", "nbtried_engine_child_cas_failures_total",
			"Child CASes lost to a racing helper.", es.ChildCASFailures},
		{"Engine", "engine_flag_backtracks_total", "nbtried_engine_flag_backtracks_total",
			"help() executions that failed flagging and unwound.", es.FlagBacktracks},
		{"Engine", "engine_op_retries_total", "nbtried_engine_op_retries_total",
			"Mutator retry-loop iterations past the first.", es.OpRetries},
		{"", "", "nbtried_engine_depth",
			"Trie descent depth per mutation (levels, not seconds).", depth},
		{"Engine", "engine_depth_samples", "", "", es.DepthSamples},
		{"Engine", "engine_depth_p50", "", "", depth.Quantile(0.50)},
		{"Engine", "engine_depth_p99", "", "", depth.Quantile(0.99)},
		{"Keyspace", "db0", "nbtried_keys", "Live keys in the map.", dbKeys(s.db.Len())},
	}
	// A data directory adds the rest of the Persistence section; INFO
	// puts each row in its section, so appending keeps their order.
	if p := s.pst; p != nil {
		var size int64
		segs := 0
		if p.aofOn {
			if a := p.aof.Load(); a != nil {
				size = a.Size()
			}
			p.mu.Lock()
			segs = p.dir.Segments()
			p.mu.Unlock()
		}
		rows = append(rows,
			stat{"Persistence", "aof_fsync", "", "", s.cfg.Persist.Fsync},
			stat{"Persistence", "aof_current_size", "", "", size},
			stat{"Persistence", "aof_segments", "", "", segs},
			stat{"Persistence", "aof_last_write_status", "", "", p.aofStatus.Load()},
			stat{"Persistence", "rdb_bgsave_in_progress", "", "", flag(p.bgActive.Load())},
			stat{"Persistence", "rdb_last_save_time", "", "", p.lastSave.Load()},
			stat{"Persistence", "rdb_last_bgsave_status", "", "", p.saveStatus.Load()})
	}
	return rows
}

// dbKeys is the keyspace row's value. INFO shows it Redis's way, keys=N,
// through String; /metrics prints every value with %d, which does not
// call String.
type dbKeys int

func (n dbKeys) String() string { return fmt.Sprintf("keys=%d", int(n)) }

// flag shows a boolean statistic as 0 or 1.
func flag(on bool) int {
	if on {
		return 1
	}
	return 0
}

// infoText renders the INFO reply. section is the already-lowercased
// requested section; "" (no argument), "all", "default" and
// "everything" render every section, any other name renders exactly
// that section, and an unknown name renders nothing (the caller's empty
// bulk reply — Redis semantics).
func (s *Server) infoText(section string) string {
	all := section == "" || section == "all" || section == "default" || section == "everything"
	rows := s.stats()
	var b strings.Builder
	for _, title := range infoTitles {
		if !all && strings.ToLower(title) != section {
			continue
		}
		if b.Len() > 0 {
			b.WriteString("\r\n")
		}
		b.WriteString("# " + title + "\r\n")
		for _, r := range rows {
			if r.section == title {
				fmt.Fprintf(&b, "%s:%v\r\n", r.key, r.val)
			}
		}
		switch title {
		case "Commandstats":
			s.commandstatsText(&b)
		case "Latencystats":
			s.latencystatsText(&b)
		}
	}
	return b.String()
}

// WriteMetrics renders the table's families, then the per-command ones,
// in the Prometheus text exposition format. Scrape-side code allocates
// freely; only the record paths are pinned.
func (s *Server) WriteMetrics(w io.Writer) {
	m := s.met
	var b strings.Builder
	b.Grow(16 << 10)
	for _, r := range s.stats() {
		h, hist := r.val.(obs.HistSnapshot)
		switch {
		case r.family == "" || hist && h.Count == 0:
		case hist:
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s histogram\n", r.family, r.help, r.family)
			writeHist(&b, r.family, "", h)
		default:
			typ := "gauge"
			if strings.HasSuffix(r.family, "_total") {
				typ = "counter"
			}
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", r.family, r.help, r.family, typ, r.family, r.val)
		}
	}

	b.WriteString("# HELP nbtried_commands_total Commands dispatched, by command.\n" +
		"# TYPE nbtried_commands_total counter\n")
	for ci := range m.latency {
		if n := m.cmdCalls.Load(ci); n > 0 {
			fmt.Fprintf(&b, "nbtried_commands_total{cmd=%q} %d\n", cmdLabel(ci), n)
		}
	}
	b.WriteString("# HELP nbtried_command_errors_total Error replies, by command.\n" +
		"# TYPE nbtried_command_errors_total counter\n")
	for ci := range m.latency {
		if n := m.cmdErrs.Load(ci); n > 0 {
			fmt.Fprintf(&b, "nbtried_command_errors_total{cmd=%q} %d\n", cmdLabel(ci), n)
		}
	}
	b.WriteString("# HELP nbtried_command_latency_seconds Command latency, by command.\n" +
		"# TYPE nbtried_command_latency_seconds histogram\n")
	for ci := range m.latency {
		if snap := m.latency[ci].Snapshot(); snap.Count > 0 {
			writeHist(&b, "nbtried_command_latency_seconds", fmt.Sprintf("cmd=%q", cmdLabel(ci)), snap)
		}
	}
	io.WriteString(w, b.String())
}

// promMaxBucket caps the exposed `le` boundaries: 2^40 µs ≈ 13 days of
// latency is beyond any real observation, and the +Inf bucket absorbs
// the tail, so higher boundaries only bloat the scrape.
const promMaxBucket = 40

// writeHist renders a log2 histogram (bucket b holds samples in
// [2^(b-1), 2^b), bucket 0 the zeros) as a Prometheus histogram. It
// leaves out the bounds of empty buckets past bucket 0: Prometheus needs
// the le set cumulative, not dense. The family's name says what a sample
// is. A *_seconds family holds durations truncated to whole microseconds
// (d.Microseconds()): the duration behind a sample in bucket b was under
// 2^b µs, so that is its bound, shown in seconds. Any other family holds
// exact integers (depths): the largest in bucket b is 2^b − 1, and that
// is its bound.
func writeHist(b *strings.Builder, name, label string, s obs.HistSnapshot) {
	seconds := strings.HasSuffix(name, "_seconds")
	num := func(v uint64) string {
		if seconds {
			return strconv.FormatFloat(float64(v)/1e6, 'g', -1, 64)
		}
		return strconv.FormatUint(v, 10)
	}
	lbl, plain := "", ""
	if label != "" {
		lbl = label + ","
		plain = "{" + label + "}"
	}
	var cum int64
	for i := 0; i < obs.NumBuckets && i <= promMaxBucket; i++ {
		cum += s.Buckets[i]
		if s.Buckets[i] == 0 && i > 0 {
			continue
		}
		le := obs.BucketUpper(i)
		if !seconds {
			le--
		}
		fmt.Fprintf(b, "%s_bucket{%sle=\"%s\"} %d\n", name, lbl, num(le), cum)
	}
	fmt.Fprintf(b, "%s_bucket{%sle=\"+Inf\"} %d\n", name, lbl, s.Count)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, plain, num(uint64(s.Sum)))
	fmt.Fprintf(b, "%s_count%s %d\n", name, plain, s.Count)
}

// MetricsHandler serves WriteMetrics over HTTP (the /metrics endpoint).
func (s *Server) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.WriteMetrics(w)
	})
}

// commandstatsText renders the INFO # Commandstats section body.
func (s *Server) commandstatsText(b *strings.Builder) {
	m := s.met
	for ci := range m.latency {
		calls := m.cmdCalls.Load(ci)
		if calls == 0 {
			continue
		}
		snap := m.latency[ci].Snapshot()
		perCall := float64(0)
		if snap.Count > 0 {
			perCall = float64(snap.Sum) / float64(snap.Count)
		}
		fmt.Fprintf(b, "cmdstat_%s:calls=%d,usec=%d,usec_per_call=%.2f,errors=%d\r\n",
			cmdLabel(ci), calls, snap.Sum, perCall, m.cmdErrs.Load(ci))
	}
}

// latencystatsText renders the INFO # Latencystats section body.
func (s *Server) latencystatsText(b *strings.Builder) {
	m := s.met
	for ci := range m.latency {
		snap := m.latency[ci].Snapshot()
		if snap.Count == 0 {
			continue
		}
		fmt.Fprintf(b, "latency_percentiles_usec_%s:p50=%d,p99=%d,p99.9=%d\r\n",
			cmdLabel(ci), snap.Quantile(0.50), snap.Quantile(0.99), snap.Quantile(0.999))
	}
}
