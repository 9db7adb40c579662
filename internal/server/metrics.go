package server

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"nbtrie/internal/obs"
)

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
	reapPass  obs.Hist // reaper pass duration, microseconds

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

// WriteMetrics renders the full registry — server, command, expiry,
// persistence and engine families — in the Prometheus text exposition
// format. Counters scrape-side allocate freely; only the record paths
// are pinned.
func (s *Server) WriteMetrics(w io.Writer) {
	m := s.met
	var b strings.Builder
	b.Grow(16 << 10)

	fmt.Fprintf(&b, "# HELP nbtried_uptime_seconds Seconds since the server started.\n"+
		"# TYPE nbtried_uptime_seconds gauge\n"+
		"nbtried_uptime_seconds %d\n", int64(time.Since(s.start).Seconds()))
	fmt.Fprintf(&b, "# HELP nbtried_connected_clients Currently open client connections.\n"+
		"# TYPE nbtried_connected_clients gauge\n"+
		"nbtried_connected_clients %d\n", s.connectedClients())
	fmt.Fprintf(&b, "# HELP nbtried_connections_total Connections accepted since start.\n"+
		"# TYPE nbtried_connections_total counter\n"+
		"nbtried_connections_total %d\n", s.totalConns.Load())
	fmt.Fprintf(&b, "# HELP nbtried_net_input_bytes_total Bytes read from client sockets.\n"+
		"# TYPE nbtried_net_input_bytes_total counter\n"+
		"nbtried_net_input_bytes_total %d\n", m.bytesIn.Load())
	fmt.Fprintf(&b, "# HELP nbtried_net_output_bytes_total Bytes written to client sockets.\n"+
		"# TYPE nbtried_net_output_bytes_total counter\n"+
		"nbtried_net_output_bytes_total %d\n", m.bytesOut.Load())

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
		snap := m.latency[ci].Snapshot()
		if snap.Count == 0 {
			continue
		}
		writeHistProm(&b, "nbtried_command_latency_seconds", fmt.Sprintf("cmd=%q", cmdLabel(ci)), snap)
	}

	fmt.Fprintf(&b, "# HELP nbtried_keys Live keys in the map.\n"+
		"# TYPE nbtried_keys gauge\n"+
		"nbtried_keys %d\n", s.db.Len())
	expired, passes := s.exp.Stats()
	fmt.Fprintf(&b, "# HELP nbtried_keys_with_ttl Keys with an armed deadline.\n"+
		"# TYPE nbtried_keys_with_ttl gauge\n"+
		"nbtried_keys_with_ttl %d\n", s.exp.Len())
	fmt.Fprintf(&b, "# HELP nbtried_expired_keys_total Keys expired (lazy + reaper).\n"+
		"# TYPE nbtried_expired_keys_total counter\n"+
		"nbtried_expired_keys_total %d\n", expired)
	fmt.Fprintf(&b, "# HELP nbtried_reaper_passes_total Background reaper passes.\n"+
		"# TYPE nbtried_reaper_passes_total counter\n"+
		"nbtried_reaper_passes_total %d\n", passes)
	if snap := m.reapPass.Snapshot(); snap.Count > 0 {
		b.WriteString("# HELP nbtried_reaper_pass_duration_seconds Reaper pass duration.\n" +
			"# TYPE nbtried_reaper_pass_duration_seconds histogram\n")
		writeHistProm(&b, "nbtried_reaper_pass_duration_seconds", "", snap)
	}

	aofEnabled := 0
	if s.pst != nil && s.pst.aofOn {
		aofEnabled = 1
	}
	fmt.Fprintf(&b, "# HELP nbtried_aof_enabled Whether the append-only file is enabled.\n"+
		"# TYPE nbtried_aof_enabled gauge\n"+
		"nbtried_aof_enabled %d\n", aofEnabled)
	if snap := m.aofCommit.Snapshot(); snap.Count > 0 {
		b.WriteString("# HELP nbtried_aof_commit_duration_seconds AOF group-commit duration.\n" +
			"# TYPE nbtried_aof_commit_duration_seconds histogram\n")
		writeHistProm(&b, "nbtried_aof_commit_duration_seconds", "", snap)
	}

	es := s.db.EngineStats()
	b.WriteString("# HELP nbtried_engine_help_total help() executions (initiators + helpers).\n" +
		"# TYPE nbtried_engine_help_total counter\n")
	fmt.Fprintf(&b, "nbtried_engine_help_total %d\n", es.Help)
	b.WriteString("# HELP nbtried_engine_help_assists_total Operations that completed another operation's work.\n" +
		"# TYPE nbtried_engine_help_assists_total counter\n")
	fmt.Fprintf(&b, "nbtried_engine_help_assists_total %d\n", es.HelpAssists)
	b.WriteString("# HELP nbtried_engine_child_cas_failures_total Child CASes lost to a racing helper.\n" +
		"# TYPE nbtried_engine_child_cas_failures_total counter\n")
	fmt.Fprintf(&b, "nbtried_engine_child_cas_failures_total %d\n", es.ChildCASFailures)
	b.WriteString("# HELP nbtried_engine_flag_backtracks_total help() executions that failed flagging and unwound.\n" +
		"# TYPE nbtried_engine_flag_backtracks_total counter\n")
	fmt.Fprintf(&b, "nbtried_engine_flag_backtracks_total %d\n", es.FlagBacktracks)
	b.WriteString("# HELP nbtried_engine_op_retries_total Mutator retry-loop iterations past the first.\n" +
		"# TYPE nbtried_engine_op_retries_total counter\n")
	fmt.Fprintf(&b, "nbtried_engine_op_retries_total %d\n", es.OpRetries)
	b.WriteString("# HELP nbtried_engine_snapshot_renewals_total Stale-generation nodes renewed after a snapshot.\n" +
		"# TYPE nbtried_engine_snapshot_renewals_total counter\n")
	fmt.Fprintf(&b, "nbtried_engine_snapshot_renewals_total %d\n", es.SnapshotRenewals)
	if es.DepthSamples > 0 {
		depth := obs.HistSnapshot{Buckets: es.DepthBuckets, Count: es.DepthSamples, Sum: es.DepthSum}
		b.WriteString("# HELP nbtried_engine_depth Trie descent depth per mutation (levels, not seconds).\n" +
			"# TYPE nbtried_engine_depth histogram\n")
		writeHistRaw(&b, "nbtried_engine_depth", "", depth)
	}

	fmt.Fprintf(&b, "# HELP nbtried_slowlog_entries Entries currently in the slowlog ring.\n"+
		"# TYPE nbtried_slowlog_entries gauge\n"+
		"nbtried_slowlog_entries %d\n", s.slog.len())

	io.WriteString(w, b.String())
}

// promMaxBucket caps the exposed `le` boundaries: 2^40 µs ≈ 13 days of
// latency is beyond any real observation, and the +Inf bucket absorbs
// the tail, so higher boundaries only bloat the scrape.
const promMaxBucket = 40

// writeHistProm renders a microsecond log2 histogram as a Prometheus
// histogram in SECONDS: bucket b's exclusive upper bound 2^b µs becomes
// le="2^b / 1e6".
func writeHistProm(b *strings.Builder, name, label string, s obs.HistSnapshot) {
	lbl, plain := "", ""
	if label != "" {
		lbl = label + ","
		plain = "{" + label + "}"
	}
	var cum int64
	for i := 0; i < obs.NumBuckets && i <= promMaxBucket; i++ {
		cum += s.Buckets[i]
		if s.Buckets[i] == 0 && i > 0 {
			// Only emit boundaries that close out samples, plus le=1µs so
			// every series has a floor bucket. Prometheus tolerates sparse
			// le sets as long as they are cumulative.
			continue
		}
		le := float64(obs.BucketUpper(i)) / 1e6
		fmt.Fprintf(b, "%s_bucket{%sle=\"%g\"} %d\n", name, lbl, le, cum)
	}
	fmt.Fprintf(b, "%s_bucket{%sle=\"+Inf\"} %d\n", name, lbl, s.Count)
	fmt.Fprintf(b, "%s_sum%s %g\n", name, plain, float64(s.Sum)/1e6)
	fmt.Fprintf(b, "%s_count%s %d\n", name, plain, s.Count)
}

// writeHistRaw renders a unitless log2 histogram (e.g. trie depth) with
// its native bucket bounds.
func writeHistRaw(b *strings.Builder, name, label string, s obs.HistSnapshot) {
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
		fmt.Fprintf(b, "%s_bucket{%sle=\"%d\"} %d\n", name, lbl, obs.BucketUpper(i), cum)
	}
	fmt.Fprintf(b, "%s_bucket{%sle=\"+Inf\"} %d\n", name, lbl, s.Count)
	fmt.Fprintf(b, "%s_sum%s %d\n", name, plain, s.Sum)
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

// engineText renders the INFO # Engine section body: the aggregate
// contention counters plus a per-shard help breakdown (shards with zero
// help traffic are omitted).
func (s *Server) engineText(b *strings.Builder) {
	es := s.db.EngineStats()
	fmt.Fprintf(b, "engine_help_total:%d\r\n", es.Help)
	fmt.Fprintf(b, "engine_help_assists_total:%d\r\n", es.HelpAssists)
	fmt.Fprintf(b, "engine_child_cas_failures_total:%d\r\n", es.ChildCASFailures)
	fmt.Fprintf(b, "engine_flag_backtracks_total:%d\r\n", es.FlagBacktracks)
	fmt.Fprintf(b, "engine_op_retries_total:%d\r\n", es.OpRetries)
	fmt.Fprintf(b, "engine_snapshot_renewals_total:%d\r\n", es.SnapshotRenewals)
	depth := obs.HistSnapshot{Buckets: es.DepthBuckets, Count: es.DepthSamples, Sum: es.DepthSum}
	fmt.Fprintf(b, "engine_depth_samples:%d\r\n", es.DepthSamples)
	fmt.Fprintf(b, "engine_depth_p50:%d\r\n", depth.Quantile(0.50))
	fmt.Fprintf(b, "engine_depth_p99:%d\r\n", depth.Quantile(0.99))
	type shardHelp struct {
		shard int
		help  int64
	}
	var hot []shardHelp
	for i := 0; i < s.db.Shards(); i++ {
		if ss := s.db.ShardEngineStats(i); ss.Help > 0 {
			hot = append(hot, shardHelp{i, ss.Help})
		}
	}
	sort.Slice(hot, func(i, j int) bool { return hot[i].help > hot[j].help })
	for _, h := range hot {
		fmt.Fprintf(b, "engine_shard%d_help:%d\r\n", h.shard, h.help)
	}
}
