package main

import (
	"nbtrie/internal/workload"
)

// metricDef is one named metric: BENCHMARK.json lists exactly these, and
// spec_test.go keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd are the metrics a user of the stack sees; every workload
// reports every one of them from an untraced run. Bounds are the share of
// the parent's median by which a later change may worsen the metric.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"allocs_per_op", "count", "lower", 0.15},
	{"alloc_bytes_per_op", "B", "lower", 0.15},
	{"heap_bytes_per_key", "B", "lower", 0.05},
}

// perLayer are the metrics of single layers, reported by the traced run.
// A metric whose layer a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{Name: "engine.cpu_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "engine.ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "engine.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "engine.alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "engine.mean_depth", Unit: "count", Better: "lower"},
	{Name: "engine.help_per_kop", Unit: "count", Better: "lower"},
	{Name: "engine.help_assists_per_kop", Unit: "count", Better: "lower"},
	{Name: "engine.cas_failures_per_kop", Unit: "count", Better: "lower"},
	{Name: "engine.flag_backtracks_per_kop", Unit: "count", Better: "lower"},
	{Name: "engine.op_retries_per_kop", Unit: "count", Better: "lower"},
	{Name: "engine.snapshot_renewals_per_kop", Unit: "count", Better: "lower"},
	{Name: "engine.update_success_share", Unit: "ratio", Better: "higher"},
	{Name: "engine.op_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.op_p99_ns", Unit: "ns", Better: "lower"},

	{Name: "sharded.cpu_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "sharded.self_cpu_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "sharded.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "sharded.shard_imbalance", Unit: "ratio", Better: "lower"},

	{Name: "resp.parse_ns_per_cmd", Unit: "ns", Better: "lower"},
	{Name: "resp.encode_ns_per_reply", Unit: "ns", Better: "lower"},
	{Name: "resp.allocs_per_cmd", Unit: "count", Better: "lower"},
	{Name: "resp.bytes_in_per_op", Unit: "B", Better: "lower"},
	{Name: "resp.bytes_out_per_op", Unit: "B", Better: "lower"},

	{Name: "expiry.lookup_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "expiry.set_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "expiry.armed_keys", Unit: "count", Better: "lower"},
	{Name: "expiry.expired_keys", Unit: "count", Better: "higher"},
	{Name: "expiry.reaper_passes", Unit: "count", Better: "lower"},
	{Name: "expiry.reaper_pass_mean_us", Unit: "us", Better: "lower"},

	{Name: "loadgen.cpu_ns_per_op", Unit: "ns", Better: "lower"},

	{Name: "server.cpu_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "server.self_cpu_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "server.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "server.cmd_p50_us", Unit: "us", Better: "lower"},
	{Name: "server.cmd_p99_us", Unit: "us", Better: "lower"},
	{Name: "server.cmds_counted", Unit: "count", Better: "higher"},
	{Name: "server.errors", Unit: "count", Better: "lower"},

	{Name: "wire.cpu_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "wire.self_cpu_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "wire.flushes_per_op", Unit: "count", Better: "lower"},
	{Name: "wire.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "wire.encode_share", Unit: "ratio", Better: "lower"},
	{Name: "wire.wait_share", Unit: "ratio", Better: "lower"},
	{Name: "wire.decode_share", Unit: "ratio", Better: "lower"},
	{Name: "wire.rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "wire.rtt_pmax_us", Unit: "us", Better: "lower"},
	{Name: "wire.rtt_pmax_pct", Unit: "%", Better: "higher"},
	{Name: "wire.rtt_samples", Unit: "count", Better: "higher"},

	{Name: "persist.cpu_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "persist.self_cpu_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "persist.aof_bytes_per_write", Unit: "B", Better: "lower"},
	{Name: "persist.write_amplification", Unit: "ratio", Better: "lower"},
	{Name: "persist.commits_per_kop", Unit: "count", Better: "lower"},
	{Name: "persist.commit_mean_us", Unit: "us", Better: "lower"},
	{Name: "persist.commit_p99_us", Unit: "us", Better: "lower"},
	{Name: "persist.bgsave_count", Unit: "count", Better: "higher"},
	{Name: "persist.bgsave_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "persist.dump_bytes_per_key", Unit: "B", Better: "lower"},
	{Name: "persist.replay_records_per_s", Unit: "1/s", Better: "higher"},
	{Name: "persist.recover_s", Unit: "s", Better: "lower"},

	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cpu_share", Unit: "ratio", Better: "lower"},

	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.waterfall_residual_share", Unit: "ratio", Better: "lower"},
}

// workloadSpec is one named traffic mix. Exactly one of lib and srv is set.
type workloadSpec struct {
	Name string
	Why  string
	lib  *libSpec
	srv  *srvSpec
}

// libSpec drives nbtrie.Map[uint64] in process.
type libSpec struct {
	mix      workload.Mix
	keyRange uint64
	sharded  bool // the traced run also drives a ShardedMap (H1)
}

// srvSpec drives the server over RESP. The workload.Mix fields are reused
// for the wire commands: Insert = SET, Delete = DEL, Find = GET and
// Replace = SETEX with a 2-second deadline.
type srvSpec struct {
	mix      workload.Mix
	keyRange uint64
	depth    int  // commands per pipelined batch
	durable  bool // AOF everysec in a scratch directory plus a BGSAVE every 125000 operations
}

const (
	valueSize    = 64
	setexSeconds = 2
)

var workloads = []workloadSpec{
	{
		Name: "lib-read-1m",
		Why:  "paper mix i5-d5-f90 on Map[uint64] over 2^20 keys: out of cache, so node layout, span and depth changes show here; the engine is all of the path",
		lib:  &libSpec{mix: workload.MixI5D5F90, keyRange: 1 << 20, sharded: true},
	},
	{
		Name: "lib-replace-hot",
		Why:  "paper mix i10-d10-r80 (ReplaceKey) over 100 keys: the update path under contention on an L1-resident trie; allocation, flag/help and retry changes show here and not on lib-read-1m",
		lib:  &libSpec{mix: workload.MixI10D10R80, keyRange: 100},
	},
	{
		Name: "srv-get-pipelined",
		Why:  "loopback RESP, pipeline 16, GET 90 / SET 10 over 100000 keys, persistence off: syscalls are amortised 16 times, so parser, dispatch and command-table work shows here",
		srv:  &srvSpec{mix: workload.Mix{InsertPct: 10, FindPct: 90}, keyRange: 100000, depth: 16},
	},
	{
		Name: "srv-rtt",
		Why:  "same server and mix at pipeline 1: a true round trip per request, so the wire (two syscalls and a wake-up per op) dominates; bypasses what srv-get-pipelined stresses",
		srv:  &srvSpec{mix: workload.Mix{InsertPct: 10, FindPct: 90}, keyRange: 100000, depth: 1},
	},
	{
		Name: "srv-write-durable",
		Why:  "loopback RESP with AOF everysec, pipeline 16, SET 45 / SETEX 15 / DEL 10 / GET 30 and a BGSAVE every 125000 ops: group commit, expiry, snapshots and recovery all under load",
		srv:  &srvSpec{mix: workload.Mix{InsertPct: 45, ReplacePct: 15, DeletePct: 10, FindPct: 30}, keyRange: 100000, depth: 16, durable: true},
	},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
