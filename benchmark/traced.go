package main

import (
	"fmt"
	"os"
	"path/filepath"

	"nbtrie"
)

// The traced run: a workload's op stream replayed through one harness per
// layer, each layer's added cost taken as the difference to the harnesses
// beneath it. End-to-end metrics never come from here.

func zeroPerLayer(res *runResult) {
	for _, d := range perLayer {
		res.Metrics[d.Name] = 0
	}
}

func perK(count int64, ops int64) float64 {
	if ops == 0 {
		return 0
	}
	return float64(count) * 1000 / float64(ops)
}

// engineMetrics reports H0 from a traced window; call it once the harness
// has stopped.
func engineMetrics(res *runResult, h *engineHarness, w engineStretch) {
	m := res.Metrics
	m["engine.cpu_ns_per_op"] = w.cpuNSPerOp()
	m["engine.ns_per_op"] = w.nsPerOp(len(h.workers))
	m["engine.allocs_per_op"] = w.allocsPerOp()
	m["engine.alloc_bytes_per_op"] = w.allocBytesOp()
	if w.stats.DepthSamples > 0 {
		m["engine.mean_depth"] = float64(w.stats.DepthSum) / float64(w.stats.DepthSamples)
	}
	w.collect(h.probes())
	whole := w.whole()
	m["engine.help_per_kop"] = perK(w.stats.Help, whole.ops)
	m["engine.help_assists_per_kop"] = perK(w.stats.HelpAssists, whole.ops)
	m["engine.cas_failures_per_kop"] = perK(w.stats.ChildCASFailures, whole.ops)
	m["engine.flag_backtracks_per_kop"] = perK(w.stats.FlagBacktracks, whole.ops)
	m["engine.op_retries_per_kop"] = perK(w.stats.OpRetries, whole.ops)
	m["engine.snapshot_renewals_per_kop"] = perK(w.stats.SnapshotRenewals, whole.ops)
	m["engine.update_success_share"] = h.updateSuccessShare()
	m["engine.op_p50_ns"] = whole.latencyNS(50)
	m["engine.op_p99_ns"] = whole.latencyNS(99)
	res.note("engine.op_p50_ns and engine.op_p99_ns are over %d operations timed one by one (1 in %d)", len(whole.latency), sampleEvery)
}

func shardedMetrics(res *runResult, h1, h0 engineStretch) {
	m := res.Metrics
	m["sharded.cpu_ns_per_op"] = h1.cpuNSPerOp()
	m["sharded.self_cpu_ns_per_op"] = h1.cpuNSPerOp() - h0.cpuNSPerOp()
	m["sharded.allocs_per_op"] = h1.allocsPerOp()
	m["sharded.shard_imbalance"] = shardImbalance(h1.shards)
}

// shardImbalance is the busiest shard's share of the updates times the
// number of shards: 1 when the shards are evenly used.
func shardImbalance(shards []nbtrie.EngineStats) float64 {
	var total, busiest int64
	for _, s := range shards {
		total += s.DepthSamples
		busiest = max(busiest, s.DepthSamples)
	}
	if total == 0 {
		return 0
	}
	return float64(busiest) * float64(len(shards)) / float64(total)
}

func runtimeMetrics(res *runResult, s stretch) {
	w := s.whole()
	res.Metrics["runtime.gc_cycles"] = float64(w.to.gcCycles - w.from.gcCycles)
	res.Metrics["runtime.gc_cpu_share"] = s.gcCPUShare()
}

// overheadPct is how much slower the traced window ran than the untraced
// halves on either side of it, which cancels a steady drift of the box.
func overheadPct(before, after, traced stretch) float64 {
	untraced := (before.opsPerS() + after.opsPerS()) / 2
	if untraced == 0 {
		return 0
	}
	return (1 - traced.opsPerS()/untraced) * 100
}

// waterfallTerm is one layer's own cost, CPU nanoseconds per operation.
type waterfallTerm struct {
	layer string
	self  float64
}

// waterfall reports how far the layers' own costs are from adding up to the
// outermost harness's cost. Each term is a difference of two measurements,
// so the terms always sum to the outermost cost; what shows that the
// subtraction is not to be trusted is a term below zero (a harness that
// measured cheaper than the one it contains). The residual is the sum of
// those negative parts as a share of the outermost cost.
func waterfall(res *runResult, outermost float64, terms []waterfallTerm) {
	negative := 0.0
	for _, t := range terms {
		res.note("waterfall %-8s self %9.1f ns CPU per op", t.layer, t.self)
		negative += max(0, -t.self)
	}
	res.note("waterfall outermost %9.1f ns CPU per op", outermost)
	residual := 0.0
	if outermost > 0 {
		residual = negative / outermost
	}
	res.Metrics["trace.waterfall_residual_share"] = residual
	if residual > 0.15 {
		res.note("WARNING: trace.waterfall_residual_share %.3f is above 0.15: the layer subtraction is not trustworthy on this run", residual)
	}
}

func runLibTraced(spec *libSpec, o runOpts, res *runResult) error {
	zeroPerLayer(res)
	parts := 2.0
	if spec.sharded {
		parts = 3
	}
	d := seconds(o.seconds / parts)

	h0, err := setupLib(spec, false, o.seed, newEngineWorkers(spec.mix, spec.keyRange, o.seed))
	if err != nil {
		return err
	}
	h0.start()
	warmUp(d)
	before := h0.measure(d/2, false)
	w0 := h0.measure(d, true)
	after := h0.measure(d/2, false)
	h0.stop()
	engineMetrics(res, h0, w0)
	runtimeMetrics(res, w0.stretch)
	res.Metrics["trace.overhead_pct"] = overheadPct(before.stretch, after.stretch, w0.stretch)
	res.Attempted, res.Failed = h0.probes().ops(), h0.lenMismatch()
	traces := []tracedHarness{{h0.name, h0.probes()}}
	terms := []waterfallTerm{{"engine", w0.cpuNSPerOp()}}
	outermost := w0.cpuNSPerOp()

	if spec.sharded {
		h1, err := setupLib(spec, true, o.seed, newEngineWorkers(spec.mix, spec.keyRange, o.seed))
		if err != nil {
			return err
		}
		h1.start()
		warmUp(d)
		w1 := h1.measure(d, true)
		h1.stop()
		shardedMetrics(res, w1, w0)
		res.Attempted += h1.probes().ops()
		res.Failed += h1.lenMismatch()
		traces = append(traces, tracedHarness{h1.name, h1.probes()})
		terms = append(terms, waterfallTerm{"sharded", w1.cpuNSPerOp() - w0.cpuNSPerOp()})
		outermost = w1.cpuNSPerOp()
	}
	waterfall(res, outermost, terms)
	return writeTrace(filepath.Join(o.dir, "trace-"+res.Workload+".json"), res.Workload, o.seed, traces)
}

func runSrvTraced(spec *srvSpec, o runOpts, res *runResult) error {
	zeroPerLayer(res)
	m := res.Metrics
	own := levelTCP
	if spec.durable {
		own = levelDurable
	}
	// H0, H1, H2, H3, H4, H5 and the untraced twin of the workload's own
	// harness share the measured time.
	d := seconds(o.seconds / 7)

	var traces []tracedHarness
	var kv [2]engineStretch
	for i, sharded := range []bool{false, true} {
		h, closeMap, err := setupKV(spec, sharded, newEngineWorkers(spec.mix, spec.keyRange, o.seed))
		if err != nil {
			return err
		}
		h.start()
		warmUp(d)
		kv[i] = h.measure(d, true)
		h.stop()
		if err := closeMap(); err != nil {
			return err
		}
		if !sharded {
			engineMetrics(res, h, kv[i])
		}
		res.Attempted += h.probes().ops()
		traces = append(traces, tracedHarness{h.name, h.probes()})
	}
	shardedMetrics(res, kv[1], kv[0])

	codec, err := measureCodec(spec, o.seed, d/4)
	if err != nil {
		return err
	}
	m["resp.parse_ns_per_cmd"] = codec.parseNS
	m["resp.encode_ns_per_reply"] = codec.encodeNS
	m["resp.allocs_per_cmd"] = codec.parseAllocs
	m["resp.bytes_in_per_op"] = codec.bytesIn
	m["resp.bytes_out_per_op"] = codec.bytesOut
	m["expiry.lookup_ns_per_op"] = codec.expiryLookupNS
	m["expiry.set_ns_per_op"] = codec.expirySetNS
	m["loadgen.cpu_ns_per_op"] = codec.loadgenNS

	var cpu [3]float64 // CPU ns per op of H3, H4, H5
	for _, level := range []srvLevel{levelMem, levelTCP, levelDurable} {
		h := newSrvHarness(spec, level, filepath.Join(o.dir, "data-"+res.Workload), o.seed)
		defer os.RemoveAll(h.dir)
		if err := h.setup(); err != nil {
			return err
		}
		if err := h.start(); err != nil {
			h.shutdown()
			return err
		}
		warmUp(d)
		var before, after srvStretch
		if level == own {
			before = h.measure(d/2, false)
		}
		w := h.measure(d, true)
		if level == own {
			after = h.measure(d/2, false)
		}
		if err := h.stop(); err != nil {
			h.shutdown()
			return err
		}
		check, err := h.finish()
		if err != nil {
			return fmt.Errorf("%s: %w", h.name(), err)
		}
		res.Attempted += check.attempted
		res.Failed += check.failed
		cpu[level] = w.cpuNSPerOp()
		traces = append(traces, tracedHarness{h.name(), h.probes()})

		switch level {
		case levelMem:
			m["server.cpu_ns_per_op"] = w.cpuNSPerOp()
			m["server.allocs_per_op"] = w.allocsPerOp()
		case levelTCP:
			wireMetrics(res, h, w)
		case levelDurable:
			persistMetrics(res, h, w, check)
		}
		if level == own {
			latency := w.hist("nbtried_command_latency_seconds")
			m["server.cmd_p50_us"] = latency.quantile(0.50) * 1e6
			m["server.cmd_p99_us"] = latency.quantile(0.99) * 1e6
			// Snapshots are only ever taken here, by BGSAVE: H0 has none.
			m["engine.snapshot_renewals_per_kop"] = perK(w.engine.SnapshotRenewals, w.ops())
			m["server.cmds_counted"] = float64(check.counted)
			m["server.errors"] = check.errors
			m["expiry.armed_keys"] = w.after["nbtried_keys_with_ttl"]
			m["expiry.expired_keys"] = w.delta("nbtried_expired_keys_total")
			m["expiry.reaper_passes"] = w.delta("nbtried_reaper_passes_total")
			m["expiry.reaper_pass_mean_us"] = w.hist("nbtried_reaper_pass_duration_seconds").mean() * 1e6
			runtimeMetrics(res, w.stretch)
			m["trace.overhead_pct"] = overheadPct(before.stretch, after.stretch, w.stretch)
			res.note("server.cmds_counted is over the life of the %s server; the clients' own count must equal it", h.name())
		}
	}

	serverSelf := cpu[levelMem] - kv[1].cpuNSPerOp() - codec.respPerOp() - codec.expiryPerOp() - codec.loadgenNS
	m["server.self_cpu_ns_per_op"] = serverSelf
	m["wire.self_cpu_ns_per_op"] = cpu[levelTCP] - cpu[levelMem]
	m["persist.self_cpu_ns_per_op"] = cpu[levelDurable] - cpu[levelTCP]
	waterfall(res, cpu[levelDurable], []waterfallTerm{
		{"engine", kv[0].cpuNSPerOp()},
		{"sharded", m["sharded.self_cpu_ns_per_op"]},
		{"resp", codec.respPerOp()},
		{"expiry", codec.expiryPerOp()},
		{"loadgen", codec.loadgenNS},
		{"server", serverSelf},
		{"wire", m["wire.self_cpu_ns_per_op"]},
		{"persist", m["persist.self_cpu_ns_per_op"]},
	})
	return writeTrace(filepath.Join(o.dir, "trace-"+res.Workload+".json"), res.Workload, o.seed, traces)
}

// wireMetrics reports H4: where the client's wall time goes, by span, and
// the round trip as the client sees it.
func wireMetrics(res *runResult, h *srvHarness, w srvStretch) {
	m := res.Metrics
	m["wire.cpu_ns_per_op"] = w.cpuNSPerOp()
	m["wire.flushes_per_op"] = 1 / float64(h.spec.depth)
	w.collect(h.probes())
	whole := w.whole()
	m["wire.bytes_per_op"] = whole.perOp(w.delta("nbtried_net_input_bytes_total") + w.delta("nbtried_net_output_bytes_total"))
	var byName [len(spanNames)]int64
	total := int64(0)
	for _, p := range h.probes() {
		for name, self := range selfByName(p.spans.spans) {
			byName[name] += self
			total += self
		}
	}
	if total > 0 {
		m["wire.encode_share"] = float64(byName[spanEncode]) / float64(total)
		m["wire.wait_share"] = float64(byName[spanWait]) / float64(total)
		m["wire.decode_share"] = float64(byName[spanDecode]) / float64(total)
	}
	rtt := whole.latency
	top := highestPercentile(len(rtt))
	m["wire.rtt_p50_us"] = float64(percentile(rtt, 50)) / 1e3
	m["wire.rtt_pmax_us"] = float64(percentile(rtt, top)) / 1e3
	m["wire.rtt_pmax_pct"] = top
	m["wire.rtt_samples"] = float64(len(rtt))
	res.note("wire.rtt_pmax_us is the %.4g-th percentile of %d round trips, the highest with ten samples beyond it", top, len(rtt))
}

// persistMetrics reports H5 from its window, its saver and its recovery.
func persistMetrics(res *runResult, h *srvHarness, w srvStretch, check srvCheck) {
	m := res.Metrics
	m["persist.cpu_ns_per_op"] = w.cpuNSPerOp()
	s := h.saver
	if h.loadWrites > 0 {
		m["persist.aof_bytes_per_write"] = float64(s.aofBytes) / float64(h.loadWrites)
		m["persist.write_amplification"] = float64(s.aofBytes) / float64(h.loadUserBytes)
	}
	commits := w.hist("nbtried_aof_commit_duration_seconds")
	m["persist.commits_per_kop"] = perK(int64(commits.n), w.ops())
	m["persist.commit_mean_us"] = commits.mean() * 1e6
	m["persist.commit_p99_us"] = commits.quantile(0.99) * 1e6
	m["persist.bgsave_count"] = float64(s.completed)
	if s.completed > 0 {
		m["persist.bgsave_mean_ms"] = s.saveTime.Seconds() * 1e3 / float64(s.completed)
	}
	if s.dumpKeys > 0 {
		m["persist.dump_bytes_per_key"] = float64(s.dumpBytes) / float64(s.dumpKeys)
	}
	m["persist.recover_s"] = check.recovery.seconds
	if check.recovery.seconds > 0 {
		m["persist.replay_records_per_s"] = float64(check.recovery.records) / check.recovery.seconds
	}
	res.note("persist.replay_records_per_s is %d AOF records over the whole of recover_s, dump load included", check.recovery.records)
}
