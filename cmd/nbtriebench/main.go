// Command nbtriebench is the load generator for nbtried: it drives a
// running server over TCP with a configurable number of client
// connections, each pipelining batches of GET/SET commands over keys
// drawn from the repository's workload generator (internal/workload,
// the same key distributions as the library benchmarks), and reports
// throughput per client count in the same nbtrie-bench/v1 artifact
// format cmd/benchtrie emits — so cmd/benchcheck gates server
// throughput exactly like the library figures.
//
//	nbtried -addr 127.0.0.1:0 -port-file port.txt &
//	nbtriebench -addr "$(cat port.txt)" -json -out .
//	benchcheck -max-drop 90 BENCH_server.json fresh/BENCH_server.json
//
// Keys are rendered as decimal strings, which both built-in keyers
// accept (the bytes keyer as short ASCII; the decimal keyer natively),
// so -key-range must stay below 10^7 when the server runs the default
// bytes keyer (7-byte keys).
//
// The artifact's allocs/op profile pins the *client codec* rather than
// the server (whose allocations the wire hides): allocations per
// encoded+parsed GET (contains), SET (insert) and DEL (delete) round
// trip through internal/resp. Those counts are deterministic, so the
// benchcheck gate keeps them strict while throughput stays tolerant.
//
// -smoke runs a quick correctness battery against a *freshly started,
// empty* server with the default bytes keyer and >= 2 shards (it
// asserts exact DBSIZE/SCAN contents and leaves a few keys behind, so
// it is not rerunnable against the same instance): basic command
// semantics, pipelining, RENAME's atomic same-shard move plus its
// two-phase cross-shard move (RENAMESTRICT keeps the old refusal), and
// a TTL battery (EXPIRE/TTL/PERSIST/SETEX/GETEX, lazy expiry of a past
// deadline). It exercises the same client codec and exits non-zero on
// the first mismatch, which makes it the CI end-to-end check when run
// under -race.
//
// -ttl adds a TTL-churn series to the sweep: a quarter of the write
// side becomes SETEX with a 1-second deadline, so keys expire and are
// lazily purged / reaped underneath the measured GET traffic — the
// expiry subsystem's overhead shows up as a gated series
// ("get90-set10+ttl") instead of silently taxing the main one.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"nbtrie/internal/bench"
	"nbtrie/internal/resp"
	"nbtrie/internal/server"
	"nbtrie/internal/stats"
	"nbtrie/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "nbtriebench:", err)
		os.Exit(1)
	}
}

type options struct {
	addr      string
	clients   []int
	pipeline  int
	valueSize int
	getPct    int
	keyRange  uint64
	duration  time.Duration
	warmup    time.Duration
	trials    int
	seed      uint64
	quick     bool
	jsonOut   bool
	outDir    string
	smoke     bool
	noPrefill bool
	bgsave    bool
	ttl       bool
	ttlChurn  bool // this sweep's writes are SETEX-mixed (set by runBench, not a flag)
	suffix    string
	appendOut bool
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("nbtriebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", "127.0.0.1:6380", "server address (host:port)")
		clientsStr = fs.String("clients", "1,2,4", "comma-separated client-connection counts to sweep")
		pipeline   = fs.Int("pipeline", 16, "pipeline depth: commands in flight per connection")
		valueSize  = fs.Int("value-size", 64, "SET value size in bytes")
		getPct     = fs.Int("get-pct", 90, "percentage of GETs; the rest are SETs")
		keyRange   = fs.Uint64("key-range", 100_000, "keys drawn uniformly from [0, key-range)")
		duration   = fs.Duration("duration", 2*time.Second, "measured time per trial")
		warmup     = fs.Duration("warmup", 500*time.Millisecond, "warmup before the trials of each point")
		trials     = fs.Int("trials", 3, "measured trials per point")
		seed       = fs.Uint64("seed", 1, "workload seed")
		quick      = fs.Bool("quick", false, "tiny sweep for smoke/CI use (shrinks duration, trials, clients, key range)")
		jsonOut    = fs.Bool("json", false, "write the BENCH_server.json artifact")
		outDir     = fs.String("out", ".", "artifact output directory")
		smoke      = fs.Bool("smoke", false, "run the correctness battery instead of the benchmark (needs a fresh empty server with the default bytes keyer)")
		noPrefill  = fs.Bool("no-prefill", false, "skip prefilling every other key before measuring")
		bgsave     = fs.Bool("bgsave", false, "fire BGSAVE every 100ms during every trial (server must run with -dir); measures dump-under-load throughput")
		ttl        = fs.Bool("ttl", false, "add a TTL-churn series: 1/4 of writes become SETEX with a 1s deadline, so expiry runs under the measured load")
		suffix     = fs.String("series-suffix", "", "appended to every series name (e.g. \"-kary\" when benchmarking a -span 4 server)")
		appendFl   = fs.Bool("append", false, "with -json: merge series into an existing artifact instead of overwriting it (same-name series are replaced)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	opt := options{
		addr: *addr, pipeline: *pipeline, valueSize: *valueSize,
		getPct: *getPct, keyRange: *keyRange, duration: *duration,
		warmup: *warmup, trials: *trials, seed: *seed, quick: *quick,
		jsonOut: *jsonOut, outDir: *outDir, smoke: *smoke, noPrefill: *noPrefill,
		bgsave: *bgsave, ttl: *ttl, suffix: *suffix, appendOut: *appendFl,
	}
	for _, f := range strings.Split(*clientsStr, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return fmt.Errorf("bad -clients entry %q", f)
		}
		opt.clients = append(opt.clients, n)
	}
	if opt.quick {
		opt.duration = 200 * time.Millisecond
		opt.warmup = 50 * time.Millisecond
		opt.trials = 1
		opt.keyRange = 10_000
		opt.clients = []int{1, 2}
	}
	if opt.getPct < 0 || opt.getPct > 100 {
		return fmt.Errorf("-get-pct %d out of [0, 100]", opt.getPct)
	}
	if opt.pipeline < 1 {
		return fmt.Errorf("-pipeline must be >= 1")
	}
	if opt.smoke {
		if err := runSmoke(opt.addr); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "smoke ok")
		return nil
	}
	return runBench(opt, stdout)
}

// client is one benchmark connection with the shared codec.
type client struct {
	conn net.Conn
	r    *bufio.Reader
	w    *resp.Writer
}

func dialClient(addr string) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &client{
		conn: conn,
		r:    bufio.NewReaderSize(conn, 64<<10),
		w:    resp.NewWriter(bufio.NewWriterSize(conn, 64<<10)),
	}, nil
}

func (c *client) close() { c.conn.Close() }

// do sends one command and reads one reply (setup paths only; the
// benchmark loop pipelines by hand).
func (c *client) do(args ...string) (resp.Value, error) {
	c.w.WriteCommandString(args...)
	if err := c.w.Flush(); err != nil {
		return resp.Value{}, err
	}
	return resp.ReadReply(c.r, resp.Limits{})
}

// prefill stores a value under every other key so GETs hit about half
// the time, mirroring the library harness's half-full prefill.
func prefill(opt options) error {
	c, err := dialClient(opt.addr)
	if err != nil {
		return err
	}
	defer c.close()
	val := string(bytes.Repeat([]byte{'x'}, opt.valueSize))
	inFlight := 0
	for k := uint64(0); k < opt.keyRange; k += 2 {
		c.w.WriteCommandString("SET", strconv.FormatUint(k, 10), val)
		inFlight++
		if inFlight == 512 {
			if err := drain(c, inFlight); err != nil {
				return fmt.Errorf("prefill: %w", err)
			}
			inFlight = 0
		}
	}
	return drain(c, inFlight)
}

// drain flushes and consumes n replies, failing on any error reply.
func drain(c *client, n int) error {
	if err := c.w.Flush(); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		v, err := resp.ReadReply(c.r, resp.Limits{})
		if err != nil {
			return err
		}
		if err := v.Err(); err != nil {
			return fmt.Errorf("server error: %w", err)
		}
	}
	return nil
}

// trial runs nClients pipelined connections for d and returns aggregate
// completed commands per second plus per-command latency samples in
// microseconds. Latency is measured client-side per pipelined batch —
// flush to last reply parsed — divided by the pipeline depth: the
// amortized per-command cost a pipelining client actually experiences,
// not the isolated round-trip time of an unpipelined command.
func trial(opt options, nClients int, d time.Duration, trialSeed uint64) (float64, []float64, error) {
	mix := workload.Mix{FindPct: opt.getPct, InsertPct: 100 - opt.getPct}
	clients := make([]*client, nClients)
	for i := range clients {
		c, err := dialClient(opt.addr)
		if err != nil {
			return 0, nil, err
		}
		defer c.close()
		clients[i] = c
	}
	val := string(bytes.Repeat([]byte{'x'}, opt.valueSize))
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		total int64
		lats  []float64
		fail  error
	)
	deadline := time.Now().Add(d)
	if opt.bgsave {
		// The dump-under-load scenario: rotations and snapshot streams
		// race the measured traffic for the whole trial. BGSAVE replies
		// are read but not required to succeed ("already in progress" is
		// routine) — EXCEPT "persistence is disabled", which means the
		// whole measurement is vacuous and must abort.
		admin, err := dialClient(opt.addr)
		if err != nil {
			return 0, nil, err
		}
		defer admin.close()
		if v, err := admin.do("BGSAVE"); err != nil {
			return 0, nil, err
		} else if e := v.Err(); e != nil && strings.Contains(e.Error(), "disabled") {
			return 0, nil, fmt.Errorf("-bgsave needs a server started with -dir: %w", e)
		}
		stopSaver := make(chan struct{})
		saverDone := make(chan struct{})
		defer func() { close(stopSaver); <-saverDone }()
		go func() {
			defer close(saverDone)
			t := time.NewTicker(100 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					if _, err := admin.do("BGSAVE"); err != nil {
						return
					}
				case <-stopSaver:
					return
				}
			}
		}()
	}
	for i, c := range clients {
		wg.Add(1)
		go func(c *client, seed uint64) {
			defer wg.Done()
			g := workload.NewGenerator(mix, opt.keyRange, seed)
			n := int64(0)
			samples := make([]float64, 0, 4096)
			var err error
			for time.Now().Before(deadline) {
				// One pipelined batch: write opt.pipeline commands,
				// flush once, read opt.pipeline replies.
				for j := 0; j < opt.pipeline; j++ {
					op := g.Next()
					key := strconv.FormatUint(op.Key, 10)
					switch {
					case op.Kind == workload.OpFind:
						c.w.WriteCommandString("GET", key)
					case opt.ttlChurn && op.Key%4 == 0:
						// TTL churn: deadlines a second out, so keys armed
						// early in the trial expire under the later traffic
						// and the lazy checks + reaper run while we measure.
						c.w.WriteCommandString("SETEX", key, "1", val)
					default:
						c.w.WriteCommandString("SET", key, val)
					}
				}
				batchStart := time.Now()
				if err = drain(c, opt.pipeline); err != nil {
					break
				}
				samples = append(samples,
					time.Since(batchStart).Seconds()*1e6/float64(opt.pipeline))
				n += int64(opt.pipeline)
			}
			mu.Lock()
			total += n
			lats = append(lats, samples...)
			if err != nil && fail == nil {
				fail = err
			}
			mu.Unlock()
		}(c, trialSeed*1000003+uint64(i)*7919)
	}
	start := time.Now()
	wg.Wait()
	elapsed := time.Since(start)
	if fail != nil {
		return 0, nil, fail
	}
	if elapsed <= 0 {
		return 0, nil, nil
	}
	return float64(total) / elapsed.Seconds(), lats, nil
}

// probeCommandstats snapshots the server's per-command call counters
// (the INFO Commandstats section, cmdstat_<name>:calls=N,...). sweep
// diffs two snapshots around a point's measured trials, so the artifact
// carries what the server counted for exactly that window — warmup and
// other points excluded. nil on any failure (old server, no INFO):
// the extras are additive, never load-bearing.
func probeCommandstats(addr string) map[string]int64 {
	c, err := dialClient(addr)
	if err != nil {
		return nil
	}
	defer c.close()
	v, err := c.do("INFO", "commandstats")
	if err != nil || v.Kind != resp.TypeBulk {
		return nil
	}
	m := make(map[string]int64)
	for _, line := range strings.Split(string(v.Str), "\n") {
		rest, ok := strings.CutPrefix(strings.TrimSpace(line), "cmdstat_")
		if !ok {
			continue
		}
		name, fields, ok := strings.Cut(rest, ":")
		if !ok {
			continue
		}
		for _, kv := range strings.Split(fields, ",") {
			if cv, ok := strings.CutPrefix(kv, "calls="); ok {
				if n, err := strconv.ParseInt(cv, 10, 64); err == nil {
					m[name] = n
				}
			}
		}
	}
	return m
}

// diffCommandstats returns after-before for every command that moved.
// nil when either snapshot failed or nothing moved.
func diffCommandstats(before, after map[string]int64) map[string]int64 {
	if before == nil || after == nil {
		return nil
	}
	var d map[string]int64
	for name, n := range after {
		if delta := n - before[name]; delta > 0 {
			if d == nil {
				d = make(map[string]int64)
			}
			d[name] = delta
		}
	}
	return d
}

func runBench(opt options, stdout io.Writer) error {
	// Fail fast with a readable error if the server is not there.
	probe, err := dialClient(opt.addr)
	if err != nil {
		return fmt.Errorf("cannot reach server: %w", err)
	}
	v, err := probe.do("PING")
	probe.close()
	if err != nil || v.Kind != resp.TypeSimple {
		return fmt.Errorf("server at %s did not answer PING (%v, %v)", opt.addr, v, err)
	}

	if !opt.noPrefill {
		if err := prefill(opt); err != nil {
			return err
		}
	}

	baseName := fmt.Sprintf("get%d-set%d%s", opt.getPct, 100-opt.getPct, opt.suffix)
	fmt.Fprintf(stdout, "nbtriebench: %s @ %s, pipeline %d, %dB values, key range %d, %d x %v per point\n",
		baseName, opt.addr, opt.pipeline, opt.valueSize, opt.keyRange, opt.trials, opt.duration)

	sweep := func(o options, name string) (bench.Series, error) {
		fmt.Fprintf(stdout, "%s\n%8s %14s %8s %10s %10s\n", name, "clients", "mean ops/s", "±stddev", "p50 µs", "p99 µs")
		series := bench.Series{Name: name}
		for _, nClients := range o.clients {
			if o.warmup > 0 {
				if _, _, err := trial(o, nClients, o.warmup, o.seed+500009); err != nil {
					return series, err
				}
			}
			before := probeCommandstats(o.addr)
			xs := make([]float64, 0, o.trials)
			var lats []float64 // pooled across trials of this point
			for tr := 0; tr < o.trials; tr++ {
				x, ls, err := trial(o, nClients, o.duration, o.seed+uint64(tr)+1000003)
				if err != nil {
					return series, err
				}
				xs = append(xs, x)
				lats = append(lats, ls...)
			}
			cmdCalls := diffCommandstats(before, probeCommandstats(o.addr))
			sum := stats.Summarize(xs)
			p50 := stats.Percentile(lats, 50)
			p99 := stats.Percentile(lats, 99)
			series.Points = append(series.Points, bench.Point{
				Threads: nClients, Summary: sum,
				P50LatencyUS: p50, P99LatencyUS: p99,
				ServerCmdCalls: cmdCalls,
			})
			fmt.Fprintf(stdout, "%8d %14.0f %7.1f%% %10.1f %10.1f\n",
				nClients, sum.Mean, 100*sum.RelStddev(), p50, p99)
		}
		return series, nil
	}

	plain := opt
	plain.bgsave = false
	series, err := sweep(plain, baseName)
	if err != nil {
		return err
	}
	// With -bgsave, a second sweep runs the identical workload while
	// BGSAVE cycles fire continuously: the two series side by side in
	// the artifact are the "dumps never block mutators" evidence, and
	// benchcheck gates the bgsave series like any other.
	var bgSeries *bench.Series
	if opt.bgsave {
		s, err := sweep(opt, baseName+"+bgsave")
		if err != nil {
			return err
		}
		bgSeries = &s
	}
	// With -ttl, a third sweep runs the same mix with a quarter of the
	// writes as 1-second SETEX: expiring keys churn through the deadline
	// index while GETs take the lazy-expiry path, and benchcheck gates
	// the series so expiry overhead can't regress silently.
	var ttlSeries *bench.Series
	if opt.ttl {
		to := plain
		to.ttlChurn = true
		s, err := sweep(to, baseName+"+ttl")
		if err != nil {
			return err
		}
		ttlSeries = &s
	}

	if opt.jsonOut {
		cfg := bench.Config{
			Mix:      workload.Mix{FindPct: opt.getPct, InsertPct: 100 - opt.getPct},
			KeyRange: opt.keyRange,
			Duration: opt.duration,
			Warmup:   opt.warmup,
			Trials:   opt.trials,
			Seed:     opt.seed,
		}
		a := bench.NewArtifact("server", "nbtried RESP server: pipelined GET/SET over loopback TCP", cfg, 0, opt.quick)
		a.Config.PipelineDepth = opt.pipeline
		a.Config.ValueSize = opt.valueSize
		a.Machine = bench.HostMachine()
		allocs := codecAllocs(opt.valueSize)
		a.AddSeries(series, &allocs)
		// The server-side dispatch pins ride on the main series. The probe
		// runs the same dispatch path in-process, so the artifact records
		// the allocations behind the throughput numbers above.
		if sp, err := server.MeasureServerPathAllocs(opt.valueSize); err == nil {
			a.Series[len(a.Series)-1].ServerAllocsPerOp = &bench.ServerAllocsProfile{
				Get: sp.Get, Set: sp.Set, SetCodec: sp.SetCodec,
				Del: sp.Del, Exists: sp.Exists, MGet: sp.MGet,
			}
		} else {
			fmt.Fprintf(stdout, "warning: server-path alloc probe failed: %v\n", err)
		}
		if bgSeries != nil {
			a.AddSeries(*bgSeries, nil)
		}
		if ttlSeries != nil {
			a.AddSeries(*ttlSeries, nil)
		}
		// -append folds this run's series into an existing artifact (the
		// BENCH_server.json workflow: one daemon per trie layout, one
		// nbtriebench run each, one file). Same-name series are
		// replaced; everything else in the existing artifact is kept.
		if opt.appendOut {
			existingPath := filepath.Join(opt.outDir, bench.ArtifactFilename("server"))
			if existing, err := bench.ReadArtifact(existingPath); err == nil {
				for _, s := range a.Series {
					replaced := false
					for i := range existing.Series {
						if existing.Series[i].Name == s.Name {
							existing.Series[i] = s
							replaced = true
							break
						}
					}
					if !replaced {
						existing.Series = append(existing.Series, s)
					}
				}
				existing.Machine = a.Machine
				a = existing
			} else if !os.IsNotExist(err) {
				return fmt.Errorf("-append: %w", err)
			}
		}
		path, err := bench.WriteArtifact(opt.outDir, a)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", path)
	}
	return nil
}

// codecAllocs pins the client codec's allocations per command round
// trip — encode the request into a buffer, parse a canned reply — with
// no network or server involved, so the counts are deterministic:
// contains = GET (bulk reply), insert = SET (+OK), delete = DEL (:1).
func codecAllocs(valueSize int) bench.AllocsProfile {
	var buf bytes.Buffer
	bw := bufio.NewWriterSize(&buf, 64<<10)
	w := resp.NewWriter(bw)
	val := strings.Repeat("x", valueSize)
	getReply := []byte("$5\r\nhello\r\n")
	okReply := []byte("+OK\r\n")
	intReply := []byte(":1\r\n")
	var rd bytes.Reader
	br := bufio.NewReaderSize(nil, 4<<10)
	roundTrip := func(reply []byte, cmd func()) float64 {
		return testing.AllocsPerRun(200, func() {
			buf.Reset()
			cmd()
			if err := w.Flush(); err != nil {
				panic(err)
			}
			rd.Reset(reply)
			br.Reset(&rd)
			v, err := resp.ReadReply(br, resp.Limits{})
			if err != nil || v.Kind == resp.TypeError {
				panic(fmt.Sprintf("codec round trip broke: %v %v", v, err))
			}
		})
	}
	return bench.AllocsProfile{
		Contains: roundTrip(getReply, func() { w.WriteCommandString("GET", "key:123456") }),
		Insert:   roundTrip(okReply, func() { w.WriteCommandString("SET", "key:123456", val) }),
		Delete:   roundTrip(intReply, func() { w.WriteCommandString("DEL", "key:123456") }),
	}
}

// runSmoke is the end-to-end correctness battery. It requires a fresh,
// empty server (bytes keyer, >= 2 shards): the assertions are exact and
// the battery leaves keys behind.
func runSmoke(addr string) error {
	c, err := dialClient(addr)
	if err != nil {
		return err
	}
	defer c.close()

	expect := func(want string, args ...string) error {
		v, err := c.do(args...)
		if err != nil {
			return fmt.Errorf("%v: %w", args, err)
		}
		if got := v.String(); got != want {
			return fmt.Errorf("%v = %s, want %s", args, got, want)
		}
		return nil
	}
	expectErr := func(fragment string, args ...string) error {
		v, err := c.do(args...)
		if err != nil {
			return fmt.Errorf("%v: %w", args, err)
		}
		if v.Kind != resp.TypeError || !strings.Contains(string(v.Str), fragment) {
			return fmt.Errorf("%v = %s, want error containing %q", args, v, fragment)
		}
		return nil
	}
	// expectIntRange tolerates clock skid: TTL on a freshly armed key is
	// its round-up remainder, which any pause between commands can shave.
	expectIntRange := func(lo, hi int64, args ...string) error {
		v, err := c.do(args...)
		if err != nil {
			return fmt.Errorf("%v: %w", args, err)
		}
		if v.Kind != resp.TypeInt || v.Int < lo || v.Int > hi {
			return fmt.Errorf("%v = %s, want integer in [%d, %d]", args, v, lo, hi)
		}
		return nil
	}

	checks := []func() error{
		func() error { return expect("PONG", "PING") },
		func() error { return expect("OK", "SET", "aa", "v1") },
		func() error { return expect(`"v1"`, "GET", "aa") },
		func() error { return expect("(integer) 1", "EXISTS", "aa") },
		func() error { return expect("(nil)", "GET", "zz") },
		func() error { return expect("OK", "MSET", "ab", "v2", "ac", "v3") },
		func() error { return expect("(integer) 3", "DBSIZE") },
		// Same-shard atomic rename: "aa" -> "ad" share their first
		// byte, hence their shard for any shard count up to 256.
		func() error { return expect("OK", "RENAME", "aa", "ad") },
		func() error { return expect("(nil)", "GET", "aa") },
		func() error { return expect(`"v1"`, "GET", "ad") },
		func() error { return expectErr("no such key", "RENAME", "aa", "ae") },
		func() error { return expectErr("destination key exists", "RENAME", "ab", "ac") },
		// Cross-shard: "ad" (0x61...) and "\xe1d" differ in the top key
		// bit, so they land in different shards for any shard count >= 2.
		// RENAMESTRICT keeps the atomic-only contract and refuses;
		// RENAME performs the two-phase move (DESIGN.md §12).
		func() error { return expectErr("CROSSSHARD", "RENAMESTRICT", "ad", "\xe1d") },
		func() error { return expect(`"v1"`, "GET", "ad") },
		func() error { return expect("OK", "RENAME", "ad", "\xe1d") },
		func() error { return expect("(nil)", "GET", "ad") },
		func() error { return expect(`"v1"`, "GET", "\xe1d") },
		func() error { return expectErr("destination key exists", "RENAME", "ab", "\xe1d") },
		func() error { return expectErr("exceeds the 7-byte maximum", "SET", "12345678", "v") },
		func() error { return expect("(integer) 1", "DEL", "\xe1d", "nope") },
		func() error { return expect("(integer) 2", "DBSIZE") },
		// TTL battery: arm, observe, disarm, and lazily expire.
		func() error { return expect("(integer) -1", "TTL", "ab") },
		func() error { return expect("(integer) -2", "TTL", "nope") },
		func() error { return expect("(integer) 0", "EXPIRE", "nope", "100") },
		func() error { return expect("(integer) 1", "EXPIRE", "ab", "100") },
		func() error { return expectIntRange(1, 100, "TTL", "ab") },
		func() error { return expectIntRange(1, 100_000, "PTTL", "ab") },
		func() error { return expect("(integer) 1", "PERSIST", "ab") },
		func() error { return expect("(integer) -1", "TTL", "ab") },
		func() error { return expect("OK", "SETEX", "tt", "100", "vt") },
		func() error { return expectIntRange(1, 100, "TTL", "tt") },
		func() error { return expect(`"vt"`, "GETEX", "tt", "PERSIST") },
		func() error { return expect("(integer) -1", "TTL", "tt") },
		// A deadline in the past deletes immediately (Redis replies :1).
		func() error { return expect("(integer) 1", "PEXPIREAT", "tt", "1") },
		func() error { return expect("(nil)", "GET", "tt") },
		func() error { return expect("(integer) -2", "TTL", "tt") },
		func() error { return expect("(integer) 2", "DBSIZE") },
	}
	for _, check := range checks {
		if err := check(); err != nil {
			return err
		}
	}

	// SCAN must return every live key exactly once.
	seen := map[string]int{}
	cursor := "0"
	for i := 0; ; i++ {
		if i > 100 {
			return fmt.Errorf("SCAN did not terminate")
		}
		v, err := c.do("SCAN", cursor, "COUNT", "1")
		if err != nil {
			return err
		}
		if v.Kind != resp.TypeArray || len(v.Array) != 2 {
			return fmt.Errorf("SCAN reply shape: %s", v)
		}
		for _, k := range v.Array[1].Array {
			seen[string(k.Str)]++
		}
		cursor = string(v.Array[0].Str)
		if cursor == "0" {
			break
		}
	}
	if len(seen) != 2 || seen["ab"] != 1 || seen["ac"] != 1 {
		return fmt.Errorf("SCAN keys = %v, want ab and ac exactly once", seen)
	}

	// Pipelining: a burst of writes answered in order.
	const burst = 50
	for i := 0; i < burst; i++ {
		c.w.WriteCommandString("SET", "p", strconv.Itoa(i))
		c.w.WriteCommandString("GET", "p")
	}
	if err := c.w.Flush(); err != nil {
		return err
	}
	for i := 0; i < burst; i++ {
		set, err := resp.ReadReply(c.r, resp.Limits{})
		if err != nil {
			return err
		}
		if set.Kind != resp.TypeSimple {
			return fmt.Errorf("pipelined SET %d = %s", i, set)
		}
		get, err := resp.ReadReply(c.r, resp.Limits{})
		if err != nil {
			return err
		}
		if want := strconv.Itoa(i); string(get.Str) != want {
			return fmt.Errorf("pipelined GET %d = %s, want %q: replies out of order", i, get, want)
		}
	}
	return nil
}
