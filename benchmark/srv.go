package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"nbtrie"
	"nbtrie/internal/persist"
	"nbtrie/internal/resp"
	"nbtrie/internal/server"
	"nbtrie/internal/workload"
)

// The harnesses that run the whole server, with default configuration, in
// this process: H3 over in-memory connections, H4 over loopback TCP with
// persistence off, H5 over loopback TCP with AOF everysec and a BGSAVE about
// once a second. The srv-* workloads are H4 or H5 themselves.

type srvLevel int

const (
	levelMem srvLevel = iota
	levelTCP
	levelDurable
)

var levelNames = [...]string{"H3.server", "H4.wire", "H5.persist"}

type srvWorker struct {
	*probe
	c   *client
	gen *workload.Generator
	err error // why the worker gave up, if it did
}

type srvHarness struct {
	spec    *srvSpec
	level   srvLevel
	dir     string // data directory, levelDurable only
	workers []*srvWorker

	srv    *server.Server
	served chan error
	dial   func() (net.Conn, error)
	conns  []net.Conn
	saver  *bgsaver

	ctl   control
	wg    sync.WaitGroup
	epoch time.Time

	// What the load had written when it stopped (and the saver had seen all
	// of in the log): acknowledged writes and their key + value bytes.
	loadWrites, loadUserBytes int64
}

// newSrvHarness allocates the generator side: clients with their models,
// sample and span logs. It is done before the heap baseline is read.
func newSrvHarness(spec *srvSpec, level srvLevel, dir string, seed uint64) *srvHarness {
	h := &srvHarness{spec: spec, level: level, dir: dir}
	n := workerCount()
	for i := 0; i < n; i++ {
		h.workers = append(h.workers, &srvWorker{
			probe: newProbe(),
			c:     newClient(i, n, spec.keyRange),
			gen:   workload.NewGenerator(spec.mix, spec.keyRange, workerSeed(seed, i)),
		})
	}
	return h
}

func (h *srvHarness) name() string { return levelNames[h.level] }

// boot starts a server on the harness's level (recovering whatever its
// directory holds) and connects every client.
func (h *srvHarness) boot() error {
	cfg := server.Config{}
	if h.level == levelDurable {
		cfg.Persist = server.PersistConfig{Dir: h.dir, AOF: true, Fsync: persist.SyncEverySec}
	}
	srv, err := server.New(cfg)
	if err != nil {
		return fmt.Errorf("start server: %w", err)
	}
	var ln net.Listener
	if h.level == levelMem {
		ml := newMemListener()
		ln, h.dial = ml, ml.Dial
	} else {
		tl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			srv.Close()
			return err
		}
		addr := tl.Addr().String()
		ln, h.dial = tl, func() (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	h.srv, h.served = srv, make(chan error, 1)
	go func() { h.served <- srv.Serve(ln) }()
	h.conns = h.conns[:0]
	for _, w := range h.workers {
		conn, err := h.dial()
		if err != nil {
			h.shutdown()
			return err
		}
		h.conns = append(h.conns, conn)
		w.c.attach(conn)
	}
	return nil
}

// shutdown closes the clients' connections and the server, and waits for
// Serve to return.
func (h *srvHarness) shutdown() error {
	for _, conn := range h.conns {
		conn.Close()
	}
	h.conns = h.conns[:0]
	err := h.srv.Close()
	if serr := <-h.served; err == nil {
		err = serr
	}
	h.srv = nil // lets the closed server's keys be collected
	return err
}

// eachClient runs f for every client at once and returns the first error.
func (h *srvHarness) eachClient(f func(c *client) error) error {
	errs := make([]error, len(h.workers))
	var wg sync.WaitGroup
	for i, w := range h.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = f(w.c)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Batch sizes of the sweeps. Writes go out in few, large batches, so that
// set-up is the server's work and not thousands of round trips; their
// replies are five bytes each and never fill a socket buffer. Reads come
// back 70 bytes each, so their batches stay small enough that client and
// server can never both be blocked writing.
const (
	writeSweepBatch = 4096
	readSweepBatch  = 128
)

// sweep sends one command per own key that pick selects, in batches.
func sweep(c *client, keyRange uint64, kind opKind, batch int, pick func(k uint64) bool) error {
	var bt batchTimes
	for k := c.id; k < keyRange; k += c.workers {
		if pick(k) {
			c.add(kind, k)
		}
		if len(c.pend) == batch {
			if err := c.roundTrip(&bt, false); err != nil {
				return err
			}
		}
	}
	if len(c.pend) > 0 {
		return c.roundTrip(&bt, false)
	}
	return nil
}

// setup boots a fresh server and writes every other key of each connection
// over the wire, so a durable server logs the prefill like any write.
func (h *srvHarness) setup() error {
	if h.level == levelDurable {
		if err := os.RemoveAll(h.dir); err != nil {
			return err
		}
	}
	for _, w := range h.workers {
		clear(w.c.model)
	}
	if err := h.boot(); err != nil {
		return err
	}
	return h.writePrefilled()
}

// writePrefilled has every connection SET each of its prefilled keys.
func (h *srvHarness) writePrefilled() error {
	return h.eachClient(func(c *client) error {
		return sweep(c, h.spec.keyRange, opSet, writeSweepBatch, func(k uint64) bool { return prefilledKey(k, c.workers) })
	})
}

// readBack reads every key through the connection that owns it; checkGet
// compares each reply with the model and counts mismatches as failed.
func (h *srvHarness) readBack() error {
	return h.eachClient(func(c *client) error {
		return sweep(c, h.spec.keyRange, opGet, readSweepBatch, func(uint64) bool { return true })
	})
}

func (h *srvHarness) probes() probes {
	ps := make(probes, len(h.workers))
	for i, w := range h.workers {
		ps[i] = w.probe
	}
	return ps
}

func (h *srvHarness) start() error {
	h.epoch = time.Now()
	if h.level == levelDurable {
		var err error
		if h.saver, err = startBgsaver(h); err != nil {
			return err
		}
	}
	for _, w := range h.workers {
		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			w.err = h.run(w)
		}()
	}
	return nil
}

func (h *srvHarness) run(w *srvWorker) error {
	c, depth := w.c, h.spec.depth
	var bt batchTimes
	for !h.ctl.stop.Load() {
		win, traced := h.ctl.window.Load(), h.ctl.traced.Load()
		encodeStart := time.Time{}
		if traced {
			encodeStart = time.Now()
		}
		for i := 0; i < depth; i++ {
			op := w.gen.Next()
			kind, key := wireOp[op.Kind], op.Key
			if kind != opGet {
				key = ownKey(key, c.id, c.workers, h.spec.keyRange)
			}
			c.add(kind, key)
		}
		if err := c.roundTrip(&bt, traced); err != nil {
			return err
		}
		if win > 0 {
			w.lat.record(win, bt.end.Sub(bt.flushStart).Nanoseconds())
			if traced {
				since := func(t time.Time) int64 { return t.Sub(h.epoch).Nanoseconds() }
				w.spans.addBatch(since(encodeStart), since(bt.flushStart), since(bt.flushEnd), since(bt.lastRead), since(bt.end))
			}
		}
		w.ops.Add(int64(depth))
	}
	return nil
}

// srvStretch is a measured stretch with the server's own counters across it.
type srvStretch struct {
	stretch
	before, after promScrape
	engine        nbtrie.EngineStats // the server's own map, difference over the stretch
}

func (w srvStretch) delta(series string) float64 { return w.after[series] - w.before[series] }
func (w srvStretch) hist(family string) promHist {
	return w.after.hist(family).since(w.before.hist(family))
}

func (h *srvHarness) measure(d time.Duration, traced bool) srvStretch {
	before, engineBefore := scrape(h.srv), h.srv.DB().EngineStats()
	w := srvStretch{stretch: measure(&h.ctl, h.probes(), d, traced), before: before}
	w.after, w.engine = scrape(h.srv), statsDiff(h.srv.DB().EngineStats(), engineBefore)
	return w
}

// stop ends the load and returns the first error a worker or the saver hit.
func (h *srvHarness) stop() error {
	h.ctl.stop.Store(true)
	h.wg.Wait()
	var errs []error
	for _, w := range h.workers {
		errs = append(errs, w.err)
	}
	if h.saver != nil {
		errs = append(errs, h.saver.stop())
	}
	for _, w := range h.workers {
		h.loadWrites += w.c.writes
		h.loadUserBytes += w.c.userBytes
	}
	return errors.Join(errs...)
}

// sent is how many commands of each kind the clients sent to this server.
func (h *srvHarness) sent() (n [opKinds]int64) {
	for _, w := range h.workers {
		for k, v := range w.c.sent {
			n[k] += v
		}
	}
	return n
}

func (h *srvHarness) sentTotal() (n int64) {
	for _, v := range h.sent() {
		n += v
	}
	return n
}

func (h *srvHarness) failed() (n int64) {
	for _, w := range h.workers {
		n += w.c.failed
	}
	if h.saver != nil {
		n += h.saver.failed
	}
	return n
}

// countMismatch compares the server's per-command counters with what the
// clients, and the saver if it spoke to this server, sent since it booted;
// it returns the commands counted and how far the two are apart.
func (h *srvHarness) countMismatch(saver *bgsaver) (counted, off int64) {
	s := scrape(h.srv)
	want := map[string]int64{}
	for k, v := range h.sent() {
		want[opNames[k]] = v
	}
	if saver != nil {
		want["bgsave"], want["info"] = saver.bgsaves, saver.infos
	}
	for cmd, n := range want {
		got := int64(s[fmt.Sprintf("nbtried_commands_total{cmd=%q}", cmd)])
		counted += got
		off += abs64(got - n)
	}
	return counted, off
}

func (h *srvHarness) records() (n int64) {
	for _, w := range h.workers {
		n += w.c.records.Load()
	}
	return n
}

// recovery is what reopening a durable server on its directory showed.
type recovery struct {
	seconds float64 // server.New on the written directory, until it returns
	records int64   // AOF records written after the last BGSAVE rotated the log: the tail finish wrote
	off     int64   // how far the recovered server's command counters are from what was sent to it
}

// recoverAndVerify closes the durable server, reopens it on the same
// directory, and reads every key back against the clients' models.
func (h *srvHarness) recoverAndVerify() (recovery, error) {
	r := recovery{records: h.records() - h.saver.recordsAtLastSave}
	if err := h.shutdown(); err != nil {
		return r, fmt.Errorf("close before recovery: %w", err)
	}
	start := time.Now()
	if err := h.boot(); err != nil {
		return r, fmt.Errorf("recover: %w", err)
	}
	r.seconds = time.Since(start).Seconds()
	if err := h.readBack(); err != nil {
		return r, fmt.Errorf("read back after recovery: %w", err)
	}
	_, r.off = h.countMismatch(nil)
	return r, nil
}

// srvCheck is the outcome of a server harness's oracles.
type srvCheck struct {
	attempted, failed int64
	counted           int64 // commands the server counted over its life
	errors            float64
	recovery          recovery
}

// finish runs the oracles of a stopped server harness and shuts it down:
// every key is read back and compared with its connection's model, the
// server's command counters must equal what was sent, and a durable server
// is closed, recovered from its directory and read back again.
func (h *srvHarness) finish() (srvCheck, error) {
	var c srvCheck
	if err := h.readBack(); err != nil {
		h.shutdown()
		return c, fmt.Errorf("read back: %w", err)
	}
	if h.level == levelDurable {
		// The log's tail is made the same in every run, so that recovery
		// always loads one dump and replays this many records: after the
		// saver's last dump, every prefilled key is written once more.
		if err := h.writePrefilled(); err != nil {
			h.shutdown()
			return c, fmt.Errorf("write the log's tail: %w", err)
		}
	}
	var off int64
	c.counted, off = h.countMismatch(h.saver)
	c.errors = scrape(h.srv).sum("nbtried_command_errors_total")
	c.attempted = h.sentTotal()
	if h.level == levelDurable {
		var err error
		if c.recovery, err = h.recoverAndVerify(); err != nil {
			return c, err
		}
		off += c.recovery.off
		c.attempted += h.sentTotal()
	}
	c.failed = h.failed() + off
	return c, h.shutdown()
}

// bgsaver is the operator beside the load: one BGSAVE a second on its own
// connection, each awaited so that none is ever refused.
type bgsaver struct {
	h    *srvHarness
	conn net.Conn
	rd   *bufio.Reader
	wr   *resp.Writer
	quit chan struct{}
	done chan error

	// Owned by the saver's goroutine; read after stop.
	bgsaves, infos    int64         // commands sent
	failed            int64         // BGSAVEs the server refused
	completed         int64         // BGSAVEs seen through to the end
	saveTime          time.Duration // of those: BGSAVE sent until INFO says it is over
	aofBytes          int64         // bytes found in the AOF chain before each rotation
	dumpBytes         int64         // size of the latest dump
	dumpKeys          int64         // keys in the map when it was taken
	recordsAtLastSave int64
}

// The saver asks for a dump every bgsaveEveryOps operations of the load,
// which is about one a second on the box the workload was sized on. Counting
// operations and not seconds keeps the snapshot work per operation (and so
// allocs_per_op) the same on a slow box or in a slow phase of a shared one.
const (
	bgsaveEveryOps = 125000
	bgsavePoll     = 5 * time.Millisecond
)

func startBgsaver(h *srvHarness) (*bgsaver, error) {
	conn, err := h.dial()
	if err != nil {
		return nil, err
	}
	s := &bgsaver{
		h: h, conn: conn,
		rd:   bufio.NewReader(conn),
		wr:   resp.NewWriter(bufio.NewWriter(conn)),
		quit: make(chan struct{}), done: make(chan error, 1),
	}
	go func() { s.done <- s.loop() }()
	return s, nil
}

func (s *bgsaver) stop() error {
	close(s.quit)
	err := <-s.done
	s.conn.Close()
	return err
}

// loop saves at once (so that even the shortest harness sees a dump), then
// every bgsaveEveryOps operations, and once more when told to stop: the
// load has ended by then, so what is logged after that dump is the caller's
// alone.
func (s *bgsaver) loop() error {
	load := s.h.probes()
	for {
		if err := s.save(); err != nil {
			return err
		}
		for next := load.ops() + bgsaveEveryOps; load.ops() < next; {
			select {
			case <-s.quit:
				return s.save()
			case <-time.After(bgsavePoll):
			}
		}
	}
}

func (s *bgsaver) do(args ...string) (resp.Value, error) {
	if err := s.wr.WriteCommandString(args...); err != nil {
		return resp.Value{}, err
	}
	if err := s.wr.Flush(); err != nil {
		return resp.Value{}, err
	}
	return resp.ReadReply(s.rd, resp.Limits{})
}

func (s *bgsaver) save() error {
	s.aofBytes += s.dirBytes("incr-*.aof")
	s.recordsAtLastSave = s.h.records()
	keys := int64(s.h.srv.DB().Len())
	start := time.Now()
	s.bgsaves++
	v, err := s.do("BGSAVE")
	if err != nil {
		return fmt.Errorf("BGSAVE: %w", err)
	}
	if v.Err() != nil {
		s.failed++
		return nil
	}
	for {
		s.infos++
		v, err := s.do("INFO", "persistence")
		if err != nil {
			return fmt.Errorf("INFO persistence: %w", err)
		}
		if bytes.Contains(v.Str, []byte("rdb_bgsave_in_progress:0")) {
			break
		}
		time.Sleep(bgsavePoll)
	}
	s.completed++
	s.saveTime += time.Since(start)
	s.dumpBytes, s.dumpKeys = s.dirBytes("base-*.rdb"), keys
	return nil
}

func (s *bgsaver) dirBytes(pattern string) (n int64) {
	files, _ := filepath.Glob(filepath.Join(s.h.dir, pattern))
	for _, f := range files {
		if st, err := os.Stat(f); err == nil {
			n += st.Size()
		}
	}
	return n
}
