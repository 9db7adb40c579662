// Package server is nbtried's network layer: a pipelined, RESP2-subset
// key-value server over the repository's sharded non-blocking Patricia
// trie (ShardedMap[[]byte]). It is the first layer of the ROADMAP's
// "production-scale system serving heavy traffic": the paper's
// lock-free engine does the synchronization, and every connection
// goroutine calls straight into the trie. The one lock on the data path
// is the persistence gate (see persist.go), which every mutation holds
// shared across its map update and AOF append so that a dump rotation
// can cut between whole mutations.
//
// # Connection model and pipelining
//
// One goroutine per connection, with a buffered reader and writer.
// Requests are processed strictly in arrival order and replies are
// written in that same order into the write buffer, so pipelining —
// a client sending N commands before reading any reply — works by
// construction. The write buffer is flushed exactly when the request
// parser is about to block on the socket (a read-side hook, see
// flushBeforeRead), i.e. once the batch of already-received requests —
// complete or partial — is answered as far as possible; a deep
// pipeline therefore costs one syscall per batch, not per command, and
// a reply is never withheld while the connection waits for input.
//
// # Commands
//
// Each command is one row of the command table in dispatch.go: its
// name, argument-count bounds, key positions, whether it is a write,
// its handler and, for the commands the AOF logs, its replay. The rows'
// comments give the engine operation each command maps onto.
//
// Wire keys pass through a pluggable Keyer (see keyer.go); values are
// stored as the raw request bytes. The RESP reader parses each command
// into a per-connection arena that the next command overwrites
// (resp.RequestReader.ReadCommandReuse), so every argument is a view
// valid for the current command only: keys are encoded to trie keys on
// the spot, and the one slice that outlives the command — a SET/MSET
// value headed into the map — is copied out with resp.Detach.
package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nbtrie"
	"nbtrie/internal/expiry"
	"nbtrie/internal/resp"
)

// Version is reported by INFO.
const Version = "0.6.0"

// Config parameterizes a Server. The zero value is usable: BytesKeyer,
// default shard count, default protocol limits.
type Config struct {
	// Keyer maps wire keys to trie keys; nil means BytesKeyer{}.
	Keyer Keyer
	// Shards is handed to NewShardedMap: 0 picks the default
	// (GOMAXPROCS-derived), otherwise a power of two in [1, 256].
	Shards int
	// Span is the trie digit width inside every shard: each internal
	// node resolves Span key bits through 2^Span children (see
	// nbtrie.NewKaryPatriciaTrie). 0 means 1 (the paper's binary
	// nodes); otherwise it must be in [1, 6].
	Span uint32
	// Limits bounds the request parser; zero fields take resp.DefaultLimits.
	Limits resp.Limits
	// ScanDefaultCount is SCAN's page size when no COUNT is given;
	// 0 means 10 (Redis's default).
	ScanDefaultCount int
	// Persist enables durability (see persist.go); zero Dir disables it.
	Persist PersistConfig
	// MaxScanCursors caps the live snapshot-backed SCAN cursor table;
	// 0 means 128. When full, the oldest cursor is evicted (its SCAN
	// then terminates early with cursor 0, which clients must already
	// tolerate — Redis cursors expire too).
	MaxScanCursors int
	// Clock returns the current time in Unix milliseconds; nil means
	// the wall clock. Expiry deadlines are evaluated against it —
	// injectable so expiry tests are deterministic.
	Clock func() int64
	// SlowlogSlowerThanUS is the slowlog admission threshold in
	// microseconds. 0 selects the default (10ms); SlowlogOff disables
	// the log; SlowlogAll records every command. Note the deliberate
	// divergence from the Redis config value (where 0 means
	// log-everything): the zero-value Config must keep the 0-alloc
	// command paths, and logging everything copies arguments.
	// cmd/nbtried's -slowlog-log-slower-than flag keeps exact Redis
	// semantics and maps onto these sentinels.
	SlowlogSlowerThanUS int64
	// SlowlogMaxLen is the slowlog ring capacity; 0 means 128.
	SlowlogMaxLen int
}

// Server owns the map and the listener lifecycle. Create with New,
// start with Serve (or ListenAndServe), stop with Close; Close unblocks
// Serve, closes every live connection and waits for their goroutines.
type Server struct {
	cfg   Config
	keyer Keyer
	db    *nbtrie.ShardedMap[[]byte]
	start time.Time

	// exp is the deadline-ordered expiry index (see internal/expiry and
	// expiry.go in this package); clock feeds every deadline comparison.
	// The reaper goroutine wakes on the earliest armed deadline and
	// range-scans everything due; reapStop/reapDone bound its lifetime.
	exp      *expiry.Index
	clock    func() int64
	reapStop chan struct{}
	reapDone chan struct{}

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool

	wg sync.WaitGroup

	// gate is the persistence boundary (see persist.go): mutating
	// commands hold RLock across map update + AOF append; a dump
	// rotation holds Lock for its O(shards) instant. With persistence
	// off it is an uncontended RLock — a few nanoseconds per mutation.
	gate sync.RWMutex
	pst  *persister // nil when persistence is disabled

	// Snapshot-backed SCAN cursor table (see scan in dispatch.go).
	scanMu   sync.Mutex
	scans    map[uint64]*scanCursor
	scanNext uint64

	totalConns atomic.Int64
	totalCmds  atomic.Int64

	// met is the always-on metrics registry (see metrics.go); slog the
	// slowlog ring (slowlog.go). Both exist on every server — exposure
	// (the -metrics-addr listener) is opt-in, recording is not, and the
	// record paths are wait-free and allocation-free by construction.
	met  *metrics
	slog *slowlog
}

// New builds a server and its backing map.
func New(cfg Config) (*Server, error) {
	if cfg.Keyer == nil {
		cfg.Keyer = BytesKeyer{}
	}
	if cfg.ScanDefaultCount <= 0 {
		cfg.ScanDefaultCount = 10
	}
	// Resolve the limits once: the dispatcher sizes replies (SCAN's
	// page cap) from the same values the request parser enforces. The
	// default page size is clamped too — a page larger than the array
	// limit would be rejected by every consumer of the shared codec.
	cfg.Limits = cfg.Limits.WithDefaults()
	if cfg.ScanDefaultCount > cfg.Limits.MaxArrayLen {
		cfg.ScanDefaultCount = cfg.Limits.MaxArrayLen
	}
	if cfg.MaxScanCursors <= 0 {
		cfg.MaxScanCursors = 128
	}
	if cfg.Span == 0 {
		cfg.Span = 1
	}
	db, err := nbtrie.NewShardedMapSpan[[]byte](cfg.Keyer.Width(), cfg.Shards, cfg.Span)
	if err != nil {
		return nil, err
	}
	clock := cfg.Clock
	if clock == nil {
		clock = func() int64 { return time.Now().UnixMilli() }
	}
	// The expiry index shares the primary map's width and shard count so
	// a key's TTL lives on the same shard partition as its value. It must
	// exist before recovery runs: replayed PEXPIREAT records and dump
	// deadlines land in it.
	exp, err := expiry.New(cfg.Keyer.Width(), db.Shards())
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		keyer:    cfg.Keyer,
		db:       db,
		start:    time.Now(),
		exp:      exp,
		clock:    clock,
		reapStop: make(chan struct{}),
		reapDone: make(chan struct{}),
		conns:    make(map[net.Conn]struct{}),
		scans:    make(map[uint64]*scanCursor),
		scanNext: 1,
		met:      newMetrics(),
		slog:     newSlowlog(cfg.SlowlogSlowerThanUS, cfg.SlowlogMaxLen),
	}
	if cfg.Persist.Dir != "" {
		// Recovery runs to completion before New returns — and so
		// before any listener can exist: no client ever observes a
		// partially recovered keyspace. Corruption (as opposed to a
		// torn AOF tail) refuses to boot rather than silently serving
		// a subset of committed data.
		p, err := openPersister(s, cfg.Persist)
		if err != nil {
			return nil, err
		}
		s.pst = p
	}
	// The reaper starts after recovery: its opening pass purges
	// whatever expired while the process was down, so a recovered
	// keyspace converges to live-keys-only without waiting for reads.
	go s.reaperLoop()
	return s, nil
}

// DB exposes the backing map (tests and embedders).
func (s *Server) DB() *nbtrie.ShardedMap[[]byte] { return s.db }

// ListenAndServe listens on addr ("host:port") and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Close is called (which returns
// nil here) or the listener fails. The caller keeps ln's address —
// listen on ":0" for a random port.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: already closed")
	}
	s.ln = ln
	s.mu.Unlock()

	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil // graceful: Close closed the listener under us
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return nil
		}
		s.conns[c] = struct{}{}
		// Add under the same lock that registers the conn: Close holds
		// this lock before its wg.Wait, so Wait can never run between
		// the registration and the Add and miss this goroutine.
		s.wg.Add(1)
		s.mu.Unlock()
		s.totalConns.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(c)
		}()
	}
}

// Close stops accepting, closes every live connection and waits for
// all connection goroutines to drain. Safe to call more than once.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	// Every connection goroutine has drained, so no command can append
	// any more: the reaper stops next (its purges mutate the map but
	// never the AOF), and only then is the persister sealed.
	close(s.reapStop)
	<-s.reapDone
	if s.pst != nil {
		s.pst.close()
	}
	return err
}

// dropConn removes a finished connection from the live set.
func (s *Server) dropConn(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	c.Close()
}

// connectedClients reports the live connection count (INFO).
func (s *Server) connectedClients() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// commitBeforeWrite interposes on the connection's WRITE side: every
// byte headed for the socket first forces the AOF batch commit. This is
// the durability half of the batching contract, placed where it cannot
// be bypassed: the explicit batch flush (flushBeforeRead below) reaches
// the socket through here, and so does bufio's IMPLICIT write-through
// when a single reply larger than the write buffer overflows it — a
// path a commit hook on the flush call alone would miss, creating a
// window where a client reads "+OK" whose record is still in the AOF's
// user-space buffer. A failed commit poisons the write instead: the
// batch's replies die unsent (bufio errors are sticky), the connection
// drops, and the client observes an error, never a false ack.
type commitBeforeWrite struct {
	c net.Conn
	s *Server
}

// errAOFCommitFailed tears down a connection whose batch commit failed
// before its replies could falsely acknowledge the writes.
var errAOFCommitFailed = errors.New("server: aof commit failed; dropping connection without acknowledging the batch")

func (cw commitBeforeWrite) Write(p []byte) (int, error) {
	if !cw.s.commitAOF() {
		return 0, errAOFCommitFailed
	}
	n, err := cw.c.Write(p)
	if n > 0 {
		cw.s.met.bytesOut.Add(int64(n))
	}
	return n, err
}

// flushBeforeRead interposes on the connection's read side: any read
// that goes to the socket — which is exactly when the request parser
// has exhausted its buffer and is about to block — first flushes the
// pending replies. This is what
// makes the pipelining model deadlock free in every case: a client
// that sent N complete commands plus a *partial* (N+1)-th and then
// waits for replies before sending the rest still gets its N replies,
// because the parser's next fill flushes before blocking. A simple
// "flush when the read buffer is empty" check cannot express that (the
// buffer is non-empty, yet the parser is about to block).
//
// The same moment is the durability batch boundary: the flush reaches
// the socket through commitBeforeWrite, so the AOF commit (write;
// +fsync under appendfsync always) runs strictly BEFORE the replies —
// group commit, one write(+fsync) per pipelined batch rather than per
// command.
type flushBeforeRead struct {
	c  net.Conn
	ss *session
}

func (f flushBeforeRead) Read(p []byte) (int, error) {
	if f.ss.w.Buffered() > 0 {
		if err := f.ss.w.Flush(); err != nil {
			return 0, err
		}
	}
	n, err := f.c.Read(p)
	if n > 0 {
		f.ss.s.met.bytesIn.Add(int64(n))
	}
	return n, err
}

// replyFlushThreshold bounds how many reply bytes accumulate before the
// connection loop forces a flush mid-burst, so a long pipelined batch
// of fat replies is streamed in bounded chunks instead of stalling the
// client until the parser blocks. (A single oversized reply is already
// handled below this layer: it overflows bufio straight through
// commitBeforeWrite.)
const replyFlushThreshold = 12 << 10

// handle runs one connection's read-dispatch-write loop. Protocol
// errors are answered (best effort) and then kill the connection, like
// Redis: after a framing error the stream offset cannot be trusted.
func (s *Server) handle(c net.Conn) {
	defer s.dropConn(c)
	w := resp.NewWriter(bufio.NewWriterSize(commitBeforeWrite{c: c, s: s}, 16<<10))
	ss := newSession(s, w)
	// Replies accumulate in w across a pipelined batch and are flushed
	// by the flushBeforeRead hook the moment the parser needs more
	// bytes from the socket: one write syscall per batch, and never a
	// withheld reply while the connection blocks reading. The reader
	// reuses a per-connection arena (ReadCommandReuse): argument slices
	// are valid only until the next ReadCommandReuse call, and dispatch
	// copies out (resp.Detach) exactly the bytes that outlive the
	// command — SET/MSET values headed into the map.
	rr := resp.NewRequestReader(bufio.NewReaderSize(flushBeforeRead{c: c, ss: ss}, 16<<10), s.cfg.Limits)
	for {
		args, err := rr.ReadCommandReuse()
		if err != nil {
			if resp.IsProtocolError(err) {
				w.WriteError("ERR protocol error: " + err.Error())
				w.Flush()
			}
			return
		}
		s.totalCmds.Add(1)
		quit := ss.dispatch(args)
		if w.Buffered() >= replyFlushThreshold {
			if err := w.Flush(); err != nil {
				// Commit failure (or a dead socket): the batch's remaining
				// replies must not be acknowledged either.
				return
			}
		}
		if quit {
			w.Flush()
			return
		}
	}
}

// infoSection is one named block of the INFO reply. name is the
// lowercase match key for `INFO <section>`; title the rendered header.
type infoSection struct {
	name  string
	title string
	body  func(*strings.Builder)
}

// infoSections lists every INFO block, in render order. The section
// bodies write plain "key:value\r\n" lines with no headers or blank
// lines — infoText owns the framing, so a single-section reply and the
// full reply format identically.
func (s *Server) infoSections() []infoSection {
	return []infoSection{
		{"server", "Server", func(b *strings.Builder) {
			fmt.Fprintf(b, "nbtried_version:%s\r\n", Version)
			b.WriteString("engine:nbtrie-sharded-patricia\r\n")
			fmt.Fprintf(b, "keyer:%s\r\n", s.keyer.Name())
			fmt.Fprintf(b, "key_width_bits:%d\r\n", s.keyer.Width())
			fmt.Fprintf(b, "shards:%d\r\n", s.db.Shards())
			fmt.Fprintf(b, "trie_span_bits:%d\r\n", s.cfg.Span)
			fmt.Fprintf(b, "uptime_in_seconds:%d\r\n", int64(time.Since(s.start).Seconds()))
		}},
		{"clients", "Clients", func(b *strings.Builder) {
			fmt.Fprintf(b, "connected_clients:%d\r\n", s.connectedClients())
		}},
		{"stats", "Stats", func(b *strings.Builder) {
			fmt.Fprintf(b, "total_connections_received:%d\r\n", s.totalConns.Load())
			fmt.Fprintf(b, "total_commands_processed:%d\r\n", s.totalCmds.Load())
			var errs int64
			for ci := range s.met.latency {
				errs += s.met.cmdErrs.Load(ci)
			}
			fmt.Fprintf(b, "total_error_replies:%d\r\n", errs)
			fmt.Fprintf(b, "total_net_input_bytes:%d\r\n", s.met.bytesIn.Load())
			fmt.Fprintf(b, "total_net_output_bytes:%d\r\n", s.met.bytesOut.Load())
			fmt.Fprintf(b, "slowlog_len:%d\r\n", s.slog.len())
		}},
		{"commandstats", "Commandstats", s.commandstatsText},
		{"latencystats", "Latencystats", s.latencystatsText},
		{"expiry", "Expiry", func(b *strings.Builder) {
			expired, passes := s.exp.Stats()
			fmt.Fprintf(b, "keys_with_ttl:%d\r\n", s.exp.Len())
			fmt.Fprintf(b, "expired_keys:%d\r\n", expired)
			fmt.Fprintf(b, "reaper_passes:%d\r\n", passes)
		}},
		{"persistence", "Persistence", func(b *strings.Builder) {
			if s.pst != nil {
				b.WriteString(s.pst.info())
				return
			}
			b.WriteString("persistence_dir:\r\naof_enabled:0\r\n")
		}},
		{"engine", "Engine", s.engineText},
		{"keyspace", "Keyspace", func(b *strings.Builder) {
			fmt.Fprintf(b, "db0:keys=%d\r\n", s.db.Len())
		}},
	}
}

// infoText renders the INFO reply. section is the already-lowercased
// requested section; "" (no argument), "all", "default" and
// "everything" render every section, any other name renders exactly
// that section, and an unknown name renders nothing (the caller's empty
// bulk reply — Redis semantics).
func (s *Server) infoText(section string) string {
	all := section == "" || section == "all" || section == "default" || section == "everything"
	var b strings.Builder
	first := true
	for _, sec := range s.infoSections() {
		if !all && sec.name != section {
			continue
		}
		if !first {
			b.WriteString("\r\n")
		}
		first = false
		b.WriteString("# ")
		b.WriteString(sec.title)
		b.WriteString("\r\n")
		sec.body(&b)
	}
	return b.String()
}
