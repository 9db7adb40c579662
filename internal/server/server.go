// Package server is nbtried's network layer: a pipelined, RESP2-subset
// key-value server over the repository's non-blocking Patricia trie. The
// keyspace is internal/expiry's Index: one binary Map whose leaves hold
// each key's value and deadline, which the reaper sweeps. The paper's
// lock-free engine does the synchronization, and every connection
// goroutine calls straight into the trie. With persistence on, the one
// lock on the data path is the key stripes (see persist.go): a mutation
// holds its keys' stripes across its keyspace update and AOF append, so
// each key's records follow its updates, and a dump rotation, which
// takes every stripe, cuts between whole mutations. With persistence off
// a mutation takes no lock.
//
// # Connection model and pipelining
//
// One goroutine per connection, with a buffered reader and writer.
// Requests are processed strictly in arrival order and replies are
// written in that same order into the write buffer, so pipelining —
// a client sending N commands before reading any reply — works by
// construction. The write buffer is flushed exactly when the request
// parser is about to block on the socket (a read-side hook, see
// socket), i.e. once the batch of already-received requests —
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
// Wire keys map to trie keys through BytesKeyer (see keyer.go); values
// are stored as the raw request bytes. The RESP reader parses each command
// into a per-connection arena that the next command overwrites
// (resp.RequestReader.ReadCommandReuse), so every argument is a view
// valid for the current command only: keys are encoded to trie keys on
// the spot, and a SET/MSET/SETEX value is handed to the keyspace as it
// lies in the arena. Dispatch copies nothing out of the arena: the
// keyspace's leaf copies the value into itself (expiry.Value).
package server

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"nbtrie/internal/expiry"
	"nbtrie/internal/resp"
)

// Version is reported by INFO.
const Version = "0.6.0"

// Config parameterizes a Server. The zero value is usable: default
// protocol limits, persistence off. Neither the wire-key mapping
// (BytesKeyer) nor the keyspace's shape is configurable: expiry.New picks
// the shape, the paper's binary trie.
type Config struct {
	// Limits bounds the request parser; zero fields take resp.DefaultLimits.
	Limits resp.Limits
	// Persist enables durability (see persist.go); zero Dir disables it.
	Persist PersistConfig
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
// start with Serve, stop with Close; Close unblocks Serve, closes every
// live connection and waits for their goroutines.
type Server struct {
	cfg   Config
	start time.Time

	// db is the keyspace: one trie whose leaves hold values and their
	// deadlines (see internal/expiry and expiry.go in this package);
	// clock feeds every deadline comparison. stopReaper stops db's
	// reaper.
	db         *expiry.Index
	clock      func() int64
	stopReaper func()

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool

	wg sync.WaitGroup

	pst *persister // nil when persistence is disabled

	totalConns atomic.Int64

	// met is the always-on metrics registry (see metrics.go); slog the
	// slowlog ring (slowlog.go). Both exist on every server — exposure
	// (the -metrics-addr listener) is opt-in, recording is not, and the
	// record paths are wait-free and allocation-free by construction.
	met  *metrics
	slog *slowlog
}

// New builds a server and its backing map.
func New(cfg Config) (*Server, error) {
	// Resolve the limits once: the dispatcher sizes replies (SCAN's
	// page cap) from the same values the request parser enforces.
	cfg.Limits = cfg.Limits.WithDefaults()
	clock := cfg.Clock
	if clock == nil {
		clock = func() int64 { return time.Now().UnixMilli() }
	}
	db, err := expiry.New(BytesKeyer{}.Width(), 0, expiry.WithClock(clock))
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:   cfg,
		db:    db,
		start: time.Now(),
		clock: clock,
		conns: make(map[net.Conn]struct{}),
		met:   newMetrics(),
		slog:  newSlowlog(cfg.SlowlogSlowerThanUS, cfg.SlowlogMaxLen),
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
	s.stopReaper = db.StartReaper()
	return s, nil
}

// DB exposes the keyspace (tests and embedders).
func (s *Server) DB() *expiry.Index { return s.db }

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
	s.stopReaper()
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

// socket is a session's connection as its buffered reader and writer
// see it. A read that goes to the socket, which is exactly when the
// request parser is about to block, first flushes the pending replies:
// a client that sent N complete commands and part of the next still gets
// its N replies, a case a "read buffer empty" check cannot see. A write
// first runs the session's batch commit, so the AOF write (+fsync under
// always) lands before the replies, whether they come from that flush,
// from the threshold flush or from bufio's write-through of a reply
// larger than the buffer. A refused commit poisons the write: the
// batch's replies die unsent (bufio errors are sticky) and the
// connection drops. persist.go's header has the acknowledgement rules.
type socket struct {
	c  net.Conn
	ss *session
}

// errAOFCommitFailed tears down a connection whose batch commit failed
// before its replies could falsely acknowledge the writes.
var errAOFCommitFailed = errors.New("server: aof commit failed; dropping connection without acknowledging the batch")

func (k socket) Read(p []byte) (int, error) {
	if k.ss.w.Buffered() > 0 {
		if err := k.ss.w.Flush(); err != nil {
			return 0, err
		}
	}
	n, err := k.c.Read(p)
	if n > 0 {
		k.ss.s.met.bytesIn.Add(int64(n))
	}
	return n, err
}

func (k socket) Write(p []byte) (int, error) {
	if !k.ss.commitAOF() {
		return 0, errAOFCommitFailed
	}
	n, err := k.c.Write(p)
	if n > 0 {
		k.ss.s.met.bytesOut.Add(int64(n))
	}
	return n, err
}

// replyFlushThreshold bounds how many reply bytes accumulate before the
// connection loop forces a flush mid-burst, so a long pipelined batch
// of fat replies is streamed in bounded chunks instead of stalling the
// client until the parser blocks. (A single oversized reply is already
// handled below this layer: it overflows bufio straight through the
// socket's Write.)
const replyFlushThreshold = 12 << 10

// handle runs one connection's read-dispatch-write loop. Protocol
// errors are answered (best effort) and then kill the connection, like
// Redis: after a framing error the stream offset cannot be trusted.
func (s *Server) handle(c net.Conn) {
	defer s.dropConn(c)
	ss := newSession(s, nil)
	sock := socket{c: c, ss: ss}
	w := resp.NewWriter(bufio.NewWriterSize(sock, 16<<10))
	ss.w = w
	// Replies accumulate in w across a pipelined batch and are flushed
	// by the socket's read side the moment the parser needs more bytes
	// from the socket: one write syscall per batch, and never a withheld
	// reply while the connection blocks reading. The reader
	// reuses a per-connection arena (ReadCommandReuse): argument slices
	// are valid only until the next ReadCommandReuse call. Nothing that
	// dispatch hands on keeps them: the keyspace copies a stored value
	// into its leaf, and the AOF copies a record into its buffer.
	rr := resp.NewRequestReader(bufio.NewReaderSize(sock, 16<<10), s.cfg.Limits)
	for {
		args, err := rr.ReadCommandReuse()
		if err != nil {
			if resp.IsProtocolError(err) {
				w.WriteError("ERR protocol error: " + err.Error())
				w.Flush()
			}
			return
		}
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
