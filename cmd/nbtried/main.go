// Command nbtried is the network daemon over the non-blocking Patricia
// trie: a RESP2-subset key-value server (see internal/server
// for the protocol subset and the command → engine-op mapping). Any
// RESP2 client — redis-cli included — can speak to it:
//
//	nbtried -addr 127.0.0.1:6380
//	redis-cli -p 6380 SET foo bar
//	redis-cli -p 6380 GET foo
//
// Flags:
//
//	-addr       listen address (host:port; port 0 picks a free port)
//	-max-bulk   largest accepted bulk string (keys and values), bytes
//	            (default 8 MB; 0 selects the default, negative is refused)
//	-port-file  write the actual listen address to this file once
//	            listening (for scripts that start on a random port)
//
// Wire keys are 1 to 7 raw bytes, mapped into 59-bit trie keys by a
// reversible packing and mix (server.BytesKeyer), whose width the
// startup banner reports; SCAN returns keys in that mixed order. The
// keyspace's shape is fixed: the paper's binary trie, one digit width
// from the root down (DESIGN.md §5).
//
// Observability (see DESIGN.md §13):
//
//	-metrics-addr            optional HTTP listener serving the
//	                         Prometheus text exposition at /metrics and
//	                         net/http/pprof at /debug/pprof/ (off unless
//	                         set; counters are collected either way)
//	-slowlog-log-slower-than SLOWLOG threshold in microseconds, with
//	                         Redis's semantics: 0 logs every command,
//	                         negative disables (default 10000 = 10ms)
//	-slowlog-max-len         SLOWLOG ring capacity (default 128; 0
//	                         selects the default, negative is refused)
//
// Durability (all off by default; see DESIGN.md §9):
//
//	-dir         data directory; setting it enables persistence.
//	             Recovery (base dump, then the AOF chain) runs before
//	             the listener opens, so no client ever sees a
//	             half-recovered keyspace. The directory may hold other
//	             files: only MANIFEST, base-*.rdb and incr-*.aof (and
//	             their temp files) are the daemon's.
//	-aof         append every acknowledged mutation to an append-only
//	             file (requires -dir)
//	-appendfsync AOF sync policy: always (an acknowledged write
//	             survives any crash), everysec (≤ ~1s of acked writes
//	             at risk; the Redis default), or no
//	-save        SAVE-style background dump every N seconds (0 = only
//	             on explicit SAVE/BGSAVE commands; requires -dir)
//
// SIGINT/SIGTERM shut the server down gracefully: the listener closes,
// live connections are torn down, and the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"nbtrie/internal/persist"
	"nbtrie/internal/resp"
	"nbtrie/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "nbtried:", err)
		os.Exit(1)
	}
}

// run parses flags, serves until ctx is cancelled (or the listener
// fails) and returns nil on a graceful shutdown. Factored from main so
// tests can drive the whole daemon in-process.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("nbtried", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", "127.0.0.1:6380", "listen address (host:port; port 0 = random free port)")
		maxBulk     = fs.Int("max-bulk", resp.DefaultLimits.MaxBulkLen, "largest accepted bulk string in bytes")
		portFile    = fs.String("port-file", "", "write the actual listen address here once listening")
		metricsAddr = fs.String("metrics-addr", "", "observability HTTP listener (host:port): Prometheus /metrics + /debug/pprof (off when empty)")
		slowerThan  = fs.Int64("slowlog-log-slower-than", server.SlowlogDefaultUS, "log commands slower than this many microseconds (0 = every command, negative = off)")
		slowlogMax  = fs.Int("slowlog-max-len", 128, "slowlog ring capacity")
		dir         = fs.String("dir", "", "data directory; enables persistence")
		aof         = fs.Bool("aof", false, "append acknowledged mutations to an append-only file (requires -dir)")
		fsyncMode   = fs.String("appendfsync", "everysec", "AOF sync policy: always, everysec or no")
		savePer     = fs.Int("save", 0, "background dump every N seconds (0 = only on SAVE/BGSAVE; requires -dir)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *maxBulk < 0 {
		return fmt.Errorf("-max-bulk must be >= 0")
	}
	if *slowlogMax < 0 {
		return fmt.Errorf("-slowlog-max-len must be >= 0")
	}
	policy, err := persist.ParseSyncPolicy(*fsyncMode)
	if err != nil {
		return err
	}
	if *aof && *dir == "" {
		return fmt.Errorf("-aof requires -dir")
	}
	if *savePer < 0 {
		return fmt.Errorf("-save must be >= 0")
	}
	if *savePer > 0 && *dir == "" {
		return fmt.Errorf("-save requires -dir")
	}
	// The flag keeps Redis's semantics (0 = log everything, negative =
	// off); Config uses sentinels so its zero value means "default
	// threshold", so translate here.
	slowlogUS := *slowerThan
	switch {
	case slowlogUS == 0:
		slowlogUS = server.SlowlogAll
	case slowlogUS < 0:
		slowlogUS = server.SlowlogOff
	}
	srv, err := server.New(server.Config{
		Limits:              resp.Limits{MaxBulkLen: *maxBulk},
		SlowlogSlowerThanUS: slowlogUS,
		SlowlogMaxLen:       *slowlogMax,
		Persist:             server.PersistConfig{Dir: *dir, AOF: *aof, Fsync: policy},
	})
	if err != nil {
		return err
	}
	stopSaver := func() {}
	if *savePer > 0 {
		stopSaver = srv.StartPeriodicSave(time.Duration(*savePer) * time.Second)
	}
	// shutdown stops the saver before it closes the server: a save that
	// ran after Close would reopen the data directory. Every way out of
	// run calls it, and a second call waits for the first to finish.
	shutdown := sync.OnceFunc(func() {
		stopSaver()
		srv.Close()
	})
	defer shutdown()
	// The observability listener is a PRIVATE mux: registering pprof on
	// http.DefaultServeMux would expose profiling to anything else in
	// the process that serves the default mux, and the daemon must not
	// export /debug handlers unless the operator opted in.
	if *metricsAddr != "" {
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return err
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", srv.MetricsHandler())
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		hs := &http.Server{Handler: mux}
		go hs.Serve(mln)
		defer hs.Close()
		fmt.Fprintf(stdout, "nbtried: metrics on http://%s/metrics\n", mln.Addr())
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if *portFile != "" {
		if err := os.WriteFile(*portFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	fmt.Fprintf(stdout, "nbtried %s listening on %s (keyer=bytes width=%d)\n",
		server.Version, ln.Addr(), server.BytesKeyer{}.Width())

	// A cancelled context (signal, test shutdown) closes the server,
	// which unblocks Serve with a nil error: the graceful path.
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			shutdown()
		case <-done: // Serve failed on its own; don't leak the goroutine
		}
	}()
	if err := srv.Serve(ln); err != nil {
		// A signal can land between Listen and Serve: the watcher then
		// closes the server first and Serve refuses with an error even
		// though this is the graceful path. Cancellation always means a
		// clean shutdown, whatever Serve managed to observe.
		if ctx.Err() == nil {
			return err
		}
	}
	// Serve can return while the watcher's shutdown is still draining
	// connection goroutines; a second call waits for it, so this call is
	// the synchronization point — no handler is cut off by process exit.
	shutdown()
	fmt.Fprintln(stdout, "nbtried: shut down")
	return nil
}
