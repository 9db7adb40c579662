package main

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"nbtrie/internal/resp"
)

// TestDaemonLifecycle drives the whole daemon in-process: random port,
// port file, one client session, then graceful shutdown via context
// cancellation (the signal path minus the signal).
func TestDaemonLifecycle(t *testing.T) {
	dir := t.TempDir()
	portFile := filepath.Join(dir, "port.txt")
	ctx, cancel := context.WithCancel(context.Background())
	var out bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-port-file", portFile}, &out, os.Stderr)
	}()

	// Wait for the port file.
	var addr string
	for i := 0; i < 200; i++ {
		if b, err := os.ReadFile(portFile); err == nil && len(b) > 0 {
			addr = strings.TrimSpace(string(b))
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if addr == "" {
		t.Fatal("port file never appeared")
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	w := resp.NewWriter(bufio.NewWriter(conn))
	w.WriteCommandString("SET", "k", "v")
	w.WriteCommandString("GET", "k")
	w.WriteCommandString("DBSIZE")
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"OK", `"v"`, "(integer) 1"} {
		v, err := resp.ReadReply(r, resp.Limits{})
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if v.String() != want {
			t.Fatalf("reply %d = %s, want %s", i, v, want)
		}
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v on graceful shutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	if !strings.Contains(out.String(), "listening on") || !strings.Contains(out.String(), "shut down") {
		t.Fatalf("daemon output missing lifecycle lines:\n%s", out.String())
	}
	// The banner names the one wire-key mapping and its width.
	if !strings.Contains(out.String(), "(keyer=bytes width=59)") {
		t.Fatalf("banner does not report the bytes keyer at 59 bits:\n%s", out.String())
	}
}

func TestDaemonBadFlags(t *testing.T) {
	// Cancelled up front: a case that wrongly starts serving returns
	// nil at once instead of hanging.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errOut bytes.Buffer
	for _, args := range [][]string{
		// The wire-key mapping, the keyspace's shape and SCAN's page
		// are not flags.
		{"-keyer", "bytes"},
		{"-width", "20"},
		{"-shards", "1"},
		{"-span", "4"},
		{"-scan-count", "5"},
		{"-addr", "not an address"},
		{"-aof"}, // -aof without -dir
		{"-appendfsync", "sometimes"},
		{"-dir", os.DevNull + "/nope", "-save", "-1"},
		{"-save", "5", "-addr", "127.0.0.1:0"}, // -save without -dir
		// Sizes below 1 are refused, not replaced by the defaults.
		{"-max-bulk", "-5", "-addr", "127.0.0.1:0"},
		{"-max-bulk", "0", "-addr", "127.0.0.1:0"},
		{"-slowlog-max-len", "-1", "-addr", "127.0.0.1:0"},
		{"-slowlog-max-len", "0", "-addr", "127.0.0.1:0"},
	} {
		if err := run(ctx, args, &out, &errOut); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestDaemonMetricsEndpoint boots with the observability listener and
// the Redis-semantics slowlog flag (0 = log everything), drives traffic
// over RESP, and scrapes /metrics plus a pprof endpoint over HTTP.
func TestDaemonMetricsEndpoint(t *testing.T) {
	dir := t.TempDir()
	portFile := filepath.Join(dir, "port.txt")
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	var out bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0", "-port-file", portFile,
			"-metrics-addr", "127.0.0.1:0",
			"-slowlog-log-slower-than", "0",
		}, writerFunc(func(p []byte) (int, error) {
			mu.Lock()
			defer mu.Unlock()
			return out.Write(p)
		}), os.Stderr)
	}()
	defer func() {
		cancel()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("daemon did not shut down")
		}
	}()

	var addr, metricsURL string
	for i := 0; i < 200 && (addr == "" || metricsURL == ""); i++ {
		if b, err := os.ReadFile(portFile); err == nil && len(b) > 0 {
			addr = strings.TrimSpace(string(b))
		}
		mu.Lock()
		for _, line := range strings.Split(out.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "nbtried: metrics on "); ok {
				metricsURL = strings.TrimSpace(rest)
			}
		}
		mu.Unlock()
		time.Sleep(10 * time.Millisecond)
	}
	if addr == "" || metricsURL == "" {
		t.Fatalf("startup incomplete: addr=%q metricsURL=%q", addr, metricsURL)
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	w := resp.NewWriter(bufio.NewWriter(conn))
	w.WriteCommandString("SET", "k", "v")
	w.WriteCommandString("SLOWLOG", "LEN")
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if v, err := resp.ReadReply(r, resp.Limits{}); err != nil || v.String() != "OK" {
		t.Fatalf("SET = %s (%v), want OK", v, err)
	}
	// -slowlog-log-slower-than 0 means the SET was logged.
	if v, err := resp.ReadReply(r, resp.Limits{}); err != nil || v.Kind != resp.TypeInt || v.Int < 1 {
		t.Fatalf("SLOWLOG LEN = %s (%v), want >= 1", v, err)
	}

	body := httpGet(t, metricsURL)
	if !strings.Contains(body, `nbtried_commands_total{cmd="set"} 1`) {
		t.Errorf("/metrics missing the SET count:\n%s", body)
	}
	if !strings.Contains(body, "nbtried_engine_help_total") {
		t.Error("/metrics missing engine families")
	}
	if b := httpGet(t, strings.TrimSuffix(metricsURL, "/metrics")+"/debug/pprof/cmdline"); len(b) == 0 {
		t.Error("pprof cmdline endpoint returned nothing")
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s = %d, want 200", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
