package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"nbtrie/internal/persist"
	"nbtrie/internal/resp"
	"nbtrie/internal/server"
)

// TestCrashRecoveryBattery is the durability acceptance test: a real
// nbtried process with -aof -appendfsync always is SIGKILLed mid-write
// over and over; after every restart, every write the previous
// incarnation ACKNOWLEDGED must still be there with the right value.
// Writes that were in flight at the kill (sent, no reply read) are
// allowed to be present or absent — but if present they must be intact
// and must then persist forever. Occasional BGSAVEs run during the
// traffic so kills also land mid-rotation and mid-dump. After the last
// cycle the data directory is opened in-process to run the trie's
// structural Validate over the recovered state.
//
// The subtest is named for the dispatch path it covers: every command
// runs on its connection's goroutine.
func TestCrashRecoveryBattery(t *testing.T) {
	cycles := 50
	if testing.Short() {
		cycles = 6
	}
	t.Run("conn", func(t *testing.T) { crashBattery(t, cycles) })
}

func crashBattery(t *testing.T, cycles int) {
	bin := buildDaemon(t)
	dataDir := t.TempDir()
	portFile := filepath.Join(t.TempDir(), "port")
	rng := rand.New(rand.NewSource(7))

	acked := map[string]string{} // promised: must survive every crash
	maybe := map[string]string{} // in flight at a kill: either fate is legal

	for cycle := 0; cycle < cycles; cycle++ {
		os.Remove(portFile)
		cmd := exec.Command(bin,
			"-addr", "127.0.0.1:0", "-port-file", portFile,
			"-dir", dataDir, "-aof", "-appendfsync", "always")
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		addr := waitPortFile(t, portFile)
		c := dialRESP(t, addr)

		// Every previously acknowledged write must have survived.
		verifyAll(t, c, cycle, acked)
		// In-flight writes of the previous incarnation: present means
		// durable now (they are in the recovered state, so every later
		// dump/AOF carries them) — promote; absent means dropped forever.
		for k, v := range maybe {
			if got, ok := getOne(t, c, k); ok {
				if got != v {
					t.Fatalf("cycle %d: in-flight key %q recovered with value %q, want %q", cycle, k, got, v)
				}
				acked[k] = v
			}
		}
		maybe = map[string]string{}

		// New traffic, killed at a random moment. The writer records a
		// key as acked only after reading its +OK; the one in flight at
		// the kill goes to maybe.
		killAfter := time.Duration(1+rng.Intn(12)) * time.Millisecond
		killed := make(chan struct{})
		go func() {
			time.Sleep(killAfter)
			cmd.Process.Signal(syscall.SIGKILL)
			close(killed)
		}()
		if cycle%5 == 2 {
			c.cmd("BGSAVE") // rotation racing the kill and the writes
			c.read()        // reply content irrelevant; may even fail mid-kill
		}
		for i := 0; i < 4000; i++ {
			k := fmt.Sprintf("c%02dk%03d", cycle, i)
			v := fmt.Sprintf("%d.%d", cycle, i)
			// Every 7th write carries a long TTL (SETEX = SET + PEXPIREAT
			// in the AOF): acked TTL'd writes must survive kills exactly
			// like plain SETs — the deadline is hours away, so for the
			// battery's value assertions they are ordinary durable keys.
			var err error
			if i%7 == 3 {
				err = c.cmd("SETEX", k, "3600", v)
			} else {
				err = c.cmd("SET", k, v)
			}
			if err != nil {
				break
			}
			maybe[k] = v
			if r, err := c.read(); err != nil || r.Kind != resp.TypeSimple {
				break // killed mid-ack: stays in maybe
			}
			delete(maybe, k)
			acked[k] = v
		}
		<-killed
		cmd.Wait() // reap; exit status is the SIGKILL, not a test signal
		c.close()
	}

	// Final incarnation opened in-process: full content + structural check.
	srv, err := server.New(server.Config{Persist: server.PersistConfig{
		Dir: dataDir, AOF: true, Fsync: persist.SyncAlways}})
	if err != nil {
		t.Fatalf("final recovery: %v", err)
	}
	defer srv.Close()
	if err := srv.DB().Validate(); err != nil {
		t.Fatalf("recovered trie fails Validate: %v", err)
	}
	keyer := server.BytesKeyer{}
	for k, v := range acked {
		kk, err := keyer.Encode([]byte(k))
		if err != nil {
			t.Fatal(err)
		}
		got, ok := srv.DB().Load(kk)
		if !ok || string(got) != v {
			t.Fatalf("acked key %q lost or damaged after %d crash cycles (got %q, ok=%v)", k, cycles, got, ok)
		}
	}
	t.Logf("%d crash cycles: %d acknowledged writes, zero lost", cycles, len(acked))
}

// buildDaemon compiles the real binary once per test run.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "nbtried")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func waitPortFile(t *testing.T, path string) string {
	t.Helper()
	for i := 0; i < 1000; i++ {
		if b, err := os.ReadFile(path); err == nil && len(b) > 0 {
			return strings.TrimSpace(string(b))
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("port file never appeared")
	return ""
}

// crashClient is a raw pipelining-capable RESP client whose errors are
// data, not fatal: the server dying underneath it is the test.
type crashClient struct {
	conn net.Conn
	r    *bufio.Reader
	w    *resp.Writer
}

func dialRESP(t *testing.T, addr string) *crashClient {
	t.Helper()
	var conn net.Conn
	var err error
	for i := 0; i < 100; i++ {
		conn, err = net.Dial("tcp", addr)
		if err == nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	return &crashClient{conn: conn, r: bufio.NewReader(conn), w: resp.NewWriter(bufio.NewWriter(conn))}
}

func (c *crashClient) cmd(args ...string) error {
	c.w.WriteCommandString(args...)
	return c.w.Flush()
}

func (c *crashClient) read() (resp.Value, error) {
	return resp.ReadReply(c.r, resp.Limits{})
}

func (c *crashClient) close() { c.conn.Close() }

func getOne(t *testing.T, c *crashClient, k string) (string, bool) {
	t.Helper()
	if err := c.cmd("GET", k); err != nil {
		t.Fatal(err)
	}
	v, err := c.read()
	if err != nil {
		t.Fatal(err)
	}
	if v.IsNull() {
		return "", false
	}
	return string(v.Str), true
}

// verifyAll pipelines a GET for every acknowledged key and checks each
// reply — the zero-acked-write-loss assertion, run after every crash.
func verifyAll(t *testing.T, c *crashClient, cycle int, acked map[string]string) {
	t.Helper()
	keys := make([]string, 0, len(acked))
	for k := range acked {
		keys = append(keys, k)
		c.w.WriteCommandString("GET", k)
	}
	if err := c.w.Flush(); err != nil {
		t.Fatalf("cycle %d: verify flush: %v", cycle, err)
	}
	for _, k := range keys {
		v, err := c.read()
		if err != nil {
			t.Fatalf("cycle %d: verify read: %v", cycle, err)
		}
		if v.IsNull() || string(v.Str) != acked[k] {
			t.Fatalf("cycle %d: ACKNOWLEDGED write %q lost or damaged: got %s, want %q",
				cycle, k, v, acked[k])
		}
	}
}
