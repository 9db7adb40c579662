package server

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"nbtrie/internal/resp"
)

// scanPage sends one SCAN cursor COUNT count and returns the next cursor
// and the page's keys.
func scanPage(c *testClient, cursor string, count int) (string, []string) {
	c.t.Helper()
	v := c.do("SCAN", cursor, "COUNT", fmt.Sprint(count))
	if v.Kind != resp.TypeArray || len(v.Array) != 2 || v.Array[1].Kind != resp.TypeArray {
		c.t.Fatalf("SCAN %s reply shape: %s", cursor, v)
	}
	keys := make([]string, len(v.Array[1].Array))
	for i, k := range v.Array[1].Array {
		keys[i] = string(k.Str)
	}
	return string(v.Array[0].Str), keys
}

// pipeline sends cmds on c in one flush, reads a reply to each and fails
// on an error reply.
func pipeline(c *testClient, cmds [][]string) {
	c.t.Helper()
	for _, args := range cmds {
		c.w.WriteCommandString(args...)
	}
	if err := c.w.Flush(); err != nil {
		c.t.Fatal(err)
	}
	for _, args := range cmds {
		v, err := resp.ReadReply(c.r, resp.Limits{})
		if err != nil {
			c.t.Fatalf("%v: %v", args, err)
		}
		if v.Kind == resp.TypeError {
			c.t.Fatalf("%v = %s", args, v)
		}
	}
}

// TestServerScanUnderChurn is a concurrent oracle for SCAN's guarantee,
// Redis's: two writers SET, DEL and RENAME the keys of a churn set over
// the wire while small-COUNT walks run, and a stable set is never
// touched. Every walk must return each stable key exactly once, no key
// that was never written, and its keys in strictly ascending trie-key
// order, so no key twice. A cursor that resumed at a page's last key
// would repeat it, one that resumed past the next key would skip it.
func TestServerScanUnderChurn(t *testing.T) {
	_, addr := startServer(t, Config{})
	c := dial(t, addr)
	const stableN, churnN = 300, 64
	var load [][]string
	for i := range stableN {
		load = append(load, []string{"SET", fmt.Sprintf("s%d", i), "v"})
	}
	churn := func(i int) string { return fmt.Sprintf("c%d", i%churnN) }
	for i := 0; i < churnN; i += 2 {
		load = append(load, []string{"SET", churn(i), "v"})
	}
	pipeline(c, load)

	stop := make(chan struct{})
	var writes atomic.Int64
	var wg sync.WaitGroup
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			r, w := bufio.NewReader(conn), resp.NewWriter(bufio.NewWriter(conn))
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				const batch = 8
				for range batch {
					a, b := churn(rng.Intn(churnN)), churn(rng.Intn(churnN))
					switch rng.Intn(3) {
					case 0:
						w.WriteCommandString("SET", a, "w")
					case 1:
						w.WriteCommandString("DEL", a)
					default:
						// Refused when a is missing or b exists: either
						// way the reply is read and the key set stays
						// inside the churn set.
						w.WriteCommandString("RENAME", a, b)
					}
				}
				if err := w.Flush(); err != nil {
					t.Error(err)
					return
				}
				for range batch {
					if _, err := resp.ReadReply(r, resp.Limits{}); err != nil {
						t.Error(err)
						return
					}
				}
				writes.Add(batch)
			}
		}()
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()

	var during int64
	for walk := range 24 {
		count := 1 + walk%5
		before := writes.Load()
		seen := map[string]bool{}
		var prev uint64
		cursor, pages := "0", 0
		for {
			var keys []string
			cursor, keys = scanPage(c, cursor, count)
			for _, k := range keys {
				if !strings.HasPrefix(k, "s") && !strings.HasPrefix(k, "c") {
					t.Fatalf("walk %d (COUNT %d) returned %q, a key never written", walk, count, k)
				}
				enc := mustEncode(t, k)
				if len(seen) > 0 && enc <= prev {
					t.Fatalf("walk %d (COUNT %d): %q after a key at or above it (repeated: %v)", walk, count, k, seen[k])
				}
				prev = enc
				seen[k] = true
			}
			if pages++; cursor == "0" {
				break
			}
			if pages > 2*(stableN+churnN) {
				t.Fatalf("walk %d never terminated", walk)
			}
		}
		for i := range stableN {
			if k := fmt.Sprintf("s%d", i); !seen[k] {
				t.Fatalf("walk %d (COUNT %d) skipped %q, present for the whole walk", walk, count, k)
			}
		}
		during += writes.Load() - before
	}
	if during == 0 {
		t.Fatal("no write landed during a walk")
	}
}

// TestScanAbandonedHoldsNoHeap: a client that opens a SCAN and hangs up
// pins nothing. Overwriting every key with a 64-byte value after an
// abandoned SCAN 0 COUNT 1 leaves the live heap within 5% of the same
// run without the SCAN. A cursor that held an engine snapshot would keep
// the pre-image of the whole keyspace reachable, about doubling it.
func TestScanAbandonedHoldsNoHeap(t *testing.T) {
	const n = 20000
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	grown := func(abandon bool) uint64 {
		base := heap()
		s, addr := startServer(t, Config{})
		defer s.Close() // the next run measures without this keyspace
		c := dial(t, addr)
		write := func(fill byte) {
			value := strings.Repeat(string(fill), 64)
			for lo := 0; lo < n; lo += 1000 {
				cmds := make([][]string, 0, 1000)
				for i := lo; i < lo+1000; i++ {
					cmds = append(cmds, []string{"SET", fmt.Sprintf("k%d", i), value})
				}
				pipeline(c, cmds)
			}
		}
		write('a')
		if abandon {
			a := dial(t, addr)
			if cursor, _ := scanPage(a, "0", 1); cursor == "0" {
				t.Fatal("SCAN 0 COUNT 1 finished in one page")
			}
			a.conn.Close()
		}
		write('b')
		return heap() - base
	}
	without, with := grown(false), grown(true)
	t.Logf("%d keys overwritten: heap grew %d B without a SCAN, %d B with one abandoned", n, without, with)
	if float64(with) > 1.05*float64(without) {
		t.Fatalf("an abandoned SCAN kept %d B more heap (%.0f B per key), want within 5%% of %d B",
			with-without, float64(with-without)/n, without)
	}
}

// TestScanCursorResumes: a cursor names a place in the trie, not server
// state, so a walk resumes on another connection and across a restart
// on the same data directory, and the union of its pages is the keyset,
// each key once.
func TestScanCursorResumes(t *testing.T) {
	cfg := persistCfg(t.TempDir())
	s, addr := startServer(t, cfg)
	c := dial(t, addr)
	const n = 60
	var load [][]string
	for i := range n {
		load = append(load, []string{"SET", fmt.Sprintf("r%d", i), "v"})
	}
	pipeline(c, load)

	seen := map[string]int{}
	take := func(c *testClient, cursor string) string {
		t.Helper()
		next, keys := scanPage(c, cursor, 7)
		for _, k := range keys {
			seen[k]++
		}
		return next
	}
	cursor := take(c, "0")
	c.conn.Close()
	c = dial(t, addr)
	cursor = take(c, cursor)
	if cursor == "0" {
		t.Fatal("walk ended before the restart")
	}
	_, addr = restart(t, s, cfg)
	c = dial(t, addr)
	for pages := 0; cursor != "0"; pages++ {
		if pages > n {
			t.Fatal("SCAN never terminated")
		}
		cursor = take(c, cursor)
	}
	if len(seen) != n {
		t.Fatalf("walk across a reconnect and a restart saw %d distinct keys, want %d", len(seen), n)
	}
	for k, cnt := range seen {
		if cnt != 1 {
			t.Errorf("key %q returned %d times", k, cnt)
		}
	}
}

// TestScanCursorPastKeySpace: a cursor above every trie key ends the walk
// with an empty page, the shape of an exhausted scan.
func TestScanCursorPastKeySpace(t *testing.T) {
	_, addr := startServer(t, Config{})
	c := dial(t, addr)
	c.mustSimple("OK", "SET", "k", "v")
	for _, cursor := range []string{"18446744073709551615", fmt.Sprint(uint64(1) << BytesKeyer{}.Width() << 1)} {
		if next, keys := scanPage(c, cursor, 10); next != "0" || len(keys) != 0 {
			t.Errorf("SCAN %s = cursor %s and %d keys, want 0 and none", cursor, next, len(keys))
		}
	}
}
