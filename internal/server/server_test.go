package server

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"nbtrie/internal/persist"
	"nbtrie/internal/resp"
)

// startServer spins a server on a random loopback port and returns a
// dialer; everything is torn down with the test.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("Serve returned %v after Close, want nil", err)
		}
	})
	return s, ln.Addr().String()
}

// testClient is a minimal synchronous RESP client over the shared codec.
type testClient struct {
	t    *testing.T
	conn net.Conn
	r    *bufio.Reader
	w    *resp.Writer
}

func dial(t *testing.T, addr string) *testClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &testClient{
		t:    t,
		conn: conn,
		r:    bufio.NewReader(conn),
		w:    resp.NewWriter(bufio.NewWriter(conn)),
	}
}

// do sends one command and reads one reply.
func (c *testClient) do(args ...string) resp.Value {
	c.t.Helper()
	c.w.WriteCommandString(args...)
	if err := c.w.Flush(); err != nil {
		c.t.Fatal(err)
	}
	v, err := resp.ReadReply(c.r, resp.Limits{})
	if err != nil {
		c.t.Fatalf("%v: %v", args, err)
	}
	return v
}

func (c *testClient) mustSimple(want string, args ...string) {
	c.t.Helper()
	if v := c.do(args...); v.Kind != resp.TypeSimple || string(v.Str) != want {
		c.t.Fatalf("%v = %s, want +%s", args, v, want)
	}
}

func (c *testClient) mustInt(want int64, args ...string) {
	c.t.Helper()
	if v := c.do(args...); v.Kind != resp.TypeInt || v.Int != want {
		c.t.Fatalf("%v = %s, want :%d", args, v, want)
	}
}

func (c *testClient) mustBulk(want string, args ...string) {
	c.t.Helper()
	if v := c.do(args...); v.Kind != resp.TypeBulk || string(v.Str) != want {
		c.t.Fatalf("%v = %s, want %q", args, v, want)
	}
}

func (c *testClient) mustNull(args ...string) {
	c.t.Helper()
	if v := c.do(args...); !v.IsNull() {
		c.t.Fatalf("%v = %s, want (nil)", args, v)
	}
}

func (c *testClient) mustErrContain(want string, args ...string) {
	c.t.Helper()
	v := c.do(args...)
	if v.Kind != resp.TypeError || !strings.Contains(string(v.Str), want) {
		c.t.Fatalf("%v = %s, want error containing %q", args, v, want)
	}
}

func TestServerBasics(t *testing.T) {
	_, addr := startServer(t, Config{})
	c := dial(t, addr)

	c.mustSimple("PONG", "PING")
	c.mustBulk("hello", "PING", "hello")
	c.mustNull("GET", "nope")
	c.mustSimple("OK", "SET", "foo", "bar")
	c.mustBulk("bar", "GET", "foo")
	c.mustInt(1, "EXISTS", "foo")
	c.mustInt(2, "EXISTS", "foo", "foo", "nope")
	c.mustInt(1, "DBSIZE")
	c.mustSimple("OK", "SET", "foo", "rebound") // overwrite
	c.mustBulk("rebound", "GET", "foo")
	c.mustInt(1, "DBSIZE")
	c.mustInt(1, "DEL", "foo", "ghost")
	c.mustInt(0, "DEL", "foo")
	c.mustInt(0, "DBSIZE")
	c.mustNull("GET", "foo")

	// Case-insensitive commands.
	c.mustSimple("OK", "set", "k", "v")
	c.mustBulk("v", "gEt", "k")

	// MSET/MGET.
	c.mustSimple("OK", "MSET", "a", "1", "b", "2")
	v := c.do("MGET", "a", "nope", "b")
	if v.Kind != resp.TypeArray || len(v.Array) != 3 ||
		string(v.Array[0].Str) != "1" || !v.Array[1].IsNull() || string(v.Array[2].Str) != "2" {
		t.Fatalf("MGET = %s", v)
	}

	// Errors keep the connection alive.
	c.mustErrContain("unknown command", "FLUSHALL")
	c.mustErrContain("wrong number of arguments", "SET", "justkey")
	c.mustErrContain("9 bytes exceeds", "SET", "eightbyte", "v") // bytes keyer limit
	c.mustSimple("PONG", "PING")

	// INFO mentions the engine and the keyspace.
	info := c.do("INFO")
	if info.Kind != resp.TypeBulk || !strings.Contains(string(info.Str), "engine:nbtrie-sharded-patricia") {
		t.Fatalf("INFO = %s", info)
	}

	// QUIT answers then closes.
	c.mustSimple("OK", "QUIT")
	if _, err := resp.ReadReply(c.r, resp.Limits{}); err == nil {
		t.Fatal("connection still open after QUIT")
	}
}

// TestServerBinaryValues: values are raw bytes, CRLF and NUL included.
func TestServerBinaryValues(t *testing.T) {
	_, addr := startServer(t, Config{})
	c := dial(t, addr)
	val := "a\r\nb\x00c"
	c.mustSimple("OK", "SET", "bin", val)
	c.mustBulk(val, "GET", "bin")
	c.mustSimple("OK", "SET", "empty", "")
	c.mustBulk("", "GET", "empty")
	c.mustInt(1, "EXISTS", "empty")
}

// TestServerPipelining writes a whole batch of commands before reading
// a single reply and then requires every reply, in request order.
func TestServerPipelining(t *testing.T) {
	_, addr := startServer(t, Config{})
	c := dial(t, addr)

	const n = 200
	for i := 0; i < n; i++ {
		c.w.WriteCommandString("SET", fmt.Sprintf("k%03d", i%50), fmt.Sprintf("v%d", i))
		c.w.WriteCommandString("GET", fmt.Sprintf("k%03d", i%50))
	}
	if err := c.w.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		set, err := resp.ReadReply(c.r, resp.Limits{})
		if err != nil {
			t.Fatalf("reply %d: %v", 2*i, err)
		}
		if set.Kind != resp.TypeSimple || string(set.Str) != "OK" {
			t.Fatalf("pipelined SET %d = %s", i, set)
		}
		get, err := resp.ReadReply(c.r, resp.Limits{})
		if err != nil {
			t.Fatalf("reply %d: %v", 2*i+1, err)
		}
		if want := fmt.Sprintf("v%d", i); get.Kind != resp.TypeBulk || string(get.Str) != want {
			t.Fatalf("pipelined GET %d = %s, want %q (in-order replies)", i, get, want)
		}
	}
}

// TestServerRename covers all four outcomes: atomic same-shard rename,
// missing source, existing destination, and the cross-shard refusal.
func TestServerRename(t *testing.T) {
	// Decimal keyer at width 16 with 8 shards: the top 3 bits route, so
	// keys 0..8191 share shard 0 and 8192 lands in shard 1 — the shard
	// boundary is exactly computable for the test.
	s, addr := startServer(t, Config{Keyer: DecimalKeyer{KeyWidth: 16}, Shards: 8})
	if s.DB().Shards() != 8 {
		t.Fatalf("shards = %d", s.DB().Shards())
	}
	c := dial(t, addr)

	c.mustSimple("OK", "SET", "100", "payload")
	c.mustSimple("OK", "RENAME", "100", "200") // same shard: atomic Replace
	c.mustNull("GET", "100")
	c.mustBulk("payload", "GET", "200")

	c.mustErrContain("no such key", "RENAME", "100", "300")

	c.mustSimple("OK", "SET", "300", "other")
	c.mustErrContain("destination key exists", "RENAME", "200", "300")
	c.mustBulk("payload", "GET", "200") // refused rename changed nothing
	c.mustBulk("other", "GET", "300")

	// Rename to self: Redis semantics, no Replace involved.
	c.mustSimple("OK", "RENAME", "200", "200")
	c.mustErrContain("no such key", "RENAME", "5555", "5555")
	c.mustErrContain("not a decimal", "RENAME", "ghost", "ghost")

	// Cross-shard: 200 is in shard 0, 8192+200 in shard 1. Strict mode
	// preserves the atomic-only contract and refuses; plain RENAME runs
	// the two-phase move (DESIGN.md §12) and succeeds.
	if s.DB().SameShard(200, 8392) {
		t.Fatal("test premise broken: keys share a shard")
	}
	c.mustErrContain("CROSSSHARD", "RENAMESTRICT", "200", "8392")
	c.mustBulk("payload", "GET", "200") // refusal was not a partial move
	c.mustNull("GET", "8392")

	c.mustSimple("OK", "RENAME", "200", "8392") // two-phase cross-shard move
	c.mustNull("GET", "200")
	c.mustBulk("payload", "GET", "8392")

	// RENAMESTRICT is the same command on same-shard pairs.
	c.mustSimple("OK", "SET", "400", "strictv")
	c.mustSimple("OK", "RENAMESTRICT", "400", "500")
	c.mustBulk("strictv", "GET", "500")
	c.mustErrContain("no such key", "RENAMESTRICT", "400", "600")

	// Cross-shard destination-exists: MoveKey refuses, nothing moved.
	c.mustErrContain("destination key exists", "RENAME", "300", "8392")
	c.mustBulk("other", "GET", "300")
	c.mustBulk("payload", "GET", "8392")
}

// TestServerScan walks a known key set page by page and requires every
// key exactly once, in order, with a terminating cursor.
func TestServerScan(t *testing.T) {
	_, addr := startServer(t, Config{Keyer: DecimalKeyer{KeyWidth: 20}})
	c := dial(t, addr)

	const n = 137
	want := make([]string, 0, n)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("%d", i*13)
		want = append(want, key)
		c.mustSimple("OK", "SET", key, "x")
	}
	c.mustInt(n, "DBSIZE")

	var got []string
	cursor := "0"
	for pages := 0; ; pages++ {
		if pages > n {
			t.Fatal("SCAN did not terminate")
		}
		v := c.do("SCAN", cursor, "COUNT", "10")
		if v.Kind != resp.TypeArray || len(v.Array) != 2 || v.Array[1].Kind != resp.TypeArray {
			t.Fatalf("SCAN reply shape: %s", v)
		}
		for _, k := range v.Array[1].Array {
			got = append(got, string(k.Str))
		}
		cursor = string(v.Array[0].Str)
		if cursor == "0" {
			break
		}
	}
	if len(got) != n {
		t.Fatalf("SCAN returned %d keys, want %d", len(got), n)
	}
	for i, k := range got {
		if k != want[i] {
			t.Fatalf("SCAN key %d = %q, want %q (numeric order)", i, k, want[i])
		}
	}

	// Default COUNT and option errors.
	if v := c.do("SCAN", "0"); v.Kind != resp.TypeArray || len(v.Array[1].Array) != 10 {
		t.Fatalf("default COUNT page = %s", v)
	}
	c.mustErrContain("invalid cursor", "SCAN", "abc")
	c.mustErrContain("COUNT", "SCAN", "0", "MATCH", "*")
	c.mustErrContain("COUNT must be", "SCAN", "0", "COUNT", "0")
}

// TestServerConcurrentClients hammers the server from many connections
// and checks the surviving keyspace against DBSIZE; together with -race
// this is the connection-level concurrency smoke.
func TestServerConcurrentClients(t *testing.T) {
	s, addr := startServer(t, Config{})
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			r := bufio.NewReader(conn)
			wr := resp.NewWriter(bufio.NewWriter(conn))
			// Each worker owns its key and also fights over a shared one.
			mine := fmt.Sprintf("own%d", id)
			for i := 0; i < 300; i++ {
				wr.WriteCommandString("SET", mine, fmt.Sprintf("%d", i))
				wr.WriteCommandString("SET", "shared", fmt.Sprintf("w%d-%d", id, i))
				wr.WriteCommandString("GET", mine)
				wr.WriteCommandString("DEL", "victim")
				wr.WriteCommandString("SET", "victim", "v")
			}
			if err := wr.Flush(); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 300*5; i++ {
				v, err := resp.ReadReply(r, resp.Limits{})
				if err != nil {
					t.Errorf("worker %d reply %d: %v", id, i, err)
					return
				}
				if i%5 == 2 { // the GET of the worker's own key
					if want := fmt.Sprintf("%d", i/5); string(v.Str) != want {
						t.Errorf("worker %d own-key GET = %s, want %q", id, v, want)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	// At quiescence: workers' own keys + shared + possibly victim.
	n := s.DB().Len()
	if n < workers+1 || n > workers+2 {
		t.Fatalf("DBSIZE = %d, want %d or %d", n, workers+1, workers+2)
	}
}

// TestServerProtocolErrorClosesConnection: framing errors (here: an
// inline command) are answered and then the connection dies.
func TestServerProtocolErrorClosesConnection(t *testing.T) {
	_, addr := startServer(t, Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET foo\r\n")); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	v, err := resp.ReadReply(r, resp.Limits{})
	if err != nil || v.Kind != resp.TypeError || !strings.Contains(string(v.Str), "inline commands") {
		t.Fatalf("inline command reply = %s, %v", v, err)
	}
	if _, err := r.ReadByte(); err == nil {
		t.Fatal("connection survived a protocol error")
	}
}

// TestServerOversizedBulkRejected: the configured bulk limit is
// enforced mid-parse and kills the connection.
func TestServerOversizedBulkRejected(t *testing.T) {
	_, addr := startServer(t, Config{Limits: resp.Limits{MaxBulkLen: 64}})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$100000\r\n")
	v, err := resp.ReadReply(bufio.NewReader(conn), resp.Limits{})
	if err != nil || v.Kind != resp.TypeError || !strings.Contains(string(v.Str), "exceeds limit") {
		t.Fatalf("oversized bulk reply = %s, %v", v, err)
	}
}

// TestServerGracefulClose: Close unblocks Serve, drops live
// connections and leaves the server reusable for inspection.
func TestServerGracefulClose(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()

	c := dial(t, ln.Addr().String())
	c.mustSimple("OK", "SET", "k", "v")

	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve after Close: %v", err)
	}
	// The live connection was torn down.
	if _, err := resp.ReadReply(c.r, resp.Limits{}); err == nil {
		t.Fatal("connection survived Close")
	}
	// Data outlives the listener (the map belongs to the Server).
	if v, ok := s.DB().Load(mustEncode(t, BytesKeyer{}, "k")); !ok || !bytes.Equal(v, []byte("v")) {
		t.Fatal("stored value lost across Close")
	}
	// Double Close is fine; Serve after Close refuses.
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	ln2, _ := net.Listen("tcp", "127.0.0.1:0")
	if err := s.Serve(ln2); err == nil {
		t.Fatal("Serve on a closed server must refuse")
	}
}

func mustEncode(t *testing.T, k Keyer, key string) uint64 {
	t.Helper()
	v, err := k.Encode([]byte(key))
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// Regression tests for the review findings: hostile SCAN counts, raw
// bytes in error replies, and half-applied multi-key batches.

// TestServerScanHostileCount: a client-supplied COUNT must be clamped
// to the resolved array limit before it sizes any allocation — the
// daemon survives and answers within limits.
func TestServerScanHostileCount(t *testing.T) {
	_, addr := startServer(t, Config{Keyer: DecimalKeyer{KeyWidth: 20}})
	c := dial(t, addr)
	for i := 0; i < 2000; i++ {
		c.w.WriteCommandString("SET", fmt.Sprintf("%d", i), "x")
	}
	if err := c.w.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if _, err := resp.ReadReply(c.r, resp.Limits{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, count := range []string{"4611686018427387904", "999999999", "2000"} {
		v := c.do("SCAN", "0", "COUNT", count)
		if v.Kind != resp.TypeArray || len(v.Array) != 2 {
			t.Fatalf("SCAN COUNT %s reply shape: %s", count, v)
		}
		if got := len(v.Array[1].Array); got > resp.DefaultLimits.MaxArrayLen {
			t.Fatalf("SCAN COUNT %s returned %d keys, beyond the array limit", count, got)
		}
	}
	c.mustSimple("PONG", "PING") // server alive, stream in sync
}

// TestServerErrorRepliesAreCRLFSafe: raw client bytes echoed into an
// error reply must not be able to split the RESP stream.
func TestServerErrorRepliesAreCRLFSafe(t *testing.T) {
	_, addr := startServer(t, Config{})
	c := dial(t, addr)
	// Command name and SCAN option carrying CRLF and a fake reply.
	evil := "x\r\n:999\r\n+OK"
	c.w.WriteCommand([]byte(evil))
	c.w.WriteCommandString("PING")
	c.w.WriteCommandString("SCAN", "0", evil, "5")
	c.w.WriteCommandString("PING")
	if err := c.w.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, want := range []byte{resp.TypeError, resp.TypeSimple, resp.TypeError, resp.TypeSimple} {
		v, err := resp.ReadReply(c.r, resp.Limits{})
		if err != nil {
			t.Fatalf("reply %d: %v (stream desynchronized)", i, err)
		}
		if v.Kind != want {
			t.Fatalf("reply %d = %s, want kind %q", i, v, want)
		}
	}
}

// TestServerErrorEchoBounded: an error reply quotes at most 128 bytes
// of an echoed client argument, however long the argument, and the
// connection stays usable.
func TestServerErrorEchoBounded(t *testing.T) {
	_, addr := startServer(t, Config{})
	c := dial(t, addr)
	huge := strings.Repeat("x", 1<<20)
	for _, args := range [][]string{{huge}, {"SCAN", "0", huge, "5"}} {
		v := c.do(args...)
		if v.Kind != resp.TypeError || len(v.Str) >= 512 {
			t.Fatalf("%s… reply is %d bytes, want an error under 512", args[0][:min(len(args[0]), 8)], len(v.Str))
		}
		c.mustSimple("PONG", "PING")
	}
}

// TestServerMultiKeyBatchesValidateFirst: an invalid key anywhere in a
// DEL/EXISTS/MGET/MSET batch fails the whole command before any effect.
func TestServerMultiKeyBatchesValidateFirst(t *testing.T) {
	_, addr := startServer(t, Config{})
	c := dial(t, addr)
	c.mustSimple("OK", "SET", "aa", "1")
	c.mustSimple("OK", "SET", "ab", "2")

	longKey := "12345678" // 8 bytes: rejected by the bytes keyer
	c.mustErrContain("8 bytes exceeds", "DEL", "aa", longKey, "ab")
	c.mustInt(2, "EXISTS", "aa", "ab") // nothing was deleted
	c.mustErrContain("8 bytes exceeds", "EXISTS", "aa", longKey)
	c.mustErrContain("8 bytes exceeds", "MGET", "aa", longKey)
	c.mustErrContain("8 bytes exceeds", "MSET", "ac", "3", longKey, "4")
	c.mustInt(0, "EXISTS", "ac") // MSET applied nothing
	c.mustSimple("PONG", "PING")
}

// TestServerFlushesBeforeBlockingOnPartialCommand: a complete command
// followed by a *partial* next command in the same send must still get
// its reply — the flush has to happen when the parser blocks on the
// socket, not only when the read buffer is empty.
func TestServerFlushesBeforeBlockingOnPartialCommand(t *testing.T) {
	_, addr := startServer(t, Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// One whole PING plus the opening bytes of a second command.
	if _, err := conn.Write([]byte("*1\r\n$4\r\nPING\r\n*1\r\n$4\r\nPI")); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(3 * time.Second)); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	v, err := resp.ReadReply(r, resp.Limits{})
	if err != nil {
		t.Fatalf("PONG withheld while the next command is partial: %v", err)
	}
	if v.Kind != resp.TypeSimple || string(v.Str) != "PONG" {
		t.Fatalf("reply = %s, want +PONG", v)
	}
	// Completing the second command still works on the same stream.
	if _, err := conn.Write([]byte("NG\r\n")); err != nil {
		t.Fatal(err)
	}
	if v, err = resp.ReadReply(r, resp.Limits{}); err != nil || string(v.Str) != "PONG" {
		t.Fatalf("second reply = %s, %v", v, err)
	}
}

// TestServerPipelinedMixedBurst: a deep pipelined burst mixing
// single-key commands (the same keys repeatedly) with keyless and
// multi-key commands must come back strictly in request order, each
// reply observing every command pipelined before it.
func TestServerPipelinedMixedBurst(t *testing.T) {
	_, addr := startServer(t, Config{Shards: 8})
	c := dial(t, addr)

	const rounds = 300
	for i := 0; i < rounds; i++ {
		key := fmt.Sprintf("k%d", i%17)
		c.w.WriteCommandString("SET", key, fmt.Sprintf("v%d", i))
		c.w.WriteCommandString("GET", key)
		if i%50 == 49 {
			// Keyless and multi-key commands mid-burst must slot into the
			// reply stream exactly here.
			c.w.WriteCommandString("DBSIZE")
			c.w.WriteCommandString("MGET", key, "nope")
		}
	}
	if err := c.w.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rounds; i++ {
		set, err := resp.ReadReply(c.r, resp.Limits{})
		if err != nil {
			t.Fatalf("SET reply %d: %v", i, err)
		}
		if set.Kind != resp.TypeSimple || string(set.Str) != "OK" {
			t.Fatalf("SET %d = %s", i, set)
		}
		get, err := resp.ReadReply(c.r, resp.Limits{})
		if err != nil {
			t.Fatalf("GET reply %d: %v", i, err)
		}
		// The GET pipelined right after its SET must observe exactly that
		// SET's value.
		want := fmt.Sprintf("v%d", i)
		if get.Kind != resp.TypeBulk || string(get.Str) != want {
			t.Fatalf("GET %d = %s, want %q (per-key order broken)", i, get, want)
		}
		if i%50 == 49 {
			size, err := resp.ReadReply(c.r, resp.Limits{})
			if err != nil || size.Kind != resp.TypeInt || size.Int != 17 {
				t.Fatalf("DBSIZE reply %d: %s, %v, want 17", i, size, err)
			}
			mget, err := resp.ReadReply(c.r, resp.Limits{})
			if err != nil || mget.Kind != resp.TypeArray || len(mget.Array) != 2 ||
				string(mget.Array[0].Str) != want || !mget.Array[1].IsNull() {
				t.Fatalf("MGET reply %d: %s, %v, want [%q nil]", i, mget, err, want)
			}
		}
	}
}

// TestServerHugeReplyCommitsBeforeImplicitFlush: a single reply larger
// than the 16KB write buffer forces bufio to write through to the
// socket mid-dispatch — the implicit-flush path that must ALSO run the
// AOF commit before any reply byte escapes. With appendfsync=always,
// pipelining SETs before and after a >buffer MGET and getting every
// reply back intact proves the oversized reply neither desynchronized
// the stream nor slipped acknowledgements past the commit hook.
func TestServerHugeReplyCommitsBeforeImplicitFlush(t *testing.T) {
	dir := t.TempDir()
	_, addr := startServer(t, Config{
		Persist: PersistConfig{Dir: dir, AOF: true, Fsync: persist.SyncAlways},
	})
	c := dial(t, addr)

	// Eight 5KB values: the MGET reply (~40KB) overflows the 16KB write
	// buffer at least twice while the batch's SET records are pending.
	big := strings.Repeat("x", 5<<10)
	keys := []string{"h0", "h1", "h2", "h3", "h4", "h5", "h6", "h7"}
	for _, k := range keys {
		c.mustSimple("OK", "SET", k, big)
	}

	c.w.WriteCommandString("SET", "pre", "before-huge")
	c.w.WriteCommandString(append([]string{"MGET"}, keys...)...)
	c.w.WriteCommandString("SET", "post", "after-huge")
	c.w.WriteCommandString("GET", "post")
	if err := c.w.Flush(); err != nil {
		t.Fatal(err)
	}
	if v, err := resp.ReadReply(c.r, resp.Limits{}); err != nil || string(v.Str) != "OK" {
		t.Fatalf("pre-huge SET = %s, %v", v, err)
	}
	v, err := resp.ReadReply(c.r, resp.Limits{})
	if err != nil || v.Kind != resp.TypeArray || len(v.Array) != len(keys) {
		t.Fatalf("huge MGET = %s, %v", v, err)
	}
	for i, e := range v.Array {
		if string(e.Str) != big {
			t.Fatalf("MGET element %d corrupted (len %d)", i, len(e.Str))
		}
	}
	if v, err := resp.ReadReply(c.r, resp.Limits{}); err != nil || string(v.Str) != "OK" {
		t.Fatalf("post-huge SET = %s, %v", v, err)
	}
	if v, err := resp.ReadReply(c.r, resp.Limits{}); err != nil || string(v.Str) != "after-huge" {
		t.Fatalf("post-huge GET = %s, %v", v, err)
	}
}

// TestServerMidBurstThresholdFlush: a long pipelined burst whose
// accumulated replies pass the flush threshold must stream out in
// chunks — the client sees early replies while the server is still
// consuming the burst's tail (regression test for the unbounded
// reply-buffer growth fix).
func TestServerMidBurstThresholdFlush(t *testing.T) {
	_, addr := startServer(t, Config{})
	c := dial(t, addr)
	val := strings.Repeat("y", 1<<10)
	c.mustSimple("OK", "SET", "t", val)

	// 64 GETs of a 1KB value ≈ 64KB of replies against a 12KB threshold
	// and a 16KB buffer: replies MUST arrive without the client sending
	// anything further (no deadlock, no unbounded buffering).
	const n = 64
	for i := 0; i < n; i++ {
		c.w.WriteCommandString("GET", "t")
	}
	if err := c.w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := c.conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v, err := resp.ReadReply(c.r, resp.Limits{})
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if string(v.Str) != val {
			t.Fatalf("reply %d corrupted", i)
		}
	}
}

// TestServerSpan pins the -span plumbing: a Config.Span of 4 builds the
// k-ary sharded map, INFO reports it, and the command surface (SET/GET/
// DEL/RENAME/SCAN) is unchanged on the wider nodes. Span 0 defaults to
// 1 and out-of-range spans refuse to construct.
func TestServerSpan(t *testing.T) {
	if _, err := New(Config{Span: 7}); err == nil {
		t.Fatal("span 7 must be rejected")
	}
	s, addr := startServer(t, Config{Keyer: DecimalKeyer{KeyWidth: 16}, Shards: 8, Span: 4})
	c := dial(t, addr)

	info := c.do("INFO")
	if info.Kind != resp.TypeBulk || !strings.Contains(string(info.Str), "trie_span_bits:4") {
		t.Fatalf("INFO must report the trie span: %s", info)
	}
	c.mustSimple("OK", "SET", "100", "payload")
	c.mustBulk("payload", "GET", "100")
	c.mustSimple("OK", "RENAME", "100", "200")
	c.mustNull("GET", "100")
	c.mustBulk("payload", "GET", "200")
	c.mustInt(1, "DEL", "200")
	c.mustNull("GET", "200")

	// The default span reports as 1.
	s2, addr2 := startServer(t, Config{Keyer: DecimalKeyer{KeyWidth: 16}})
	defer s2.Close()
	c2 := dial(t, addr2)
	info2 := c2.do("INFO")
	if !strings.Contains(string(info2.Str), "trie_span_bits:1") {
		t.Fatalf("default span must report 1: %s", info2)
	}
	_ = s
}
