package server

import (
	"bufio"
	"bytes"
	"cmp"
	"fmt"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"nbtrie/internal/persist"
	"nbtrie/internal/resp"
)

// startServer spins a server on a random loopback port and returns a
// dialer; everything is torn down with the test. Each setup runs on the
// server before it serves, which is where tests set its hooks.
func startServer(t *testing.T, cfg Config, setup ...func(*Server)) (*Server, string) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range setup {
		f(s)
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
	v, err := c.try(args...)
	if err != nil {
		c.t.Fatalf("%v: %v", args, err)
	}
	return v
}

// try sends one command and reads one reply, returning an I/O error
// instead of failing the test: goroutines other than the test's use it.
func (c *testClient) try(args ...string) (resp.Value, error) {
	c.w.WriteCommandString(args...)
	if err := c.w.Flush(); err != nil {
		return resp.Value{}, err
	}
	return resp.ReadReply(c.r, resp.Limits{})
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
	if info.Kind != resp.TypeBulk || !strings.Contains(string(info.Str), "engine:nbtrie-patricia") {
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

// keyBits returns the top n of the width bits of wire key a's trie key
// as the trie stores it: k+1 in width+1 bits, whose first bit is the
// root's own and is set only for the largest key.
func keyBits(t *testing.T, a string, n uint32) uint64 {
	t.Helper()
	return (mustEncode(t, a) + 1) >> (BytesKeyer{}.Width() - n)
}

// apart reports whether the wire keys a and b, encoded, lie in different
// halves of the keyspace. The binary root's own bit is set only for the
// largest key, so every other key hangs under the root's first child,
// which splits on the next bit, the top bit of k+1's width bits. A
// Replace between keys that differ there has its two parents under
// different children of that node, and neither parent is the other's
// ancestor below it.
func apart(t *testing.T, a, b string) bool {
	t.Helper()
	return keyBits(t, a, 1) != keyBits(t, b, 1)
}

// findKey returns the first of the wire keys stem+"0", stem+"1", ...
// that ok accepts. The keyer mixes the bits of a key, so a pair with a
// given relation in the trie is found by searching its encodings, not
// read off the spelling.
func findKey(t *testing.T, stem string, ok func(string) bool) string {
	t.Helper()
	for i := 0; len(stem)+len(strconv.Itoa(i)) <= BytesKeyerMaxLen; i++ {
		if k := stem + strconv.Itoa(i); ok(k) {
			return k
		}
	}
	t.Fatalf("no wire key %q... has the relation the test needs", stem)
	return ""
}

// nearKey returns a wire key with the stem "n" whose trie key shares
// its top 16 bits with a's. In a keyspace of a few keys no third key
// shares them, so the two leaves hang under one parent: the Replace
// cases in which the delete and the insert meet at one node.
func nearKey(t *testing.T, a string) string {
	t.Helper()
	top := keyBits(t, a, 16)
	return findKey(t, "n", func(k string) bool { return k != a && keyBits(t, k, 16) == top })
}

// farKey returns a wire key, starting with the non-ASCII byte 0xe1,
// in the other half of the keyspace from a and not in skip.
func farKey(t *testing.T, a string, skip ...string) string {
	t.Helper()
	return findKey(t, "\xe1", func(k string) bool { return apart(t, a, k) && !slices.Contains(skip, k) })
}

// sortByEncode sorts wire keys into the order SCAN returns them:
// ascending trie key.
func sortByEncode(t *testing.T, keys []string) {
	t.Helper()
	slices.SortFunc(keys, func(a, b string) int { return cmp.Compare(mustEncode(t, a), mustEncode(t, b)) })
}

// TestServerRename covers the outcomes: atomic rename between near keys
// and between the two halves of the keyspace, missing source, existing
// destination, and the retired RENAMESTRICT.
func TestServerRename(t *testing.T) {
	_, addr := startServer(t, Config{})
	c := dial(t, addr)

	// dst is near k100: their leaves share a parent (nearKey).
	dst := nearKey(t, "k100")
	c.mustSimple("OK", "SET", "k100", "payload")
	c.mustSimple("OK", "RENAME", "k100", dst) // atomic Replace
	c.mustNull("GET", "k100")
	c.mustBulk("payload", "GET", dst)

	c.mustErrContain("no such key", "RENAME", "k100", "k300")

	c.mustSimple("OK", "SET", "k300", "other")
	c.mustErrContain("destination key exists", "RENAME", dst, "k300")
	c.mustBulk("payload", "GET", dst) // refused rename changed nothing
	c.mustBulk("other", "GET", "k300")

	// Rename to self: Redis semantics, no Replace involved.
	c.mustSimple("OK", "RENAME", dst, dst)
	c.mustErrContain("no such key", "RENAME", "k5555", "k5555")

	// A key the keyer cannot represent fails before the handler runs, as
	// source or destination, and moves nothing.
	c.mustErrContain("8 bytes exceeds", "RENAME", "ghostkey", "ghostkey")
	c.mustErrContain("8 bytes exceeds", "RENAME", dst, "ghostkey")
	c.mustBulk("payload", "GET", dst)
	c.mustInt(2, "DBSIZE")

	// dst and far lie in different halves of the keyspace. RENAME is the
	// same atomic Replace there; RENAMESTRICT, which used to refuse such
	// a pair, is gone.
	far := farKey(t, dst)
	c.mustErrContain("unknown command", "RENAMESTRICT", dst, far)
	c.mustSimple("OK", "RENAME", dst, far)
	c.mustNull("GET", dst)
	c.mustBulk("payload", "GET", far)

	// Destination-exists across the halves: refused, nothing moved.
	c.mustErrContain("destination key exists", "RENAME", "k300", far)
	c.mustBulk("other", "GET", "k300")
	c.mustBulk("payload", "GET", far)
}

// TestScanDefaultPage: a bare SCAN pages by Redis's fixed 10, clamped
// to the array limit, since a longer page would be refused by every
// reader of the shared codec.
func TestScanDefaultPage(t *testing.T) {
	for _, c := range []struct{ maxArray, want int }{{0, 10}, {4, 4}} {
		_, addr := startServer(t, Config{Limits: resp.Limits{MaxArrayLen: c.maxArray}})
		cl := dial(t, addr)
		for i := range 20 {
			cl.mustSimple("OK", "SET", fmt.Sprintf("k%02d", i), "v")
		}
		v := cl.do("SCAN", "0")
		if len(v.Array) != 2 || len(v.Array[1].Array) != c.want || string(v.Array[0].Str) == "0" {
			t.Errorf("MaxArrayLen %d: bare SCAN 0 over 20 keys = %s, want %d keys and a non-zero cursor", c.maxArray, v, c.want)
		}
	}
}

// TestServerScan walks a known key set page by page and requires every
// key exactly once, in ascending trie-key (Encode) order, with a
// terminating cursor. The decimal spellings of different lengths ("13",
// "130") exercise the keyer's length tag.
func TestServerScan(t *testing.T) {
	_, addr := startServer(t, Config{})
	c := dial(t, addr)

	const n = 137
	want := make([]string, 0, n)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("%d", i*13)
		want = append(want, key)
		c.mustSimple("OK", "SET", key, "x")
	}
	sortByEncode(t, want)
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
			t.Fatalf("SCAN key %d = %q, want %q (ascending Encode order)", i, k, want[i])
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
	if v, ok := s.DB().Load(mustEncode(t, "k")); !ok || !bytes.Equal(v, []byte("v")) {
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

func mustEncode(t *testing.T, key string) uint64 {
	t.Helper()
	v, err := BytesKeyer{}.Encode([]byte(key))
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
	_, addr := startServer(t, Config{})
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
	_, addr := startServer(t, Config{})
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

// TestServerArenaAliasing: dispatch hands a stored value to the keyspace
// as a view into the connection's read arena, which the next command
// overwrites, so the leaf must keep a copy of its own. One pipelined
// burst of SET, MSET (three pairs) and SETEX stores 250 distinct binary
// values whose lengths repeat, so each later command lays its value over
// the arena bytes of an earlier one: an empty value, tail-sized ones up
// to 449 B, and 4096 B (copied separately); TestPersistTailEdgesRoundTrip
// has every tail edge.
// A GET of every key must then read back exactly the bytes stored, and
// the empty value as an empty bulk, not nil.
func TestServerArenaAliasing(t *testing.T) {
	_, addr := startServer(t, Config{})
	c := dial(t, addr)
	sizes := []int{64, 0, 64, 448, 1, 449, 64, 4096, 17, 200}
	val := func(i, n int) string {
		b := make([]byte, n)
		for j := range b {
			b[j] = byte((i*131 + j*17) % 251)
		}
		return string(b)
	}
	want := make(map[string]string)
	var keys []string
	replies := 0
	for i := 0; len(keys) < 250; i++ {
		switch i % 3 {
		case 0, 2:
			k := fmt.Sprintf("a%d", len(keys))
			want[k] = val(len(keys), sizes[len(keys)%len(sizes)])
			if i%3 == 0 {
				c.w.WriteCommandString("SET", k, want[k])
			} else {
				c.w.WriteCommandString("SETEX", k, "3600", want[k])
			}
			keys = append(keys, k)
		case 1:
			args := []string{"MSET"}
			for p := 0; p < 3; p++ {
				k := fmt.Sprintf("a%d", len(keys))
				want[k] = val(len(keys), sizes[len(keys)%len(sizes)])
				args = append(args, k, want[k])
				keys = append(keys, k)
			}
			c.w.WriteCommandString(args...)
		}
		replies++
	}
	if err := c.w.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < replies; i++ {
		if v, err := resp.ReadReply(c.r, resp.Limits{}); err != nil || v.Kind != resp.TypeSimple || string(v.Str) != "OK" {
			t.Fatalf("write %d = %s, %v; want +OK", i, v, err)
		}
	}
	for _, k := range keys {
		c.w.WriteCommandString("GET", k)
	}
	if err := c.w.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		v, err := resp.ReadReply(c.r, resp.Limits{})
		if err != nil {
			t.Fatalf("GET %s: %v", k, err)
		}
		if v.Kind != resp.TypeBulk || string(v.Str) != want[k] {
			t.Errorf("GET %s = kind %q, %d B; want a %d B bulk, byte for byte as stored", k, v.Kind, len(v.Str), len(want[k]))
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

// TestServerSmokeBattery is the end-to-end command battery on a fresh
// server with the default bytes keyer. The keyspace is
// always a binary (span 1) trie, which names the one subtest. The
// assertions are exact, so it starts from an empty keyspace.
func TestServerSmokeBattery(t *testing.T) {
	t.Run("span1", smokeBattery)
}

func smokeBattery(t *testing.T) {
	_, addr := startServer(t, Config{})
	c := dial(t, addr)
	mustIntIn := func(lo, hi int64, args ...string) {
		t.Helper()
		// TTL on a freshly armed key is its round-up remainder,
		// which any pause between commands can shave.
		if v := c.do(args...); v.Kind != resp.TypeInt || v.Int < lo || v.Int > hi {
			t.Fatalf("%v = %s, want integer in [%d, %d]", args, v, lo, hi)
		}
	}

	c.mustSimple("PONG", "PING")
	c.mustSimple("OK", "SET", "aa", "v1")
	c.mustBulk("v1", "GET", "aa")
	c.mustInt(1, "EXISTS", "aa")
	c.mustNull("GET", "zz")
	c.mustSimple("OK", "MSET", "ab", "v2", "ac", "v3")
	c.mustInt(3, "DBSIZE")

	// Atomic rename between near keys (nearKey).
	nr := nearKey(t, "aa")
	c.mustSimple("OK", "RENAME", "aa", nr)
	c.mustNull("GET", "aa")
	c.mustBulk("v1", "GET", nr)
	c.mustErrContain("no such key", "RENAME", "aa", "ae")
	c.mustErrContain("destination key exists", "RENAME", "ab", "ac")

	// nr and far lie in different halves of the keyspace. RENAME is the
	// same atomic Replace there.
	far := farKey(t, nr)
	c.mustSimple("OK", "RENAME", nr, far)
	c.mustNull("GET", nr)
	c.mustBulk("v1", "GET", far)
	c.mustErrContain("destination key exists", "RENAME", "ab", far)
	c.mustErrContain("exceeds the 7-byte maximum", "SET", "12345678", "v")
	c.mustInt(1, "DEL", far, "nope")
	c.mustInt(2, "DBSIZE")

	// TTL battery: arm, observe, disarm, and expire.
	c.mustInt(-1, "TTL", "ab")
	c.mustInt(-2, "TTL", "nope")
	c.mustInt(0, "EXPIRE", "nope", "100")
	c.mustInt(1, "EXPIRE", "ab", "100")
	mustIntIn(1, 100, "TTL", "ab")
	mustIntIn(1, 100_000, "PTTL", "ab")
	c.mustInt(1, "PERSIST", "ab")
	c.mustInt(-1, "TTL", "ab")
	c.mustSimple("OK", "SETEX", "tt", "100", "vt")
	mustIntIn(1, 100, "TTL", "tt")
	c.mustBulk("vt", "GETEX", "tt", "PERSIST")
	c.mustInt(-1, "TTL", "tt")
	// A deadline in the past deletes at once (Redis replies :1).
	c.mustInt(1, "PEXPIREAT", "tt", "1")
	c.mustNull("GET", "tt")
	c.mustInt(-2, "TTL", "tt")
	c.mustInt(2, "DBSIZE")

	// SCAN returns every live key exactly once.
	seen := map[string]int{}
	cursor := "0"
	for pages := 0; ; pages++ {
		if pages > 100 {
			t.Fatal("SCAN did not terminate")
		}
		v := c.do("SCAN", cursor, "COUNT", "1")
		if v.Kind != resp.TypeArray || len(v.Array) != 2 {
			t.Fatalf("SCAN reply shape: %s", v)
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
		t.Fatalf("SCAN keys = %v, want ab and ac exactly once", seen)
	}

	// Pipelining: a burst of writes answered in order.
	const burst = 50
	for i := 0; i < burst; i++ {
		c.w.WriteCommandString("SET", "p", strconv.Itoa(i))
		c.w.WriteCommandString("GET", "p")
	}
	if err := c.w.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < burst; i++ {
		set, err := resp.ReadReply(c.r, resp.Limits{})
		if err != nil || set.Kind != resp.TypeSimple {
			t.Fatalf("pipelined SET %d = %s, %v", i, set, err)
		}
		get, err := resp.ReadReply(c.r, resp.Limits{})
		if want := strconv.Itoa(i); err != nil || string(get.Str) != want {
			t.Fatalf("pipelined GET %d = %s, %v, want %q: replies out of order", i, get, err, want)
		}
	}
}
