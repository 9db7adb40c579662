package resp

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"testing"
)

// Steady-state allocation pins for the server-side codec: after the
// arena has grown to the workload's shape, parsing a command with
// ReadCommandReuse and writing its reply must not allocate at all.
// These are the wire-layer half of the server-path pins in
// internal/server/alloc_test.go.

// repeatingReader replays the same request bytes forever, so the
// AllocsPerRun loop never sees EOF or a growing input.
type repeatingReader struct {
	data []byte
	off  int
}

func (r *repeatingReader) Read(p []byte) (int, error) {
	if r.off == len(r.data) {
		r.off = 0
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

func pinParse(t *testing.T, name string, cmd []byte, want float64) {
	t.Helper()
	rr := NewRequestReader(bufio.NewReaderSize(&repeatingReader{data: cmd}, 16<<10), Limits{})
	// Warm the arena, span table and args header to steady state.
	for i := 0; i < 3; i++ {
		if _, err := rr.ReadCommandReuse(); err != nil {
			t.Fatal(err)
		}
	}
	got := testing.AllocsPerRun(100, func() {
		if _, err := rr.ReadCommandReuse(); err != nil {
			panic(err)
		}
	})
	if got > want {
		t.Errorf("%s: ReadCommandReuse allocates %.1f/op, pinned at %.0f", name, got, want)
	}
}

func TestArenaParseDoesNotAllocate(t *testing.T) {
	pinParse(t, "GET", []byte("*2\r\n$3\r\nGET\r\n$7\r\nkey:123\r\n"), 0)
	pinParse(t, "EXISTS", []byte("*2\r\n$6\r\nEXISTS\r\n$7\r\nkey:123\r\n"), 0)
	pinParse(t, "DEL", []byte("*2\r\n$3\r\nDEL\r\n$7\r\nkey:123\r\n"), 0)
	pinParse(t, "MGET", []byte("*4\r\n$4\r\nMGET\r\n$2\r\naa\r\n$2\r\nab\r\n$2\r\nac\r\n"), 0)
	val := bytes.Repeat([]byte{'x'}, 64)
	set := []byte("*3\r\n$3\r\nSET\r\n$7\r\nkey:123\r\n$64\r\n" + string(val) + "\r\n")
	pinParse(t, "SET", set, 0)
}

// TestClientCodecAllocs pins the client side of one command round trip —
// encode the request with WriteCommandString, parse a canned reply with
// ReadReply — with no network involved, so the counts are exact: a bulk
// or simple-string reply carries a payload the parser copies out (one
// allocation), and an integer reply parses into the stack Value (none).
func TestClientCodecAllocs(t *testing.T) {
	w := NewWriter(bufio.NewWriterSize(io.Discard, 64<<10))
	val := string(bytes.Repeat([]byte{'x'}, 64))
	var rd bytes.Reader
	br := bufio.NewReaderSize(nil, 4<<10)
	for _, tc := range []struct {
		name  string
		cmd   func()
		reply string
		want  float64
	}{
		{"GET", func() { w.WriteCommandString("GET", "key:123456") }, "$5\r\nhello\r\n", 1},
		{"SET", func() { w.WriteCommandString("SET", "key:123456", val) }, "+OK\r\n", 1},
		{"DEL", func() { w.WriteCommandString("DEL", "key:123456") }, ":1\r\n", 0},
	} {
		reply := []byte(tc.reply)
		got := testing.AllocsPerRun(200, func() {
			tc.cmd()
			if err := w.Flush(); err != nil {
				panic(err)
			}
			rd.Reset(reply)
			br.Reset(&rd)
			if v, err := ReadReply(br, Limits{}); err != nil || v.Kind == TypeError {
				panic(fmt.Sprintf("codec round trip broke: %v %v", v, err))
			}
		})
		if got != tc.want {
			t.Errorf("%s round trip allocates %.1f/op, pinned at exactly %.0f", tc.name, got, tc.want)
		}
	}
}

func TestReplyWritingDoesNotAllocate(t *testing.T) {
	w := NewWriter(bufio.NewWriterSize(io.Discard, 16<<10))
	val := bytes.Repeat([]byte{'x'}, 64)
	got := testing.AllocsPerRun(100, func() {
		w.WriteSimple("OK")
		w.WriteBulk(val)
		w.WriteNull()
		w.WriteInt(42)
		w.WriteArrayHeader(3)
		if err := w.Flush(); err != nil {
			panic(err)
		}
	})
	if got != 0 {
		t.Errorf("reply writing allocates %.1f/op, pinned at 0", got)
	}
}
