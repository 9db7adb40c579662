package resp

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
)

func reqReader(s string, lim Limits) *RequestReader {
	return NewRequestReader(bufio.NewReader(strings.NewReader(s)), lim)
}

func TestReadCommand(t *testing.T) {
	rr := reqReader("*3\r\n$3\r\nSET\r\n$3\r\nfoo\r\n$3\r\nbar\r\n*1\r\n$4\r\nPING\r\n", Limits{})
	args, err := rr.ReadCommandReuse()
	if err != nil {
		t.Fatal(err)
	}
	if len(args) != 3 || string(args[0]) != "SET" || string(args[1]) != "foo" || string(args[2]) != "bar" {
		t.Fatalf("args = %q", args)
	}
	args, err = rr.ReadCommandReuse()
	if err != nil || len(args) != 1 || string(args[0]) != "PING" {
		t.Fatalf("second command = %q, %v", args, err)
	}
	if _, err := rr.ReadCommandReuse(); err != io.EOF {
		t.Fatalf("at stream end: %v, want io.EOF", err)
	}
}

func TestReadCommandBinarySafe(t *testing.T) {
	// Keys and values may contain CR, LF and NUL; the length-prefixed
	// format must carry them through untouched.
	raw := "*2\r\n$3\r\nGET\r\n$5\r\na\r\n\x00b\r\n"
	args, err := reqReader(raw, Limits{}).ReadCommandReuse()
	if err != nil {
		t.Fatal(err)
	}
	if string(args[1]) != "a\r\n\x00b" {
		t.Fatalf("binary arg = %q", args[1])
	}
}

// TestReadCommandMalformed is the table the fuzz target grew from:
// every way a request can be malformed must yield a ProtocolError (or a
// truncation error), never a panic and never a bogus parse.
func TestReadCommandMalformed(t *testing.T) {
	cases := []struct {
		name  string
		in    string
		proto bool // expect a ProtocolError specifically
	}{
		{"inline command", "PING\r\n", true},
		{"inline get", "GET foo\r\n", true},
		{"empty array", "*0\r\n", true},
		{"negative array", "*-1\r\n", true},
		{"huge array", "*999999999\r\n", true},
		{"array len overflow", "*99999999999999999999\r\n", true},
		{"bad array len", "*x\r\n", true},
		{"array lf only", "*1\n$4\r\nPING\r\n", true},
		{"element not bulk", "*1\r\n+PING\r\n", true},
		{"nested array element", "*1\r\n*1\r\n$4\r\nPING\r\n", true},
		{"negative bulk", "*1\r\n$-1\r\n", true},
		{"bad bulk len", "*1\r\n$abc\r\n", true},
		{"plus-signed array len", "*+1\r\n$4\r\nPING\r\n", true},
		{"leading-zero array len", "*01\r\n$4\r\nPING\r\n", true},
		{"leading-zero bulk len", "*1\r\n$04\r\nPING\r\n", true},
		{"minus-zero bulk len", "*1\r\n$-0\r\n", true},
		{"huge bulk", "*1\r\n$999999999\r\n", true},
		{"bulk not crlf terminated", "*1\r\n$4\r\nPINGxx", true},
		{"bulk short payload", "*1\r\n$10\r\nPING\r\n", false},
		{"truncated header", "*", false},
		{"truncated after header", "*2\r\n$4\r\nPING\r\n", false},
		{"truncated bulk header", "*1\r\n$4", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := reqReader(tc.in, Limits{}).ReadCommandReuse()
			if err == nil {
				t.Fatal("malformed input parsed without error")
			}
			if err == io.EOF {
				t.Fatal("mid-command truncation must not read as a clean EOF")
			}
			if tc.proto && !IsProtocolError(err) {
				t.Fatalf("err = %v, want ProtocolError", err)
			}
		})
	}
}

func TestLimits(t *testing.T) {
	lim := Limits{MaxArrayLen: 3, MaxBulkLen: 5}
	if _, err := reqReader("*4\r\n$1\r\na\r\n$1\r\nb\r\n$1\r\nc\r\n$1\r\nd\r\n", lim).ReadCommandReuse(); !IsProtocolError(err) {
		t.Fatalf("oversized array: %v", err)
	}
	if _, err := reqReader("*1\r\n$6\r\nabcdef\r\n", lim).ReadCommandReuse(); !IsProtocolError(err) {
		t.Fatalf("oversized bulk: %v", err)
	}
	// At the limits, both pass.
	if _, err := reqReader("*3\r\n$5\r\nabcde\r\n$1\r\nb\r\n$1\r\nc\r\n", lim).ReadCommandReuse(); err != nil {
		t.Fatalf("at-limit request rejected: %v", err)
	}
}

func TestWriterReplies(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	w := NewWriter(bw)
	w.WriteSimple("OK")
	w.WriteError("ERR boom")
	w.WriteInt(-42)
	w.WriteBulk([]byte("hi"))
	w.WriteBulk([]byte{})
	w.WriteNull()
	w.WriteArrayHeader(2)
	w.WriteBulkString("cursor")
	w.WriteArrayHeader(0)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	want := "+OK\r\n-ERR boom\r\n:-42\r\n$2\r\nhi\r\n$0\r\n\r\n$-1\r\n*2\r\n$6\r\ncursor\r\n*0\r\n"
	if buf.String() != want {
		t.Fatalf("wire = %q, want %q", buf.String(), want)
	}
}

func TestReadReplyAllTypes(t *testing.T) {
	wire := "+OK\r\n-ERR nope\r\n:7\r\n$3\r\nabc\r\n$-1\r\n*2\r\n$1\r\nx\r\n:1\r\n*-1\r\n*0\r\n"
	r := bufio.NewReader(strings.NewReader(wire))
	read := func() Value {
		t.Helper()
		v, err := ReadReply(r, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if v := read(); v.Kind != TypeSimple || string(v.Str) != "OK" {
		t.Fatalf("simple = %+v", v)
	}
	if v := read(); v.Err() == nil || v.Err().Error() != "ERR nope" {
		t.Fatalf("error = %+v", v)
	}
	if v := read(); v.Kind != TypeInt || v.Int != 7 {
		t.Fatalf("int = %+v", v)
	}
	if v := read(); v.Kind != TypeBulk || string(v.Str) != "abc" {
		t.Fatalf("bulk = %+v", v)
	}
	if v := read(); !v.IsNull() {
		t.Fatalf("null bulk = %+v", v)
	}
	v := read()
	if v.Kind != TypeArray || len(v.Array) != 2 ||
		string(v.Array[0].Str) != "x" || v.Array[1].Int != 1 {
		t.Fatalf("array = %+v", v)
	}
	if v := read(); !v.IsNull() {
		t.Fatalf("null array = %+v", v)
	}
	if v := read(); v.Kind != TypeArray || len(v.Array) != 0 {
		t.Fatalf("empty array = %+v", v)
	}
}

func TestReadReplyMalformed(t *testing.T) {
	for _, in := range []string{
		"?\r\n",
		":notanint\r\n",
		"$5\r\nab\r\n",
		"$2\r\nabcd\r\n",
		"*2\r\n:1\r\n",
		strings.Repeat("*1\r\n", maxReplyDepth+2) + ":1\r\n",
	} {
		if _, err := ReadReply(bufio.NewReader(strings.NewReader(in)), Limits{}); err == nil {
			t.Errorf("ReadReply(%q) parsed without error", in)
		}
	}
}

// TestCommandRoundTrip: anything WriteCommand emits, ReadCommandReuse parses
// back verbatim — the property the fuzz target generalizes.
func TestCommandRoundTrip(t *testing.T) {
	cmds := [][][]byte{
		{[]byte("PING")},
		{[]byte("SET"), []byte("k"), []byte("")},
		{[]byte("MSET"), []byte("a"), {0, 1, 2, '\r', '\n'}, []byte("b"), []byte("v")},
	}
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	w := NewWriter(bw)
	for _, c := range cmds {
		w.WriteCommand(c...)
	}
	w.Flush()
	rr := NewRequestReader(bufio.NewReader(&buf), Limits{})
	for _, c := range cmds {
		got, err := rr.ReadCommandReuse()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(c) {
			t.Fatalf("arg count %d, want %d", len(got), len(c))
		}
		for i := range c {
			if !bytes.Equal(got[i], c[i]) {
				t.Fatalf("arg %d = %q, want %q", i, got[i], c[i])
			}
		}
	}
}

func TestValueString(t *testing.T) {
	for _, tc := range []struct {
		v    Value
		want string
	}{
		{Value{Kind: TypeSimple, Str: []byte("OK")}, "OK"},
		{Value{Kind: TypeNull}, "(nil)"},
		{Value{Kind: TypeInt, Int: 3}, "(integer) 3"},
		{Value{Kind: TypeBulk, Str: []byte("v")}, `"v"`},
		{Value{Kind: TypeArray}, "(empty array)"},
	} {
		if got := tc.v.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

// TestReadCommandReuseArenaSemantics: arguments from ReadCommandReuse
// are overwritten by the next command (that is the contract), a copy
// survives it, and a huge command does not pin its arena to the reader
// forever.
func TestReadCommandReuseArenaSemantics(t *testing.T) {
	stream := bytes.NewBufferString(
		"*3\r\n$3\r\nSET\r\n$2\r\naa\r\n$5\r\nfirst\r\n" +
			"*3\r\n$3\r\nSET\r\n$2\r\nbb\r\n$5\r\nother\r\n")
	rr := NewRequestReader(bufio.NewReader(stream), Limits{})

	args, err := rr.ReadCommandReuse()
	if err != nil {
		t.Fatal(err)
	}
	aliased := args[2]           // points into the arena
	kept := bytes.Clone(args[2]) // survives the next command

	args2, err := rr.ReadCommandReuse()
	if err != nil {
		t.Fatal(err)
	}
	if string(args2[1]) != "bb" || string(args2[2]) != "other" {
		t.Fatalf("second command parsed as %q", args2)
	}
	if string(kept) != "first" {
		t.Fatalf("copy corrupted by arena reuse: %q", kept)
	}
	// The aliased slice now reads the second command's bytes, laid over
	// the first's at the same offset (the command is no longer, so the
	// arena was not regrown): the hazard a stored value's copy exists for.
	if string(aliased) != "other" {
		t.Fatalf("aliased argument reads %q after the next command, want %q", aliased, "other")
	}

	// Retention cap: a command past arenaRetainMax is parsed fine, and
	// the arena is dropped afterward instead of pinning megabytes.
	big := bytes.Repeat([]byte{'z'}, arenaRetainMax+1)
	var bigCmd bytes.Buffer
	fmt.Fprintf(&bigCmd, "*3\r\n$3\r\nSET\r\n$2\r\ncc\r\n$%d\r\n%s\r\n", len(big), big)
	bigCmd.WriteString("*1\r\n$4\r\nPING\r\n")
	rr2 := NewRequestReader(bufio.NewReader(&bigCmd), Limits{MaxBulkLen: arenaRetainMax + 2})
	got, err := rr2.ReadCommandReuse()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[2], big) {
		t.Fatal("big bulk corrupted through the arena")
	}
	if _, err := rr2.ReadCommandReuse(); err != nil {
		t.Fatal(err)
	}
	if cap(rr2.arena) > arenaRetainMax {
		t.Fatalf("arena cap %d retained past arenaRetainMax %d", cap(rr2.arena), arenaRetainMax)
	}
}
