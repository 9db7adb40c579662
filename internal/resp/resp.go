// Package resp implements the subset of the RESP2 wire protocol
// (REdis Serialization Protocol, version 2) that the nbtried server
// speaks, exactly once, for its three consumers: the server's request
// reader and reply writer (internal/server), the benchmark's load
// generator (benchmark/) and triecli's -connect mode.
//
// The subset, and the deliberate restrictions:
//
//   - Client requests are RESP arrays of bulk strings only
//     ("*N\r\n$len\r\n...\r\n..."), the format every real Redis client
//     library emits. The legacy inline-command form (a bare text line)
//     is rejected outright: inline parsing is a historical telnet
//     convenience with its own quoting grammar, and accepting it would
//     double the parser attack surface for zero client benefit.
//   - Replies use the five RESP2 types: simple strings (+), errors (-),
//     integers (:), bulk strings ($, with $-1 as the null bulk) and
//     arrays (*, possibly nested).
//   - Hard limits bound every allocation the parser makes before it
//     trusts the input: a request array may hold at most
//     Limits.MaxArrayLen elements and a bulk string at most
//     Limits.MaxBulkLen bytes. Violations are ProtocolErrors, which the
//     server treats as fatal to the connection (matching Redis, which
//     closes on protocol errors rather than trying to resynchronize a
//     corrupted stream).
package resp

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
)

// Wire type markers.
const (
	TypeSimple  = '+'
	TypeError   = '-'
	TypeInt     = ':'
	TypeBulk    = '$'
	TypeArray   = '*'
	TypeNull    = 'N' // synthetic: a $-1 null bulk parsed client-side
	crlf        = "\r\n"
	maxLineDecl = 20 // digits in a length line: enough for any int64
)

// Limits bounds parser allocations. The zero value means "use the
// defaults" wherever a Limits is accepted.
type Limits struct {
	// MaxArrayLen caps the element count of a request or reply array.
	MaxArrayLen int
	// MaxBulkLen caps the byte length of one bulk string.
	MaxBulkLen int
}

// DefaultLimits are generous for a key-value workload (Redis itself
// caps a bulk at 512MB; values that large do not belong in a trie
// serving millions of users) while keeping a hostile length prefix from
// allocating unbounded memory.
var DefaultLimits = Limits{MaxArrayLen: 1024, MaxBulkLen: 8 << 20}

// WithDefaults returns l with zero fields filled from DefaultLimits —
// the resolved limits a parser built from l will actually enforce.
// Servers use it to align reply sizing (e.g. SCAN's page cap) with the
// request-side limits.
func (l Limits) WithDefaults() Limits { return l.orDefaults() }

// orDefaults fills zero fields from DefaultLimits.
func (l Limits) orDefaults() Limits {
	if l.MaxArrayLen <= 0 {
		l.MaxArrayLen = DefaultLimits.MaxArrayLen
	}
	if l.MaxBulkLen <= 0 {
		l.MaxBulkLen = DefaultLimits.MaxBulkLen
	}
	return l
}

// ProtocolError is a violation of the wire format (bad type marker,
// malformed length, missing CRLF, limit exceeded). After one of these
// the stream position is untrustworthy, so connections must be closed;
// errors.As distinguishes it from plain I/O errors.
type ProtocolError struct{ msg string }

func (e *ProtocolError) Error() string { return "resp: " + e.msg }

func protoErrf(format string, args ...any) error {
	return &ProtocolError{msg: fmt.Sprintf(format, args...)}
}

// IsProtocolError reports whether err is (or wraps) a ProtocolError.
func IsProtocolError(err error) bool {
	var pe *ProtocolError
	return errors.As(err, &pe)
}

// readLine reads one CRLF-terminated line (without the terminator),
// rejecting bare CR or LF inside and unreasonably long lines. It is
// used only for type-marker lines, whose payload is a length or a short
// string; bulk payloads are read by exact byte count instead.
func readLine(r *bufio.Reader, maxLen int) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if err != nil {
		if err == bufio.ErrBufferFull {
			return nil, protoErrf("line exceeds %d bytes", maxLen)
		}
		return nil, err
	}
	if len(line) > maxLen+2 {
		return nil, protoErrf("line exceeds %d bytes", maxLen)
	}
	if len(line) < 2 || line[len(line)-2] != '\r' {
		return nil, protoErrf("line not terminated by CRLF")
	}
	return line[:len(line)-2], nil
}

// parseLen parses the decimal length payload of a *, $ or : line.
// Only canonical forms are accepted — bare digits with no sign and no
// leading zeros, exactly like Redis; strconv alone would also take
// "+2" and "007". -1 is allowed only where the caller says so (null
// bulk / null array), and only spelled exactly "-1". Parsed by hand:
// this runs once per request element, and a string(b) conversion for
// strconv would put an allocation on the hot path.
func parseLen(b []byte, allowNeg bool) (int64, error) {
	if allowNeg && len(b) == 2 && b[0] == '-' && b[1] == '1' {
		return -1, nil
	}
	if len(b) == 0 || (len(b) > 1 && b[0] == '0') {
		return 0, protoErrf("bad length %q", b)
	}
	var n int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, protoErrf("bad length %q", b)
		}
		if n > (math.MaxInt64-9)/10 {
			return 0, protoErrf("bad length %q", b)
		}
		n = n*10 + int64(c-'0')
	}
	return n, nil
}

// RequestReader parses client requests from a connection. It is the
// server half of the codec: every request is an array of bulk strings
// or the connection is toast.
//
// It has one parser, ReadCommandReuse, which parses into a per-reader
// arena that the next call overwrites, so a long-lived connection
// parses commands with zero steady-state allocations; values that must
// outlive the command (a SET payload headed into the map) are copied
// out explicitly with Detach. ReadCommand is the same parse followed by
// a copy of every argument — the right call for clients, tools and
// replay code that keep arguments around.
type RequestReader struct {
	r   *bufio.Reader
	lim Limits

	// Arena state for ReadCommandReuse: one grown-on-demand scratch
	// buffer holding every bulk payload of the current command, a span
	// table into it, and the reusable [][]byte handed to the caller.
	// All three retain their capacity across commands.
	arena []byte
	spans []bulkSpan
	args  [][]byte
}

// bulkSpan locates one argument inside the arena. Offsets, not
// subslices, are recorded during the parse: the arena may be
// reallocated while later bulks of the same command grow it, and
// offsets survive that move where pointers would dangle.
type bulkSpan struct{ off, n int }

// arenaRetainMax caps the arena capacity kept across commands. One
// pathological multi-megabyte command should not pin that much memory
// to an idle connection forever; past the cap the arena is dropped and
// the next command re-grows from scratch.
const arenaRetainMax = 1 << 20

// NewRequestReader wraps r. Zero fields of lim take DefaultLimits.
func NewRequestReader(r *bufio.Reader, lim Limits) *RequestReader {
	return &RequestReader{r: r, lim: lim.orDefaults()}
}

// Buffered reports how many request bytes are already in memory. The
// server uses it to decide when a pipelined batch is exhausted and the
// reply buffer should be flushed before blocking in the next read.
func (rr *RequestReader) Buffered() int { return rr.r.Buffered() }

// ReadCommand reads one complete command: a RESP array of bulk strings.
// The returned slices are freshly allocated and remain valid after the
// next call. io.EOF before the first byte of a command is a clean
// disconnect; any malformed input is a ProtocolError. Empty arrays
// ("*0") are rejected — a command needs at least a name.
func (rr *RequestReader) ReadCommand() ([][]byte, error) {
	args, err := rr.ReadCommandReuse()
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(args))
	for i, a := range args {
		out[i] = Detach(a)
	}
	return out, nil
}

// ReadCommandReuse reads one complete command like ReadCommand, but
// the returned slice and every argument in it are only valid until the
// next ReadCommand/ReadCommandReuse call: arguments point into a
// per-reader arena the next command overwrites, and the [][]byte
// header is reused too. After the arena and span tables have grown to
// a workload's steady state, parsing allocates nothing at all. Callers
// that need an argument to survive the command copy it out with
// Detach; everything handed onward synchronously (map lookups, reply
// writes, AOF appends that buffer immediately) can use the arguments
// in place.
func (rr *RequestReader) ReadCommandReuse() ([][]byte, error) {
	first, err := rr.r.ReadByte()
	if err != nil {
		return nil, err // io.EOF here = clean disconnect between commands
	}
	if first != TypeArray {
		// The one place inline commands would be accepted; refuse them
		// loudly enough that a human typing into a raw socket learns
		// what to use instead.
		return nil, protoErrf("expected '*' (multibulk request), got %q; inline commands are not supported", first)
	}
	header, err := readLine(rr.r, maxLineDecl)
	if err != nil {
		return nil, eofToUnexpected(err)
	}
	n, err := parseLen(header, false)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, protoErrf("empty command array")
	}
	if n > int64(rr.lim.MaxArrayLen) {
		return nil, protoErrf("request of %d elements exceeds limit %d", n, rr.lim.MaxArrayLen)
	}
	if cap(rr.arena) > arenaRetainMax {
		rr.arena = nil
	}
	rr.arena = rr.arena[:0]
	rr.spans = rr.spans[:0]
	for i := int64(0); i < n; i++ {
		if err := rr.readBulkArena(); err != nil {
			return nil, err
		}
	}
	// Materialize the argument slices only now, from the arena's final
	// backing array: a mid-command grow can no longer move anything.
	rr.args = rr.args[:0]
	for _, sp := range rr.spans {
		rr.args = append(rr.args, rr.arena[sp.off:sp.off+sp.n:sp.off+sp.n])
	}
	return rr.args, nil
}

// readBulkArena reads one $-prefixed bulk string of a request into the
// arena, recording its span.
func (rr *RequestReader) readBulkArena() error {
	marker, err := rr.r.ReadByte()
	if err != nil {
		return eofToUnexpected(err)
	}
	if marker != TypeBulk {
		return protoErrf("expected '$' (bulk string) in request, got %q", marker)
	}
	header, err := readLine(rr.r, maxLineDecl)
	if err != nil {
		return eofToUnexpected(err)
	}
	ln, err := parseLen(header, false)
	if err != nil {
		return err
	}
	if ln > int64(rr.lim.MaxBulkLen) {
		return protoErrf("bulk of %d bytes exceeds limit %d", ln, rr.lim.MaxBulkLen)
	}
	off := len(rr.arena)
	need := off + int(ln) + 2 // payload + trailing CRLF
	rr.arena = slices.Grow(rr.arena, int(ln)+2)[:need]
	if _, err := io.ReadFull(rr.r, rr.arena[off:need]); err != nil {
		return eofToUnexpected(err)
	}
	if rr.arena[need-2] != '\r' || rr.arena[need-1] != '\n' {
		return protoErrf("bulk payload not terminated by CRLF")
	}
	rr.spans = append(rr.spans, bulkSpan{off: off, n: int(ln)})
	return nil
}

// Detach copies an argument returned by ReadCommandReuse out of the
// arena so it survives the next command — the one allocation a stored
// SET value costs. It is a bytes.Clone with a name that marks arena
// escapes at the call site.
func Detach(b []byte) []byte { return bytes.Clone(b) }

// eofToUnexpected turns a mid-command EOF into io.ErrUnexpectedEOF so
// only a clean between-commands disconnect reads as io.EOF.
func eofToUnexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Writer emits RESP replies (server side) and commands (client side)
// into a bufio.Writer the caller owns; nothing reaches the wire until
// Flush. All methods return the first sticky error of the underlying
// writer, so callers may write a whole pipelined batch and check once.
type Writer struct {
	w       *bufio.Writer
	scratch [24]byte // integer formatting without allocation

	// errs counts WriteError calls. The server's dispatch layer diffs it
	// around each command to attribute error replies per command without
	// threading a flag through every arm. Plain int: a Writer is owned by
	// one connection goroutine.
	errs int64
}

// NewWriter wraps w.
func NewWriter(w *bufio.Writer) *Writer { return &Writer{w: w} }

// Flush forces everything written so far onto the wire.
func (w *Writer) Flush() error { return w.w.Flush() }

// Buffered reports bytes not yet flushed.
func (w *Writer) Buffered() int { return w.w.Buffered() }

func (w *Writer) line(marker byte, payload string) error {
	w.w.WriteByte(marker)
	w.w.WriteString(payload)
	_, err := w.w.WriteString(crlf)
	return err
}

func (w *Writer) lineInt(marker byte, n int64) error {
	w.w.WriteByte(marker)
	w.w.Write(strconv.AppendInt(w.scratch[:0], n, 10))
	_, err := w.w.WriteString(crlf)
	return err
}

// WriteSimple writes "+s\r\n". s must not contain CR or LF.
func (w *Writer) WriteSimple(s string) error { return w.line(TypeSimple, s) }

// WriteError writes "-msg\r\n". msg must not contain CR or LF; by RESP
// convention it starts with an uppercase error-class word ("ERR ...",
// "CROSSSHARD ...").
func (w *Writer) WriteError(msg string) error {
	w.errs++
	return w.line(TypeError, msg)
}

// ErrorCount returns the number of WriteError calls on this Writer.
func (w *Writer) ErrorCount() int64 { return w.errs }

// WriteInt writes ":n\r\n".
func (w *Writer) WriteInt(n int64) error { return w.lineInt(TypeInt, n) }

// WriteBulk writes "$len\r\n<b>\r\n". nil is NOT the null bulk — use
// WriteNull for absent values; an empty non-nil slice is "$0\r\n\r\n".
func (w *Writer) WriteBulk(b []byte) error {
	w.lineInt(TypeBulk, int64(len(b)))
	w.w.Write(b)
	_, err := w.w.WriteString(crlf)
	return err
}

// WriteBulkString is WriteBulk for a string without converting through
// a byte slice.
func (w *Writer) WriteBulkString(s string) error {
	w.lineInt(TypeBulk, int64(len(s)))
	w.w.WriteString(s)
	_, err := w.w.WriteString(crlf)
	return err
}

// WriteNull writes the RESP2 null bulk "$-1\r\n" (absent value).
func (w *Writer) WriteNull() error { return w.line(TypeBulk, "-1") }

// WriteArrayHeader writes "*n\r\n"; the caller then writes n elements.
func (w *Writer) WriteArrayHeader(n int) error { return w.lineInt(TypeArray, int64(n)) }

// WriteCommand writes one client request: an array of bulk strings.
func (w *Writer) WriteCommand(args ...[]byte) error {
	w.WriteArrayHeader(len(args))
	var err error
	for _, a := range args {
		err = w.WriteBulk(a)
	}
	return err
}

// WriteCommandString is WriteCommand over string arguments.
func (w *Writer) WriteCommandString(args ...string) error {
	w.WriteArrayHeader(len(args))
	var err error
	for _, a := range args {
		err = w.WriteBulkString(a)
	}
	return err
}

// Value is one parsed reply, the client half of the codec. Kind is the
// wire type marker (TypeSimple, TypeError, TypeInt, TypeBulk,
// TypeArray) or TypeNull for the $-1 null bulk.
type Value struct {
	Kind  byte
	Str   []byte  // simple string, error text, or bulk payload
	Int   int64   // integer reply
	Array []Value // array reply, nil for the *-1 null array
}

// IsNull reports the null bulk / null array.
func (v Value) IsNull() bool { return v.Kind == TypeNull }

// Err returns the error reply as a Go error, or nil for any other kind.
func (v Value) Err() error {
	if v.Kind == TypeError {
		return fmt.Errorf("%s", v.Str)
	}
	return nil
}

// String renders the value for human-facing output (triecli -connect).
func (v Value) String() string {
	switch v.Kind {
	case TypeSimple:
		return string(v.Str)
	case TypeError:
		return "(error) " + string(v.Str)
	case TypeInt:
		return "(integer) " + strconv.FormatInt(v.Int, 10)
	case TypeBulk:
		return strconv.Quote(string(v.Str))
	case TypeNull:
		return "(nil)"
	case TypeArray:
		if len(v.Array) == 0 {
			return "(empty array)"
		}
		s := ""
		for i, e := range v.Array {
			if i > 0 {
				s += "\n"
			}
			s += fmt.Sprintf("%d) %s", i+1, e)
		}
		return s
	default:
		return fmt.Sprintf("(unknown type %q)", v.Kind)
	}
}

// ReadReply parses one complete reply of any RESP2 type. Nested arrays
// are bounded to the same element limit per level and a fixed depth.
func ReadReply(r *bufio.Reader, lim Limits) (Value, error) {
	return readReply(r, lim.orDefaults(), 0)
}

// maxReplyDepth bounds array nesting; the server subset never nests
// past 2 (SCAN's [cursor, [keys...]]), so 8 is generous and keeps a
// hostile byte stream from recursing the client to death.
const maxReplyDepth = 8

func readReply(r *bufio.Reader, lim Limits, depth int) (Value, error) {
	if depth > maxReplyDepth {
		return Value{}, protoErrf("reply nesting exceeds depth %d", maxReplyDepth)
	}
	marker, err := r.ReadByte()
	if err != nil {
		return Value{}, err
	}
	switch marker {
	case TypeSimple, TypeError:
		line, err := readLine(r, lim.MaxBulkLen)
		if err != nil {
			return Value{}, eofToUnexpected(err)
		}
		return Value{Kind: marker, Str: append([]byte(nil), line...)}, nil
	case TypeInt:
		line, err := readLine(r, maxLineDecl)
		if err != nil {
			return Value{}, eofToUnexpected(err)
		}
		n, err := strconv.ParseInt(string(line), 10, 64)
		if err != nil {
			return Value{}, protoErrf("bad integer %q", line)
		}
		return Value{Kind: TypeInt, Int: n}, nil
	case TypeBulk:
		line, err := readLine(r, maxLineDecl)
		if err != nil {
			return Value{}, eofToUnexpected(err)
		}
		ln, err := parseLen(line, true)
		if err != nil {
			return Value{}, err
		}
		if ln == -1 {
			return Value{Kind: TypeNull}, nil
		}
		if ln > int64(lim.MaxBulkLen) {
			return Value{}, protoErrf("bulk of %d bytes exceeds limit %d", ln, lim.MaxBulkLen)
		}
		buf := make([]byte, ln+2)
		if _, err := io.ReadFull(r, buf); err != nil {
			return Value{}, eofToUnexpected(err)
		}
		if buf[ln] != '\r' || buf[ln+1] != '\n' {
			return Value{}, protoErrf("bulk payload not terminated by CRLF")
		}
		return Value{Kind: TypeBulk, Str: buf[:ln:ln]}, nil
	case TypeArray:
		line, err := readLine(r, maxLineDecl)
		if err != nil {
			return Value{}, eofToUnexpected(err)
		}
		n, err := parseLen(line, true)
		if err != nil {
			return Value{}, err
		}
		if n == -1 {
			return Value{Kind: TypeNull}, nil
		}
		if n > int64(lim.MaxArrayLen) {
			return Value{}, protoErrf("array of %d elements exceeds limit %d", n, lim.MaxArrayLen)
		}
		out := Value{Kind: TypeArray, Array: make([]Value, 0, n)}
		for i := int64(0); i < n; i++ {
			e, err := readReply(r, lim, depth+1)
			if err != nil {
				return Value{}, eofToUnexpected(err)
			}
			out.Array = append(out.Array, e)
		}
		return out, nil
	default:
		return Value{}, protoErrf("unknown reply type %q", marker)
	}
}
