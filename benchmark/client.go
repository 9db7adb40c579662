package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync/atomic"
	"time"

	"nbtrie/internal/workload"
)

// The RESP load generator. It encodes into reused buffers and skims replies
// in place, so that allocs_per_op on the server workloads is the program's
// and not the generator's (client_test.go pins it at 0 allocations).

type opKind uint8

const (
	opGet opKind = iota
	opSet
	opSetex
	opDel
	opKinds
)

var opNames = [opKinds]string{"get", "set", "setex", "del"}

// wireOp reuses workload.Mix for the wire: Insert is SET, Delete is DEL,
// Find is GET and Replace is SETEX.
var wireOp = [...]opKind{
	workload.OpInsert:  opSet,
	workload.OpDelete:  opDel,
	workload.OpFind:    opGet,
	workload.OpReplace: opSetex,
}

// keyState is what the last acknowledged write left a key as.
type keyState uint8

const (
	keyAbsent  keyState = iota
	keyPresent          // SET: stays until deleted
	keyExpires          // SETEX: present with this version, or already gone
)

// modelEntry is the client's record of one key it owns.
type modelEntry struct {
	ver   uint64
	state keyState
}

type pendingOp struct {
	kind opKind
	key  uint64
	ver  uint64
}

// client is one closed-loop connection. It alone writes the keys with
// key % workers == id, so the last acknowledged write per key is known
// exactly and every reply about an own key can be checked.
type client struct {
	conn    io.ReadWriter
	id      uint64
	workers uint64
	rd      replyReader
	wbuf    []byte
	pend    []pendingOp
	model   []modelEntry // indexed by key / workers
	nextVer uint64
	val     [valueSize]byte

	sent      [opKinds]int64 // commands sent, by kind, on the current server
	records   atomic.Int64   // AOF records the acknowledged writes produce (the saver reads it)
	writes    int64          // acknowledged writes that reach the AOF
	userBytes int64          // key + value bytes of those writes
	failed    int64          // error replies and oracle mismatches
}

func newClient(id, workers int, keyRange uint64) *client {
	c := &client{
		id:      uint64(id),
		workers: uint64(workers),
		wbuf:    make([]byte, 0, writeSweepBatch*128), // a set-up batch of SETs fits
		pend:    make([]pendingOp, 0, writeSweepBatch),
		model:   make([]modelEntry, (keyRange+uint64(workers)-1)/uint64(workers)),
	}
	c.rd.buf = make([]byte, 64<<10)
	for i := range c.val {
		c.val[i] = 'v'
	}
	return c
}

// attach binds the client to a fresh connection (and a fresh server: the
// per-command send counts restart).
func (c *client) attach(conn io.ReadWriter) {
	c.conn = conn
	c.rd.reset(conn)
	c.sent = [opKinds]int64{}
	c.wbuf, c.pend = c.wbuf[:0], c.pend[:0]
}

// ownKey maps any key to the nearest key that worker id of workers owns.
func ownKey(k, id, workers, keyRange uint64) uint64 {
	k = k - k%workers + id
	if k >= keyRange {
		k -= workers
	}
	return k
}

func (c *client) owns(k uint64) bool { return k%c.workers == c.id }

// fillValue stamps a value with the key it is stored under and the version
// of the write, which is all a reader needs to check it.
func fillValue(val []byte, key, ver uint64) {
	binary.LittleEndian.PutUint64(val[0:], key)
	binary.LittleEndian.PutUint64(val[8:], ver)
}

func appendBulkHeader(b []byte, n int) []byte {
	b = append(b, '$')
	b = strconv.AppendInt(b, int64(n), 10)
	return append(b, '\r', '\n')
}

func appendKey(b []byte, k uint64) []byte {
	var digits [20]byte
	d := strconv.AppendUint(digits[:0], k, 10)
	b = appendBulkHeader(b, len(d))
	b = append(b, d...)
	return append(b, '\r', '\n')
}

func decimalLen(k uint64) int64 {
	n := int64(1)
	for k >= 10 {
		k /= 10
		n++
	}
	return n
}

// add encodes one command into the batch being built.
func (c *client) add(kind opKind, key uint64) {
	p := pendingOp{kind: kind, key: key}
	b := c.wbuf
	switch kind {
	case opGet:
		b = append(b, "*2\r\n$3\r\nGET\r\n"...)
		b = appendKey(b, key)
	case opDel:
		b = append(b, "*2\r\n$3\r\nDEL\r\n"...)
		b = appendKey(b, key)
	case opSet, opSetex:
		c.nextVer++
		p.ver = c.nextVer
		fillValue(c.val[:], key, p.ver)
		if kind == opSet {
			b = append(b, "*3\r\n$3\r\nSET\r\n"...)
			b = appendKey(b, key)
		} else {
			b = append(b, "*4\r\n$5\r\nSETEX\r\n"...)
			b = appendKey(b, key)
			b = append(b, "$1\r\n"...)
			b = append(b, '0'+setexSeconds, '\r', '\n')
		}
		b = appendBulkHeader(b, valueSize)
		b = append(b, c.val[:]...)
		b = append(b, '\r', '\n')
	}
	c.wbuf = b
	c.pend = append(c.pend, p)
	c.sent[kind]++
}

// batchTimes are the instants of one round trip. The two inner ones are
// taken only when the batch is traced.
type batchTimes struct {
	flushStart, flushEnd, lastRead, end time.Time
}

// roundTrip sends the batch in one write and reads and checks every reply.
// An error means the connection is unusable; failed replies only count.
func (c *client) roundTrip(bt *batchTimes, traced bool) error {
	c.rd.timed = traced
	bt.flushStart = time.Now()
	if _, err := c.conn.Write(c.wbuf); err != nil {
		return err
	}
	if traced {
		bt.flushEnd = time.Now()
	}
	for _, p := range c.pend {
		if err := c.readReply(p); err != nil {
			return err
		}
	}
	bt.lastRead = c.rd.lastRead
	bt.end = time.Now()
	c.wbuf, c.pend = c.wbuf[:0], c.pend[:0]
	return nil
}

var errProtocol = errors.New("benchmark client: malformed reply")

func (c *client) readReply(p pendingOp) error {
	line, err := c.rd.line()
	if err != nil {
		return err
	}
	if len(line) == 0 {
		return errProtocol
	}
	switch line[0] {
	case '-':
		c.failed++
	case '+':
		if (p.kind != opSet && p.kind != opSetex) || !bytes.Equal(line, []byte("+OK")) {
			c.failed++
			return nil
		}
		c.acked(p, 1)
	case ':':
		n, ok := parseInt(line[1:])
		if p.kind != opDel || !ok || n < 0 || n > 1 {
			c.failed++
			return nil
		}
		c.acked(p, n)
	case '$':
		n, ok := parseInt(line[1:])
		if p.kind != opGet || !ok || n > valueSize {
			return errProtocol
		}
		var body []byte
		if n >= 0 {
			if body, err = c.rd.take(int(n)); err != nil {
				return err
			}
		}
		c.checkGet(p.key, body)
	default:
		return errProtocol
	}
	return nil
}

// acked applies an acknowledged write to the model, after checking what
// the reply says against it. n is DEL's count of keys removed.
func (c *client) acked(p pendingOp, n int64) {
	e := &c.model[p.key/c.workers]
	switch p.kind {
	case opSet:
		*e = modelEntry{ver: p.ver, state: keyPresent}
		c.records.Add(1)
	case opSetex:
		*e = modelEntry{ver: p.ver, state: keyExpires}
		c.records.Add(2) // SET and PEXPIREAT
	case opDel:
		if (e.state == keyPresent && n != 1) || (e.state == keyAbsent && n != 0) {
			c.failed++
		}
		*e = modelEntry{}
		if n == 0 {
			return // nothing deleted: nothing logged
		}
		c.records.Add(1)
		c.writes++
		c.userBytes += decimalLen(p.key)
		return
	}
	c.writes++
	c.userBytes += decimalLen(p.key) + valueSize
}

// checkGet checks a GET reply (nil body: null). Any value must be one that
// was written under this key; for an own key it must be the model's.
func (c *client) checkGet(key uint64, body []byte) {
	var ver uint64
	if body != nil {
		if len(body) != valueSize || binary.LittleEndian.Uint64(body) != key {
			c.failed++
			return
		}
		ver = binary.LittleEndian.Uint64(body[8:])
	}
	if !c.owns(key) {
		return
	}
	e := c.model[key/c.workers]
	switch {
	case body == nil:
		if e.state == keyPresent {
			c.failed++
		}
	case e.state == keyAbsent || ver != e.ver:
		c.failed++
	}
}

func parseInt(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	neg := b[0] == '-'
	if neg {
		b = b[1:]
	}
	if len(b) == 0 || len(b) > 18 {
		return 0, false
	}
	var n int64
	for _, ch := range b {
		if ch < '0' || ch > '9' {
			return 0, false
		}
		n = n*10 + int64(ch-'0')
	}
	if neg {
		n = -n
	}
	return n, true
}

// replyReader hands out reply lines and bulk bodies as slices of its one
// fixed buffer; a slice is valid until the next call.
type replyReader struct {
	r        io.Reader
	buf      []byte
	lo, hi   int
	timed    bool
	lastRead time.Time // when the latest Read returned, if timed
}

func (rr *replyReader) reset(r io.Reader) { rr.r, rr.lo, rr.hi = r, 0, 0 }

func (rr *replyReader) fill() error {
	if rr.lo > 0 {
		rr.hi = copy(rr.buf, rr.buf[rr.lo:rr.hi])
		rr.lo = 0
	}
	if rr.hi == len(rr.buf) {
		return fmt.Errorf("benchmark client: reply longer than %d bytes", len(rr.buf))
	}
	n, err := rr.r.Read(rr.buf[rr.hi:])
	if rr.timed {
		rr.lastRead = time.Now()
	}
	rr.hi += n
	if n > 0 {
		return nil
	}
	if err == nil {
		err = io.ErrNoProgress
	}
	return err
}

// line returns the next CRLF-terminated line without the CRLF.
func (rr *replyReader) line() ([]byte, error) {
	from := 0
	for {
		if i := bytes.IndexByte(rr.buf[rr.lo+from:rr.hi], '\n'); i >= 0 {
			end := rr.lo + from + i
			if end == rr.lo || rr.buf[end-1] != '\r' {
				return nil, errProtocol
			}
			line := rr.buf[rr.lo : end-1]
			rr.lo = end + 1
			return line, nil
		}
		from = rr.hi - rr.lo
		if err := rr.fill(); err != nil {
			return nil, err
		}
	}
}

// take returns the next n bytes and consumes the CRLF after them.
func (rr *replyReader) take(n int) ([]byte, error) {
	for rr.hi-rr.lo < n+2 {
		if err := rr.fill(); err != nil {
			return nil, err
		}
	}
	body := rr.buf[rr.lo : rr.lo+n]
	if rr.buf[rr.lo+n] != '\r' || rr.buf[rr.lo+n+1] != '\n' {
		return nil, errProtocol
	}
	rr.lo += n + 2
	return body, nil
}
