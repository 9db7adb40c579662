package main

import (
	"errors"
	"io"
	"net"
	"sync"
	"time"
)

// memListener is a net.Listener whose connections are pairs of buffered
// in-memory byte pipes. It lets the full server loop run without a socket,
// so the difference to loopback TCP is the cost of the wire. net.Pipe is
// not used: it hands every Write to a waiting Read, and that rendezvous
// would be billed to the server.
type memListener struct {
	accept chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func newMemListener() *memListener {
	return &memListener{accept: make(chan net.Conn), closed: make(chan struct{})}
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *memListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *memListener) Addr() net.Addr { return memAddr{} }

// Dial returns the client end of a new connection once the server side has
// been accepted.
func (l *memListener) Dial() (net.Conn, error) {
	toServer, toClient := newMemPipe(), newMemPipe()
	client := &memConn{in: toClient, out: toServer}
	server := &memConn{in: toServer, out: toClient}
	select {
	case l.accept <- server:
		return client, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem" }

// memPipeSize is the capacity of one direction: like a socket buffer, a
// writer that gets this far ahead of its reader blocks.
const memPipeSize = 64 << 10

// memPipe is one direction of a connection: a ring buffer with a blocking
// reader and a blocking writer.
type memPipe struct {
	mu     sync.Mutex
	cond   sync.Cond
	buf    [memPipeSize]byte
	head   int // next byte to read
	n      int // bytes buffered
	closed bool
}

func newMemPipe() *memPipe {
	p := &memPipe{}
	p.cond.L = &p.mu
	return p
}

func (p *memPipe) write(b []byte) (int, error) {
	written := 0
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(b) > 0 {
		for p.n == memPipeSize && !p.closed {
			p.cond.Wait()
		}
		if p.closed {
			return written, io.ErrClosedPipe
		}
		tail := (p.head + p.n) % memPipeSize
		c := copy(p.buf[tail:min(memPipeSize, tail+memPipeSize-p.n)], b)
		p.n += c
		written += c
		b = b[c:]
		p.cond.Broadcast()
	}
	return written, nil
}

func (p *memPipe) read(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.n == 0 && !p.closed {
		p.cond.Wait()
	}
	if p.n == 0 {
		return 0, io.EOF
	}
	c := copy(b, p.buf[p.head:min(memPipeSize, p.head+p.n)])
	p.head = (p.head + c) % memPipeSize
	p.n -= c
	p.cond.Broadcast()
	return c, nil
}

func (p *memPipe) close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
}

// memConn is one end of a connection. Bytes already written can still be
// read after the writer closes; deadlines are not supported (the server
// sets none).
type memConn struct {
	in, out *memPipe
}

func (c *memConn) Read(b []byte) (int, error)  { return c.in.read(b) }
func (c *memConn) Write(b []byte) (int, error) { return c.out.write(b) }

func (c *memConn) Close() error {
	c.in.close()
	c.out.close()
	return nil
}

func (c *memConn) LocalAddr() net.Addr  { return memAddr{} }
func (c *memConn) RemoteAddr() net.Addr { return memAddr{} }

var errNoDeadline = errors.New("memconn: deadlines are not supported")

func (c *memConn) SetDeadline(time.Time) error      { return errNoDeadline }
func (c *memConn) SetReadDeadline(time.Time) error  { return errNoDeadline }
func (c *memConn) SetWriteDeadline(time.Time) error { return errNoDeadline }
