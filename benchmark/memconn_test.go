package main

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"
)

func dialPair(t *testing.T) (client, server net.Conn, l *memListener) {
	t.Helper()
	l = newMemListener()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			t.Error(err)
		}
		accepted <- c
	}()
	client, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	return client, <-accepted, l
}

func TestMemConnKeepsOrderAcrossWrapAround(t *testing.T) {
	client, server, _ := dialPair(t)
	// Three and a half pipe capacities, written in odd-sized pieces while
	// the other side reads in other odd-sized pieces.
	want := make([]byte, memPipeSize*7/2)
	for i := range want {
		want[i] = byte(i * 31)
	}
	go func() {
		for rest := want; len(rest) > 0; {
			n := min(len(rest), 7001)
			if _, err := client.Write(rest[:n]); err != nil {
				t.Error(err)
				return
			}
			rest = rest[n:]
		}
		client.Close()
	}()
	var got bytes.Buffer
	buf := make([]byte, 4099)
	for {
		n, err := server.Read(buf)
		got.Write(buf[:n])
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("read %d bytes that differ from the %d written", got.Len(), len(want))
	}
}

func TestMemConnBothDirections(t *testing.T) {
	client, server, _ := dialPair(t)
	if _, err := client.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, err := server.Read(buf)
	if err != nil || string(buf[:n]) != "ping" {
		t.Fatalf("server read %q, %v", buf[:n], err)
	}
	if _, err := server.Write([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	n, err = client.Read(buf)
	if err != nil || string(buf[:n]) != "pong" {
		t.Fatalf("client read %q, %v", buf[:n], err)
	}
}

func TestMemConnCloseDrainsThenEOF(t *testing.T) {
	client, server, _ := dialPair(t)
	client.Write([]byte("last words"))
	client.Close()
	got, err := io.ReadAll(server)
	if err != nil || string(got) != "last words" {
		t.Fatalf("after the peer closed: read %q, %v", got, err)
	}
	if _, err := server.Write([]byte("x")); err != io.ErrClosedPipe {
		t.Fatalf("write to a closed peer: %v, want io.ErrClosedPipe", err)
	}
}

func TestMemConnCloseUnblocksReader(t *testing.T) {
	client, server, _ := dialPair(t)
	done := make(chan error, 1)
	go func() {
		_, err := server.Read(make([]byte, 1))
		done <- err
	}()
	client.Close()
	if err := <-done; err != io.EOF {
		t.Fatalf("blocked read after close: %v, want io.EOF", err)
	}
}

func TestMemConnBackPressure(t *testing.T) {
	client, server, _ := dialPair(t)
	wrote := make(chan int, 1)
	go func() {
		n, _ := client.Write(make([]byte, memPipeSize+1))
		wrote <- n
	}()
	// The writer fills the pipe and must then wait for the reader: the
	// pipe never holds more than its capacity.
	pipe := server.(*memConn).in
	for {
		pipe.mu.Lock()
		n := pipe.n
		pipe.mu.Unlock()
		if n == memPipeSize {
			break
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-wrote:
		t.Fatal("a write larger than the pipe returned before anything was read")
	default:
	}
	if _, err := io.ReadFull(server, make([]byte, memPipeSize+1)); err != nil {
		t.Fatal(err)
	}
	if n := <-wrote; n != memPipeSize+1 {
		t.Fatalf("wrote %d bytes, want %d", n, memPipeSize+1)
	}
}

func TestMemListenerClose(t *testing.T) {
	l := newMemListener()
	l.Close()
	if _, err := l.Accept(); err != net.ErrClosed {
		t.Fatalf("Accept after Close: %v", err)
	}
	if _, err := l.Dial(); err != net.ErrClosed {
		t.Fatalf("Dial after Close: %v", err)
	}
}
