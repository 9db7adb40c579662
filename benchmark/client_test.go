package main

import (
	"bufio"
	"bytes"
	"io"
	"testing"

	"nbtrie/internal/resp"
	"nbtrie/internal/workload"
)

// scriptedServer answers a fixed command sequence the way nbtried does,
// through the server's own reply encoder.
func scriptedReplies(t *testing.T, ops []pendingOp) []byte {
	t.Helper()
	var out bytes.Buffer
	w := resp.NewWriter(bufio.NewWriter(&out))
	var value [valueSize]byte
	for i := range value {
		value[i] = 'v'
	}
	for i, r := range cannedReplies(ops) {
		switch r.kind {
		case '$':
			fillValue(value[:], ops[i].key, r.ver)
			w.WriteBulk(value[:])
		case 'N':
			w.WriteNull()
		case '+':
			w.WriteSimple("OK")
		case ':':
			w.WriteInt(int64(r.ver))
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

var mixedOps = []pendingOp{
	{kind: opGet, key: 7}, {kind: opSet, key: 7}, {kind: opGet, key: 7}, {kind: opSetex, key: 123456},
	{kind: opGet, key: 123456}, {kind: opDel, key: 7}, {kind: opDel, key: 7}, {kind: opGet, key: 7},
	{kind: opSet, key: 0}, {kind: opGet, key: 0}, {kind: opDel, key: 123456}, {kind: opGet, key: 99999},
}

// TestClientRoundTripDoesNotAllocate pins the load generator: encoding a
// batch of GET/SET/SETEX/DEL and checking its replies allocates nothing, so
// allocs_per_op on the srv workloads is the server's alone.
func TestClientRoundTripDoesNotAllocate(t *testing.T) {
	c := newClient(0, 1, 200000)
	c.attach(struct {
		io.Reader
		io.Writer
	}{&loopReader{data: scriptedReplies(t, mixedOps)}, io.Discard})
	var bt batchTimes
	pass := func() {
		clear(c.model)
		c.nextVer = 0
		for _, op := range mixedOps {
			c.add(op.kind, op.key)
		}
		if err := c.roundTrip(&bt, true); err != nil {
			t.Fatal(err)
		}
	}
	pass() // buffers reach their steady size
	if allocs := testing.AllocsPerRun(200, pass); allocs != 0 {
		t.Errorf("a batch of %d commands allocates %v times, want 0", len(mixedOps), allocs)
	}
	if c.failed != 0 {
		t.Errorf("%d replies of a correct server were rejected", c.failed)
	}
	if c.sent[opGet] == 0 || c.sent[opSet] == 0 || c.sent[opSetex] == 0 || c.sent[opDel] == 0 {
		t.Errorf("sent counts %v: a kind was never sent", c.sent)
	}
}

// TestClientRequestsParseOnTheServerSide feeds what the client encodes to
// the server's own request reader.
func TestClientRequestsParseOnTheServerSide(t *testing.T) {
	c := newClient(0, 1, 200000)
	for _, op := range mixedOps {
		c.add(op.kind, op.key)
	}
	rr := resp.NewRequestReader(bufio.NewReader(bytes.NewReader(c.wbuf)), resp.Limits{})
	want := [][]string{
		{"GET", "7"}, {"SET", "7"}, {"GET", "7"}, {"SETEX", "123456", "2"},
	}
	for i, op := range mixedOps {
		args, err := rr.ReadCommandReuse()
		if err != nil {
			t.Fatalf("command %d: %v", i, err)
		}
		if i < len(want) {
			for j, w := range want[i] {
				if string(args[j]) != w {
					t.Errorf("command %d arg %d: %q, want %q", i, j, args[j], w)
				}
			}
		}
		if op.kind == opSet || op.kind == opSetex {
			if v := args[len(args)-1]; len(v) != valueSize {
				t.Errorf("command %d: value of %d bytes, want %d", i, len(v), valueSize)
			}
		}
	}
	if _, err := rr.ReadCommandReuse(); err != io.EOF {
		t.Errorf("after the batch: %v, want io.EOF", err)
	}
}

// TestClientCatchesWrongReplies: the oracle in the reply path must notice a
// server that answers with another key's value, a stale version, a value
// for a deleted key, or nothing for a stored one.
func TestClientCatchesWrongReplies(t *testing.T) {
	value := func(key, ver uint64) []byte {
		v := bytes.Repeat([]byte{'v'}, valueSize)
		fillValue(v, key, ver)
		return v
	}
	bulk := func(v []byte) string { return "$64\r\n" + string(v) + "\r\n" }
	for _, c := range []struct {
		name    string
		ops     []pendingOp
		replies string
		failed  int64
	}{
		{"correct", []pendingOp{{kind: opSet, key: 4}, {kind: opGet, key: 4}}, "+OK\r\n" + bulk(value(4, 1)), 0},
		{"other key's value", []pendingOp{{kind: opSet, key: 4}, {kind: opGet, key: 4}}, "+OK\r\n" + bulk(value(5, 1)), 1},
		{"stale version", []pendingOp{{kind: opSet, key: 4}, {kind: opSet, key: 4}, {kind: opGet, key: 4}}, "+OK\r\n+OK\r\n" + bulk(value(4, 1)), 1},
		{"lost write", []pendingOp{{kind: opSet, key: 4}, {kind: opGet, key: 4}}, "+OK\r\n$-1\r\n", 1},
		{"resurrected", []pendingOp{{kind: opSet, key: 4}, {kind: opDel, key: 4}, {kind: opGet, key: 4}}, "+OK\r\n:1\r\n" + bulk(value(4, 1)), 1},
		{"delete of a stored key says 0", []pendingOp{{kind: opSet, key: 4}, {kind: opDel, key: 4}}, "+OK\r\n:0\r\n", 1},
		{"expiring key may be gone", []pendingOp{{kind: opSetex, key: 4}, {kind: opGet, key: 4}, {kind: opDel, key: 4}}, "+OK\r\n$-1\r\n:0\r\n", 0},
		{"error reply", []pendingOp{{kind: opSet, key: 4}}, "-MISCONF no\r\n", 1},
		{"foreign key is only checked for shape", []pendingOp{{kind: opGet, key: 5}}, bulk(value(5, 9)), 0},
	} {
		cl := newClient(0, 2, 100)
		cl.attach(struct {
			io.Reader
			io.Writer
		}{bytes.NewReader([]byte(c.replies)), io.Discard})
		for _, op := range c.ops {
			cl.add(op.kind, op.key)
		}
		var bt batchTimes
		if err := cl.roundTrip(&bt, false); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		if cl.failed != c.failed {
			t.Errorf("%s: %d replies failed the check, want %d", c.name, cl.failed, c.failed)
		}
	}
}

func TestOwnKeysPartitionTheRange(t *testing.T) {
	const keyRange, workers = 1003, 4
	owners := make([]int, keyRange)
	gen := workload.NewGenerator(workload.Mix{FindPct: 100}, keyRange, 1)
	for i := 0; i < 100000; i++ {
		k := gen.Next().Key
		for id := uint64(0); id < workers; id++ {
			own := ownKey(k, id, workers, keyRange)
			if own >= keyRange || own%workers != id {
				t.Fatalf("ownKey(%d, %d) = %d", k, id, own)
			}
			owners[own] = int(id) + 1
		}
	}
	for k, o := range owners {
		if o != k%workers+1 {
			t.Fatalf("key %d: owner %d", k, o-1)
		}
	}
}
