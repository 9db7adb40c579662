package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"

	"nbtrie"
	"nbtrie/internal/expiry"
	"nbtrie/internal/resp"
	"nbtrie/internal/server"
	"nbtrie/internal/workload"
)

// H2: the layers of a srv workload that hold no keys, each driven alone on
// one goroutine over the workload's own op stream and timed in bulk (no
// clock read per call): the server's RESP parser and reply encoder, the
// expiry index, and the load generator's own codec. Their costs are what
// H3 is charged before the rest of it is called the server's.

// codecOps is how many operations of the stream each pass loops over.
const codecOps = 1 << 14

type codecCosts struct {
	parseNS, encodeNS float64 // server side, per command / per reply
	parseAllocs       float64 // per command
	bytesIn, bytesOut float64 // per operation
	loadgenNS         float64 // client encode + reply check, per operation
	expiryLookupNS    float64
	expirySetNS       float64
	setexShare        float64 // of the op stream
}

// respPerOp is what the parser and encoder cost one operation of the stream.
func (c codecCosts) respPerOp() float64 { return c.parseNS + c.encodeNS }

// expiryPerOp charges every operation one index lookup (reads check for a
// due deadline, SET and DEL for an arming to clear) and SETEX one arming.
func (c codecCosts) expiryPerOp() float64 {
	return c.expiryLookupNS + c.setexShare*c.expirySetNS
}

// timeLoop calls pass, which does n operations, until d has gone by, and
// returns nanoseconds and allocations per operation.
func timeLoop(d time.Duration, n int, pass func() error) (ns, allocs float64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	ops := 0
	for time.Since(start) < d || ops == 0 {
		if err := pass(); err != nil {
			return 0, 0, err
		}
		ops += n
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed.Nanoseconds()) / float64(ops), float64(after.Mallocs-before.Mallocs) / float64(ops), nil
}

// cannedReply is what a server that starts empty answers to one operation
// of the stream.
type cannedReply struct {
	kind byte   // '$' value, 'N' null, '+' OK, ':' integer
	ver  uint64 // '$': the version stored; ':': the count
}

func cannedReplies(ops []pendingOp) []cannedReply {
	stored := map[uint64]uint64{}
	ver := uint64(0)
	replies := make([]cannedReply, len(ops))
	for i, op := range ops {
		switch op.kind {
		case opSet, opSetex:
			ver++ // as client.add numbers its writes
			stored[op.key] = ver
			replies[i] = cannedReply{kind: '+'}
		case opGet:
			if v, ok := stored[op.key]; ok {
				replies[i] = cannedReply{'$', v}
			} else {
				replies[i] = cannedReply{kind: 'N'}
			}
		case opDel:
			if _, ok := stored[op.key]; ok {
				delete(stored, op.key)
				replies[i] = cannedReply{':', 1}
			} else {
				replies[i] = cannedReply{':', 0}
			}
		}
	}
	return replies
}

func measureCodec(spec *srvSpec, seed uint64, d time.Duration) (codecCosts, error) {
	var costs codecCosts
	gen := workload.NewGenerator(spec.mix, spec.keyRange, workerSeed(seed, 0))
	ops := make([]pendingOp, codecOps)
	for i := range ops {
		op := gen.Next()
		ops[i] = pendingOp{kind: wireOp[op.Kind], key: op.Key}
		if ops[i].kind == opSetex {
			costs.setexShare += 1.0 / codecOps
		}
	}
	canned := cannedReplies(ops)

	// One client owns every key, so its model follows the canned server's.
	c := newClient(0, 1, spec.keyRange)
	for _, op := range ops {
		c.add(op.kind, op.key)
	}
	requests := bytes.Clone(c.wbuf)
	var replies bytes.Buffer
	var value [valueSize]byte
	copy(value[:], c.val[:])
	encodeReplies := func(w *resp.Writer) {
		for i, r := range canned {
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
			if (i+1)%spec.depth == 0 {
				w.Flush()
			}
		}
		w.Flush()
	}
	replyWriter := resp.NewWriter(bufio.NewWriter(&replies))
	encodeReplies(replyWriter)
	costs.bytesIn = float64(len(requests)) / codecOps
	costs.bytesOut = float64(replies.Len()) / codecOps

	var err error
	rr := resp.NewRequestReader(bufio.NewReaderSize(&loopReader{data: requests}, 16<<10), resp.Limits{})
	if costs.parseNS, costs.parseAllocs, err = timeLoop(d, codecOps, func() error {
		for range ops {
			if _, err := rr.ReadCommandReuse(); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return costs, err
	}

	discard := resp.NewWriter(bufio.NewWriterSize(io.Discard, 16<<10))
	costs.encodeNS, _, _ = timeLoop(d, codecOps, func() error {
		encodeReplies(discard)
		return nil
	})

	// The generator's side: encode each batch, then check the canned
	// replies against the model, which restarts with every pass like the
	// canned server does.
	c.attach(struct {
		io.Reader
		io.Writer
	}{&loopReader{data: replies.Bytes()}, io.Discard})
	if costs.loadgenNS, _, err = timeLoop(d, codecOps, func() error {
		clear(c.model)
		c.nextVer = 0
		var bt batchTimes
		for i, op := range ops {
			c.add(op.kind, op.key)
			if (i+1)%spec.depth == 0 || i == len(ops)-1 {
				if err := c.roundTrip(&bt, false); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		return costs, err
	}
	if c.failed > 0 {
		return costs, fmt.Errorf("load generator rejected %d canned replies", c.failed)
	}

	// The expiry index at the server's width and shard count. Arming is
	// timed over every key of the stream (so mostly re-arming); lookups run
	// against an index armed like the workload arms it, by its SETEXs.
	keyer := server.BytesKeyer{}
	width := keyer.Width()
	encoded, err := trieKeys(keyer, spec.keyRange)
	if err != nil {
		return costs, err
	}
	sized, err := nbtrie.NewShardedMap[struct{}](width, 0)
	if err != nil {
		return costs, err
	}
	deadline := time.Now().UnixMilli() + setexSeconds*1000
	index, err := expiry.New(width, sized.Shards())
	if err != nil {
		return costs, err
	}
	costs.expirySetNS, _, _ = timeLoop(d/2, codecOps, func() error {
		for _, op := range ops {
			index.Set(encoded[op.key], deadline)
		}
		return nil
	})
	if index, err = expiry.New(width, sized.Shards()); err != nil {
		return costs, err
	}
	for _, op := range ops {
		if op.kind == opSetex {
			index.Set(encoded[op.key], deadline)
		}
	}
	costs.expiryLookupNS, _, _ = timeLoop(d/2, codecOps, func() error {
		for _, op := range ops {
			index.Lookup(encoded[op.key])
		}
		return nil
	})
	return costs, nil
}

// loopReader serves the same bytes over and over.
type loopReader struct {
	data []byte
	at   int
}

func (r *loopReader) Read(p []byte) (int, error) {
	if r.at == len(r.data) {
		r.at = 0
	}
	n := copy(p, r.data[r.at:])
	r.at += n
	return n, nil
}
