package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"runtime"
	"testing"

	"nbtrie/internal/resp"
)

// In-process measurement of the server dispatch path, pinned by
// TestServerPathAllocPins: a TCP load generator can only see client
// codec allocations, while the numbers that decide the server's GC
// pressure — wire parse → dispatch → reply encode, per command — are
// hidden behind the socket. The probe runs that exact path (the same
// ReadCommandReuse + session.dispatch the connection loop uses) against
// an in-memory server with the replies discarded, so the counts are
// deterministic and the test can pin them exactly.

// PathAllocs is the steady-state allocations per command on the server
// dispatch path. Get/Del/Exists/MGet run the full path, engine
// included (their engine ops are allocation-free; Del is measured on an
// absent key — a successful delete's node unlinking is engine work
// pinned by the library artifacts). Set is the full path including the
// engine's store (which allocates trie nodes); SetCodec subtracts an
// engine-only baseline, isolating the codec's contribution — pinned at
// 0: the value goes to the keyspace as an arena view, and its copy is
// part of the leaf the engine allocates.
//
// The TTL write paths run in full, keyspace included, each on a key put
// into its starting state before every command: SetexUnarmed is SETEX
// over a present key with no deadline, SetexArmed over one with a
// deadline, SetArmed is SET over a key with a deadline, and DelArmed is
// DEL of one.
type PathAllocs struct {
	Get      float64
	Set      float64
	SetCodec float64
	Del      float64
	Exists   float64
	MGet     float64

	SetexUnarmed float64
	SetexArmed   float64
	SetArmed     float64
	DelArmed     float64
}

// loopReader replays the same request bytes forever, so a measurement
// loop never sees EOF or a growing input.
type loopReader struct {
	data []byte
	off  int
}

func (r *loopReader) Read(p []byte) (int, error) {
	if r.off == len(r.data) {
		r.off = 0
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

// probeNowMS is the probe server's fixed clock. A clock that does not
// move keeps every deadline the probe arms in the future, so neither a
// read nor the reaper's sweep purges a key mid-measurement.
const probeNowMS = 1 << 40

// MeasureServerPathAllocs profiles the dispatch path with valueSize-byte
// SET payloads.
func MeasureServerPathAllocs(valueSize int) (PathAllocs, error) {
	s, err := New(Config{Clock: func() int64 { return probeNowMS }})
	if err != nil {
		return PathAllocs{}, err
	}
	defer s.Close()
	w := resp.NewWriter(bufio.NewWriterSize(io.Discard, 32<<10))
	ss := newSession(s, w)

	val := bytes.Repeat([]byte{'x'}, valueSize)
	deadline := int64(probeNowMS + 100_000)
	keys := map[string]uint64{}
	for _, key := range []string{"key:123", "aa", "ab", "ttl"} {
		k, err := BytesKeyer{}.Encode([]byte(key))
		if err != nil {
			return PathAllocs{}, err
		}
		keys[key] = k
	}
	// The MGET keys hold far-future deadlines, so the pins cover BOTH
	// sides of the lazy expiry check: GET/EXISTS/SET on key:123 take the
	// unarmed path (no clock read), MGET's aa/ab the armed path (a clock
	// comparison). Both must stay allocation-free.
	s.db.Store(keys["key:123"], bytes.Clone(val))
	s.db.StoreDeadline(keys["aa"], bytes.Clone(val), deadline)
	s.db.StoreDeadline(keys["ab"], bytes.Clone(val), deadline)

	// measure runs wire through dispatch until steady state, then
	// counts the allocations of the commands alone; setup, when given,
	// runs before every command, outside the count.
	measure := func(wire []byte, setup func()) float64 {
		rr := resp.NewRequestReader(bufio.NewReaderSize(&loopReader{data: wire}, 16<<10), s.cfg.Limits)
		run := func() {
			args, err := rr.ReadCommandReuse()
			if err != nil {
				panic(err)
			}
			ss.dispatch(args)
		}
		// Warm the arena, span table and session scratch to steady state.
		for i := 0; i < 8; i++ {
			if setup != nil {
				setup()
			}
			run()
		}
		if setup == nil {
			return testing.AllocsPerRun(200, run)
		}
		// testing.AllocsPerRun's method with the setup left out of the
		// count: one P, and the whole-run average truncated to an integer.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		const runs = 200
		var before, after runtime.MemStats
		total := uint64(0)
		for i := 0; i < runs; i++ {
			setup()
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			total += after.Mallocs - before.Mallocs
		}
		return float64(total / runs)
	}

	bulk := func(arg []byte) string {
		return fmt.Sprintf("$%d\r\n%s\r\n", len(arg), arg)
	}
	setex := []byte("*4\r\n$5\r\nSETEX\r\n$3\r\nttl\r\n$3\r\n100\r\n" + bulk(val))
	ttl := keys["ttl"]
	p := PathAllocs{
		Get:    measure([]byte("*2\r\n$3\r\nGET\r\n$7\r\nkey:123\r\n"), nil),
		Exists: measure([]byte("*2\r\n$6\r\nEXISTS\r\n$7\r\nkey:123\r\n"), nil),
		Del:    measure([]byte("*2\r\n$3\r\nDEL\r\n$2\r\nzz\r\n"), nil),
		MGet:   measure([]byte("*4\r\n$4\r\nMGET\r\n$2\r\naa\r\n$2\r\nab\r\n$2\r\nzz\r\n"), nil),
		Set:    measure([]byte("*3\r\n$3\r\nSET\r\n$7\r\nkey:123\r\n"+bulk(val)), nil),

		SetexUnarmed: measure(setex, func() { s.db.Persist(ttl) }),
		SetexArmed:   measure(setex, nil),
		SetArmed:     measure([]byte("*3\r\n$3\r\nSET\r\n$3\r\nttl\r\n"+bulk(val)), func() { s.db.Set(ttl, deadline) }),
		DelArmed:     measure([]byte("*2\r\n$3\r\nDEL\r\n$3\r\nttl\r\n"), func() { s.db.StoreDeadline(ttl, val, deadline) }),
	}

	// Engine-only baseline for the same overwrite, to isolate the codec
	// half of SET. Measured on a key the loop above warmed.
	k := keys["key:123"]
	engine := testing.AllocsPerRun(200, func() { s.db.Store(k, val) })
	p.SetCodec = max(p.Set-engine, 0)
	return p, nil
}
