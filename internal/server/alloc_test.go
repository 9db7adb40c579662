package server

import (
	"bufio"
	"bytes"
	"math"
	"runtime"
	"testing"

	"nbtrie/internal/persist"
	"nbtrie/internal/resp"
)

// Steady-state allocation pins for the full server dispatch path (wire
// parse → dispatch → reply encode), the server half of the resp-layer
// pins in internal/resp/alloc_test.go, held exactly. GET/EXISTS/DEL/MGET
// allocate nothing, and neither does SET's codec share: dispatch copies
// nothing out of the connection arena, because the keyspace's leaf copies
// the value into itself. Every write is the engine's own cost, keyspace
// included: an overwrite is one leaf (its value inline), the Flag
// descriptor and the fresh Unflag, 3, and the deadline lives in the leaf,
// so a SETEX or a SET over an armed key costs what a plain SET costs; a
// delete is the descriptor and the Unflag, 2. The AOF record allocates
// nothing. The subtest is named for the dispatch path it covers: every
// command runs on its connection's goroutine.
func TestServerPathAllocPins(t *testing.T) {
	t.Run("conn", serverPathAllocPins)
}

func serverPathAllocPins(t *testing.T) {
	p, err := MeasureServerPathAllocs(64)
	if err != nil {
		t.Fatal(err)
	}
	pins := []struct {
		op   string
		got  float64
		want float64
	}{
		{"GET", p.Get, 0},
		{"EXISTS", p.Exists, 0},
		{"DEL", p.Del, 0},
		{"MGET", p.MGet, 0},
		{"SET", p.Set, 3},
		{"SET codec", p.SetCodec, 0},
		{"SETEX, unarmed key", p.SetexUnarmed, 3},
		{"SETEX, armed key", p.SetexArmed, 3},
		{"SET, armed key", p.SetArmed, 3},
		{"DEL, armed key", p.DelArmed, 2},
	}
	for _, pin := range pins {
		if pin.got != pin.want {
			t.Errorf("%s: %.1f allocs/op on the server path, pinned at %.0f", pin.op, pin.got, pin.want)
		}
	}
	t.Logf("get=%.1f exists=%.1f del=%.1f mget=%.1f set=%.1f set_codec=%.1f",
		p.Get, p.Exists, p.Del, p.MGet, p.Set, p.SetCodec)
	t.Logf("setex_unarmed=%.2f setex_armed=%.2f set_armed=%.2f del_armed=%.2f",
		p.SetexUnarmed, p.SetexArmed, p.SetArmed, p.DelArmed)
}

// TestRecoveryAllocPins: recovery copies nothing the keyspace copies. A
// replayed AOF SET record that overwrites a key costs what the engine's
// overwrite costs, 3 allocations (the leaf with its value inline, the
// Flag descriptor and the Unflag): the segment is parsed into one reused
// arena, and the leaf copies the value out of it. A dump record costs the
// same, read into one reused scratch buffer. Each count is the difference
// between loading 2n and n records, so the readers' own set-up cancels.
func TestRecoveryAllocPins(t *testing.T) {
	s, err := New(Config{Clock: func() int64 { return probeNowMS }})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p := &persister{s: s}
	val := bytes.Repeat([]byte{'v'}, 64)
	aof := func(n int) []byte {
		var buf bytes.Buffer
		w := resp.NewWriter(bufio.NewWriter(&buf))
		for i := 0; i < n; i++ {
			w.WriteCommand(recSET, []byte("key:1"), val)
		}
		w.Flush()
		return buf.Bytes()
	}
	dump := func(n int) []byte {
		var buf bytes.Buffer
		err := persist.WriteDump(&buf, func(fn func(k, v []byte, expireAtMS uint64) bool) {
			for i := 0; i < n; i++ {
				fn([]byte("key:1"), val, 0)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	replay := func(b []byte) error {
		_, _, err := persist.Replay(bytes.NewReader(b), s.cfg.Limits, p.applyRecord)
		return err
	}
	load := func(b []byte) error {
		return persist.ReadDump(bytes.NewReader(b), s.cfg.Limits.MaxBulkLen, p.loadEntry)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	mallocs := func(read func([]byte) error, b []byte) uint64 {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := read(b); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	const n = 1000
	for _, c := range []struct {
		name    string
		read    func([]byte) error
		records func(int) []byte
	}{{"replayed SET record", replay, aof}, {"dump record", load, dump}} {
		one, two := c.records(n), c.records(2*n)
		c.read(one) // key:1 present: every record below is an overwrite
		// Rounded, as testing.AllocsPerRun truncates: a stray runtime
		// allocation in either pass (the race detector makes some) moves
		// the quotient by 1/n.
		per := float64(int64(mallocs(c.read, two))-int64(mallocs(c.read, one))) / n
		if math.Round(per) != 3 {
			t.Errorf("a %s overwriting a key allocates %.3f/record, want the engine's 3", c.name, per)
		}
	}
	if v, ok := s.db.Load(mustEncode(t, "key:1")); !ok || !bytes.Equal(v, val) {
		t.Fatalf("key:1 = %q, %v after recovery", v, ok)
	}
}
