package server

import (
	"testing"
)

// Steady-state allocation pins for the full server dispatch path (wire
// parse → dispatch → reply encode), the server half of the resp-layer
// pins in internal/resp/alloc_test.go. The acceptance bars from the
// perf issue: GET/EXISTS/DEL/MGET at 0 allocs/op, SET's codec share at
// ≤ 1 (the value's copy out of the connection arena); the engine's own
// store-path allocations are pinned separately by the library
// artifacts. The TTL write paths are pinned whole, keyspace included:
// the deadline lives in the leaf, so a SETEX or a SET over an armed key
// is the value's copy and one leaf Swap, what a plain SET costs, and the
// AOF record allocates nothing. The subtest is named for the dispatch
// path it covers: every command runs on its connection's goroutine.
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
		{"SET codec", p.SetCodec, 1},
		{"SETEX, unarmed key", p.SetexUnarmed, 4},
		{"SETEX, armed key", p.SetexArmed, 4},
		{"SET, armed key", p.SetArmed, 4},
		{"DEL, armed key", p.DelArmed, 2},
	}
	for _, pin := range pins {
		if pin.got > pin.want {
			t.Errorf("%s: %.1f allocs/op on the server path, pinned at %.0f", pin.op, pin.got, pin.want)
		}
	}
	// The full SET path must be exactly codec + engine: if this
	// grows, something beyond the store and the one Detach crept in.
	if p.Set < p.SetCodec {
		t.Errorf("full SET %.1f below its codec share %.1f — probe broken", p.Set, p.SetCodec)
	}
	t.Logf("get=%.1f exists=%.1f del=%.1f mget=%.1f set=%.1f set_codec=%.1f",
		p.Get, p.Exists, p.Del, p.MGet, p.Set, p.SetCodec)
	t.Logf("setex_unarmed=%.2f setex_armed=%.2f set_armed=%.2f del_armed=%.2f",
		p.SetexUnarmed, p.SetexArmed, p.SetArmed, p.DelArmed)
}
