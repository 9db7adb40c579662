package nbtrie

import (
	"strings"
	"testing"
)

// TestSnapshotReadAfterReleasePanics: every read of a released snapshot,
// through each map's snapshot type, panics with a message that names the
// mistake, while Release itself is idempotent and lowers EngineStats'
// SnapshotsHeld once.
func TestSnapshotReadAfterReleasePanics(t *testing.T) {
	m, err := NewMap[int](16)
	if err != nil {
		t.Fatal(err)
	}
	m.Store(1, 1)
	sm := NewStringMap[int]()
	sm.Store([]byte("a"), 1)
	pm := NewSpatialMap[int]()
	pm.Store(1, 2, 1)

	ms, ss, ps := m.Snapshot(), sm.Snapshot(), pm.Snapshot()
	if v, ok := ms.Load(1); !ok || v != 1 {
		t.Fatalf("held snapshot: Load(1) = (%d, %v), want (1, true)", v, ok)
	}
	if h := m.EngineStats().SnapshotsHeld; h != 1 {
		t.Fatalf("Map: %d snapshots held, want 1", h)
	}
	ms.Release()
	ms.Release()
	ss.Release()
	ps.Release()
	for name, held := range map[string]int64{"Map": m.EngineStats().SnapshotsHeld,
		"StringMap": sm.EngineStats().SnapshotsHeld, "SpatialMap": pm.EngineStats().SnapshotsHeld} {
		if held != 0 {
			t.Errorf("%s: %d snapshots held after Release, want 0", name, held)
		}
	}

	reads := map[string]func(){
		"MapSnapshot.Load":            func() { ms.Load(1) },
		"MapSnapshot.Contains":        func() { ms.Contains(1) },
		"MapSnapshot.Len":             func() { ms.Len() },
		"MapSnapshot.All":             func() { ms.All()(func(uint64, int) bool { return true }) },
		"StringMapSnapshot.Load":      func() { ss.Load([]byte("a")) },
		"StringMapSnapshot.Contains":  func() { ss.Contains([]byte("a")) },
		"StringMapSnapshot.All":       func() { ss.All()(func([]byte, int) bool { return true }) },
		"StringMapSnapshot.Ascend":    func() { ss.Ascend([]byte("a"))(func([]byte, int) bool { return true }) },
		"SpatialMapSnapshot.Load":     func() { ps.Load(1, 2) },
		"SpatialMapSnapshot.Contains": func() { ps.Contains(1, 2) },
		"SpatialMapSnapshot.InRect":   func() { ps.InRect(Point{}, Point{X: 9, Y: 9})(func(Point, int) bool { return true }) },
	}
	for name, read := range reads {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "released snapshot") {
					t.Errorf("%s after Release: panic %q, want one naming the released snapshot", name, msg)
				}
			}()
			read()
		}()
	}
}
