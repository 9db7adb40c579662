package nbtrie

import (
	"math/rand"
	"testing"

	"nbtrie/internal/keys"
	"nbtrie/internal/settest"
)

// spatialMapAdapter drives SpatialMap[uint64] through the settest map
// battery: the uint64 key deinterleaves into plane coordinates, so the
// whole coordinate API — including Move as ReplaceKey — gets the
// sequential-oracle, race and linearizability checking the other map
// implementations get. Together with TestMapConformance and
// TestStringMapConformance (map_test.go), every map-capable
// implementation in the repository passes settest.RunMap.
type spatialMapAdapter struct {
	m *SpatialMap[uint64]
}

func sxy(k uint64) (uint32, uint32) { return keys.Deinterleave2(k) }

func (a spatialMapAdapter) Load(k uint64) (uint64, bool) {
	x, y := sxy(k)
	return a.m.Load(x, y)
}
func (a spatialMapAdapter) Store(k, v uint64) bool {
	x, y := sxy(k)
	a.m.Store(x, y, v)
	return true
}
func (a spatialMapAdapter) LoadOrStore(k, v uint64) (uint64, bool) {
	x, y := sxy(k)
	return a.m.LoadOrStore(x, y, v)
}
func (a spatialMapAdapter) Delete(k uint64) bool {
	x, y := sxy(k)
	return a.m.Delete(x, y)
}
func (a spatialMapAdapter) CompareAndSwap(k, old, new uint64) bool {
	x, y := sxy(k)
	return a.m.CompareAndSwap(x, y, old, new)
}
func (a spatialMapAdapter) CompareAndDelete(k, old uint64) bool {
	x, y := sxy(k)
	return a.m.CompareAndDelete(x, y, old)
}
func (a spatialMapAdapter) ReplaceKey(old, new uint64) bool {
	ox, oy := sxy(old)
	nx, ny := sxy(new)
	return a.m.Move(Point{X: ox, Y: oy}, Point{X: nx, Y: ny})
}

func TestSpatialMapConformance(t *testing.T) {
	settest.RunMap(t, func(uint64) settest.Map {
		return spatialMapAdapter{NewSpatialMap[uint64]()}
	})
}

func TestSpatialMapBasics(t *testing.T) {
	m := NewSpatialMap[string]()
	m.Store(10, 20, "truck")
	if v, ok := m.Load(10, 20); !ok || v != "truck" {
		t.Errorf("Load = %q,%v", v, ok)
	}
	if m.Contains(20, 10) {
		t.Error("transposed point must be distinct")
	}
	if !m.Move(Point{10, 20}, Point{11, 20}) {
		t.Error("Move failed")
	}
	if v, ok := m.Load(11, 20); !ok || v != "truck" {
		t.Errorf("value did not travel with Move: %q,%v", v, ok)
	}
	if m.Contains(10, 20) {
		t.Error("old position survived Move")
	}
	if m.Move(Point{11, 20}, Point{11, 20}) {
		t.Error("Move onto itself must fail")
	}
	if m.Len() != 1 {
		t.Errorf("Len = %d", m.Len())
	}
	if err := m.Validate(); err != nil {
		t.Error(err)
	}
}

func TestSpatialMapIterators(t *testing.T) {
	m := NewSpatialMap[int]()
	pts := []Point{{1, 1}, {2, 5}, {5, 2}, {6, 6}, {100, 100}}
	for i, p := range pts {
		m.Store(p.X, p.Y, i)
	}

	seen := map[Point]int{}
	for p, v := range m.All() {
		seen[p] = v
	}
	if len(seen) != len(pts) {
		t.Fatalf("All() yielded %d points, want %d", len(seen), len(pts))
	}
	for i, p := range pts {
		if seen[p] != i {
			t.Errorf("All()[%v] = %d, want %d", p, seen[p], i)
		}
	}

	// InRect [1,6]x[1,6] excludes only (100,100).
	n := 0
	for p, v := range m.InRect(Point{1, 1}, Point{6, 6}) {
		if p.X > 6 || p.Y > 6 {
			t.Errorf("InRect yielded out-of-rect point %v", p)
		}
		if v < 0 || v > 3 {
			t.Errorf("InRect yielded wrong value %d for %v", v, p)
		}
		n++
	}
	if n != 4 {
		t.Errorf("InRect yielded %d points, want 4", n)
	}

	// Single-cell rectangle.
	n = 0
	for p := range m.InRect(Point{2, 5}, Point{2, 5}) {
		if (p != Point{2, 5}) {
			t.Errorf("point rect yielded %v", p)
		}
		n++
	}
	if n != 1 {
		t.Errorf("point rect yielded %d points", n)
	}

	// Inverted rectangle is empty; early break stops the walk.
	for p := range m.InRect(Point{6, 6}, Point{1, 1}) {
		t.Errorf("inverted rect yielded %v", p)
	}
	n = 0
	for range m.All() {
		n++
		break
	}
	if n != 1 {
		t.Errorf("break after first yield, saw %d", n)
	}
}

// TestSpatialMapReadPathDoesNotAllocate extends the wait-free-read pins
// to the Morton instantiation at the public surface.
func TestSpatialMapReadPathDoesNotAllocate(t *testing.T) {
	m := NewSpatialMap[int]()
	for x := uint32(0); x < 32; x++ {
		for y := uint32(0); y < 32; y++ {
			m.Store(x, y, int(x*32+y))
		}
	}
	if n := testing.AllocsPerRun(500, func() {
		if v, ok := m.Load(7, 9); !ok || v != 7*32+9 {
			t.Fatal("Load(7,9) wrong")
		}
		if !m.Contains(3, 3) || m.Contains(77, 77) {
			t.Fatal("Contains wrong")
		}
	}); n != 0 {
		t.Errorf("SpatialMap read path allocates %v objects per call, want 0", n)
	}
}

// TestInRectOracle cross-checks InRect against a brute-force filter over
// random point sets and random rectangles, including degenerate and
// empty rectangles.
func TestInRectOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := NewSpatialMap[int]()
	pts := make(map[Point]int)
	for i := 0; i < 400; i++ {
		p := Point{uint32(rng.Intn(64)), uint32(rng.Intn(64))}
		pts[p] = i
		m.Store(p.X, p.Y, i)
	}
	for trial := 0; trial < 200; trial++ {
		x1, x2 := uint32(rng.Intn(70)), uint32(rng.Intn(70))
		y1, y2 := uint32(rng.Intn(70)), uint32(rng.Intn(70))
		lo, hi := Point{min(x1, x2), min(y1, y2)}, Point{max(x1, x2), max(y1, y2)}
		want := map[Point]int{}
		for p, v := range pts {
			if p.X >= lo.X && p.X <= hi.X && p.Y >= lo.Y && p.Y <= hi.Y {
				want[p] = v
			}
		}
		got := map[Point]int{}
		var lastM uint64
		first := true
		for p, v := range m.InRect(lo, hi) {
			z := keys.Interleave2(p.X, p.Y)
			if !first && z <= lastM {
				t.Fatalf("InRect out of Z-order: %d after %d", z, lastM)
			}
			first, lastM = false, z
			got[p] = v
		}
		if len(got) != len(want) {
			t.Fatalf("rect %v-%v: got %d points, want %d", lo, hi, len(got), len(want))
		}
		for p, v := range want {
			if got[p] != v {
				t.Fatalf("rect %v-%v: point %v = %d, want %d", lo, hi, p, got[p], v)
			}
		}
	}

	// Inverted (empty) rectangles yield nothing.
	for p := range m.InRect(Point{10, 10}, Point{5, 20}) {
		t.Errorf("empty rect yielded %v", p)
	}

	// Early stop.
	n := 0
	for range m.InRect(Point{0, 0}, Point{63, 63}) {
		n++
		break
	}
	if n != 1 {
		t.Errorf("early stop visited %d points", n)
	}
}
