package nbtrie

import (
	"iter"
	"math"

	"nbtrie/internal/kv"
)

// O(1) point-in-time snapshots, surfaced from the engine's
// generation-stamp protocol (DESIGN.md §9). A snapshot is a frozen,
// read-only view of a map at one instant: taking it costs O(1) time and
// allocation regardless of map size, reading
// it never blocks or is blocked by live-map updates, and iterating it is
// a true consistent cut — unlike the live maps' All/Ascend, which only
// promise best-effort consistency under concurrent mutation.
//
// Snapshots share structure with the live map; memory for the shared
// parts is reclaimed by the garbage collector once both the snapshot and
// the live map have let go of them. Call Release when done reading:
// while a snapshot is held, every update copies the not-yet-copied
// nodes on its path, and only a released snapshot stops that tax. A
// snapshot that is dropped without Release stays counted as held.
// Reading a snapshot after its Release panics.

// MapSnapshot is a frozen point-in-time view of a Map.
type MapSnapshot[V any] struct {
	s *kv.U64Snapshot[V]
}

// Snapshot returns a read-only view of the map at the moment of the
// call, in O(1) time and allocation independent of the map's size. The
// call briefly quiesces mutators: it waits for in-flight operations to
// finish — a bound set by individual operations, not by map size, though
// a mutator descheduled mid-operation stretches it — and mutators that
// start meanwhile wait for it. Snapshot is the one blocking operation;
// readers never wait. Afterwards mutators copy-on-write diverged paths
// and the snapshot stays frozen, until Release.
func (m *Map[V]) Snapshot() *MapSnapshot[V] {
	return &MapSnapshot[V]{s: m.t.Snapshot()}
}

// Load returns the value bound to k at the snapshot point. Wait-free,
// allocation-free, like Map.Load.
func (s *MapSnapshot[V]) Load(k uint64) (V, bool) { return s.s.Load(k) }

// Contains reports whether k had a binding at the snapshot point.
func (s *MapSnapshot[V]) Contains(k uint64) bool { return s.s.Contains(k) }

// Len returns the number of entries at the snapshot point. Exact: the
// count is captured with no mutation in flight.
func (s *MapSnapshot[V]) Len() int { return s.s.Len() }

// Release ends the snapshot: updates stop copying nodes for it once no
// other snapshot of the map is held, and any later read of it panics.
// Idempotent.
func (s *MapSnapshot[V]) Release() { s.s.Release() }

// All iterates over the snapshot's entries in increasing key order — a
// consistent cut, unlike Map.All.
func (s *MapSnapshot[V]) All() iter.Seq2[uint64, V] { return s.Ascend(0) }

// Ascend iterates over the snapshot's entries with key >= from, in
// increasing key order.
func (s *MapSnapshot[V]) Ascend(from uint64) iter.Seq2[uint64, V] {
	return func(yield func(uint64, V) bool) {
		s.s.AscendKV(from, yield)
	}
}

// StringMapSnapshot is a frozen point-in-time view of a StringMap.
type StringMapSnapshot[V any] struct {
	s *kv.StringSnapshot[V]
}

// Snapshot returns a read-only view of the map at the moment of the
// call, in O(1) time and allocation independent of the map's size (see
// Map.Snapshot for the contract).
func (m *StringMap[V]) Snapshot() *StringMapSnapshot[V] {
	return &StringMapSnapshot[V]{s: m.t.Snapshot()}
}

// Load returns the value bound to k at the snapshot point.
func (s *StringMapSnapshot[V]) Load(k []byte) (V, bool) { return s.s.Load(k) }

// Contains reports whether k had a binding at the snapshot point.
func (s *StringMapSnapshot[V]) Contains(k []byte) bool { return s.s.Contains(k) }

// Len returns the number of entries at the snapshot point (exact).
func (s *StringMapSnapshot[V]) Len() int { return s.s.Len() }

// Release ends the snapshot (see MapSnapshot.Release).
func (s *StringMapSnapshot[V]) Release() { s.s.Release() }

// All iterates over the snapshot's entries in encoded-key order — a
// consistent cut, unlike StringMap.All.
func (s *StringMapSnapshot[V]) All() iter.Seq2[[]byte, V] {
	return func(yield func([]byte, V) bool) {
		s.s.AllKV(yield)
	}
}

// Ascend iterates over the snapshot's entries whose key sorts at or
// after from in encoded-key order; from must be non-empty.
func (s *StringMapSnapshot[V]) Ascend(from []byte) iter.Seq2[[]byte, V] {
	return func(yield func([]byte, V) bool) {
		s.s.AscendKV(from, yield)
	}
}

// SpatialMapSnapshot is a frozen point-in-time view of a SpatialMap.
type SpatialMapSnapshot[V any] struct {
	s *kv.MortonSnapshot[V]
}

// Snapshot returns a read-only view of the spatial map at the moment of
// the call, in O(1) time and allocation independent of the map's size
// (see Map.Snapshot for the contract). Because the view is frozen, a
// rectangle query over it never observes a concurrently Moved point at
// two positions or at none — the live map already guarantees that per
// lookup, the snapshot extends it to whole scans.
func (m *SpatialMap[V]) Snapshot() *SpatialMapSnapshot[V] {
	return &SpatialMapSnapshot[V]{s: m.t.Snapshot()}
}

// Load returns the value stored at (x, y) at the snapshot point.
func (s *SpatialMapSnapshot[V]) Load(x, y uint32) (V, bool) { return s.s.Load(code(x, y)) }

// Contains reports whether a point was stored at (x, y) at the snapshot
// point.
func (s *SpatialMapSnapshot[V]) Contains(x, y uint32) bool { return s.s.Contains(code(x, y)) }

// Len returns the number of stored points at the snapshot point (exact).
func (s *SpatialMapSnapshot[V]) Len() int { return s.s.Len() }

// Release ends the snapshot (see MapSnapshot.Release).
func (s *SpatialMapSnapshot[V]) Release() { s.s.Release() }

// All iterates over the snapshot's points in Z-order — a consistent
// cut, unlike SpatialMap.All.
func (s *SpatialMapSnapshot[V]) All() iter.Seq2[Point, V] {
	return inRect(s.s.AscendKV, Point{}, Point{X: math.MaxUint32, Y: math.MaxUint32})
}

// InRect iterates over the snapshot's points inside the axis-aligned
// rectangle [min.X, max.X] × [min.Y, max.Y] (inclusive), in Z-order.
func (s *SpatialMapSnapshot[V]) InRect(min, max Point) iter.Seq2[Point, V] {
	return inRect(s.s.AscendKV, min, max)
}
