package nbtrie

import (
	"iter"
	"math"

	"nbtrie/internal/keys"
	"nbtrie/internal/kv"
)

// Point is a position in the 2^32 × 2^32 integer plane indexed by
// SpatialMap.
type Point struct {
	X, Y uint32
}

// SpatialMap is a linearizable concurrent spatial index: a map from
// points in the plane to values of type V, backed by the Morton-keyed
// instantiation of the same non-blocking Patricia-trie engine as Map
// and StringMap. Points are keyed by their Z-order (bit-interleaved)
// Morton codes, which makes the trie a quadtree-like index: nearby
// points share long key prefixes, and axis-aligned rectangle queries
// become pruned range scans over one code interval.
//
// Load and Contains are wait-free and allocation-free (Morton keys are
// fixed 65-bit strings, so the fixed-width read guarantee carries
// over); every mutation is lock-free. Move is the paper's atomic
// Replace on Z-order keys — the exact GIS scenario the paper motivates
// Replace with: relocating an object is one linearizable step, so
// concurrent readers never observe it at two positions or at none.
//
// CompareAndSwap and CompareAndDelete compare values with Go's ==, like
// sync.Map: they panic if the values are not comparable.
type SpatialMap[V any] struct {
	t *kv.Morton[V]
}

// NewSpatialMap returns an empty spatial map covering the full
// uint32 × uint32 plane (no width parameter: the Morton key space is
// fixed at 64 bits).
func NewSpatialMap[V any]() *SpatialMap[V] {
	return &SpatialMap[V]{t: kv.NewMorton[V]()}
}

// code returns the Morton (Z-order) code of (x, y), the key a point is
// stored under: bit i of x lands at bit 2i and bit i of y at bit 2i+1.
func code(x, y uint32) uint64 { return keys.Interleave2(x, y) }

// Load returns the value stored at (x, y). Wait-free: a bounded number
// of child-pointer reads, no CAS, no allocation.
func (m *SpatialMap[V]) Load(x, y uint32) (V, bool) { return m.t.Load(code(x, y)) }

// Store binds (x, y) to val, inserting or overwriting (lock-free
// upsert).
func (m *SpatialMap[V]) Store(x, y uint32, val V) { m.t.Store(code(x, y), val) }

// LoadOrStore returns the value at (x, y) if present (loaded true);
// otherwise it stores val and returns it (loaded false).
func (m *SpatialMap[V]) LoadOrStore(x, y uint32, val V) (actual V, loaded bool) {
	actual, loaded, _ = m.t.LoadOrStore(code(x, y), val)
	return actual, loaded
}

// Delete removes the point at (x, y); false iff nothing was stored
// there.
func (m *SpatialMap[V]) Delete(x, y uint32) bool { return m.t.Delete(code(x, y)) }

// Contains reports whether a point is stored at (x, y), wait-free and
// without allocating.
func (m *SpatialMap[V]) Contains(x, y uint32) bool { return m.t.Contains(code(x, y)) }

// CompareAndSwap swaps the value at (x, y) from old to new if the stored
// value equals old (==; panics if the values are not comparable).
func (m *SpatialMap[V]) CompareAndSwap(x, y uint32, old, new V) bool {
	return m.t.CompareAndSwap(code(x, y), old, new)
}

// CompareAndDelete removes the point at (x, y) if its value equals old
// (==; panics if the values are not comparable).
func (m *SpatialMap[V]) CompareAndDelete(x, y uint32, old V) bool {
	return m.t.CompareAndDelete(code(x, y), old)
}

// Move atomically relocates the point at old to new, carrying its
// value: both the removal and the insertion become visible at a single
// linearization point. It returns true iff old held a point, new was
// free and the positions differ; otherwise the map is unchanged. This is
// the paper's Replace operation lifted to the plane.
func (m *SpatialMap[V]) Move(old, new Point) bool {
	return m.t.Replace(code(old.X, old.Y), code(new.X, new.Y))
}

// Len returns the number of stored points, read from an atomic counter:
// O(1), allocation-free, exact at quiescence, and at most the number of
// in-flight mutations stale under concurrency (see Map.Len).
func (m *SpatialMap[V]) Len() int { return m.t.Len() }

// All iterates over every stored point in Z-order (Morton-code order).
// The sequence is read-only and safe under concurrent updates: points
// present for the whole iteration are always yielded, concurrent changes
// may or may not be observed (the Range contract as a Go iterator).
func (m *SpatialMap[V]) All() iter.Seq2[Point, V] {
	return inRect(m.t.AscendKV, Point{}, Point{X: math.MaxUint32, Y: math.MaxUint32})
}

// InRect iterates over the stored points inside the axis-aligned
// rectangle [min.X, max.X] × [min.Y, max.Y] (inclusive), in Z-order. An
// empty rectangle (min exceeding max on either axis) yields nothing.
// The walk scans one Morton-code interval with subtree pruning and
// filters out the interval's out-of-rectangle points; same consistency
// contract as All.
func (m *SpatialMap[V]) InRect(min, max Point) iter.Seq2[Point, V] {
	return inRect(m.t.AscendKV, min, max)
}

// inRect is the rectangle scan of SpatialMap and SpatialMapSnapshot over
// ascend, a Z-order walk from a given Morton code. It uses the standard
// Z-order range property: every point of the rectangle has a code in
// [code(min), code(max)], so one pruned ascent over that interval
// suffices, with a coordinate filter dropping the interval's
// out-of-rectangle points. (The scan may therefore visit Z-interval
// points outside the rectangle; a BIGMIN-style skip would tighten that,
// at the cost of considerably hairier code.)
func inRect[V any](ascend func(from uint64, fn func(m uint64, val V) bool), min, max Point) iter.Seq2[Point, V] {
	return func(yield func(Point, V) bool) {
		if min.X > max.X || min.Y > max.Y {
			return
		}
		zMax := code(max.X, max.Y)
		ascend(code(min.X, min.Y), func(m uint64, val V) bool {
			x, y := keys.Deinterleave2(m)
			switch {
			case m > zMax:
				return false // past the rectangle's Z-interval: stop the walk
			case x < min.X || x > max.X || y < min.Y || y > max.Y:
				return true // inside the Z-interval but outside the rectangle
			}
			return yield(Point{X: x, Y: y}, val)
		})
	}
}

// Validate checks the structural invariants (tests/diagnostics;
// quiescent use only).
func (m *SpatialMap[V]) Validate() error { return m.t.Validate() }
