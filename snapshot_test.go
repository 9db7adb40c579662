package nbtrie

import (
	"encoding/binary"
	"iter"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"nbtrie/internal/keys"
)

// The snapshot oracle's key universe: key index i names the key
// i*snapStride of each map's key space, so every map iterates in index
// order. Half of it is filled before the writers start, which takes a
// map past 2^12 keys and so past the shortcut table's threshold.
const (
	snapKeys   = 1 << 13
	snapStride = 977
)

// snapKV is one entry a snapshot yielded, its key as a universe index
// (-1 for a key outside the universe).
type snapKV struct{ i, v int }

// snapView is one snapshot's reads, by key index. ascend and rect are
// nil where the map type has no such read.
type snapView struct {
	load     func(i int) (int, bool)
	contains func(i int) bool
	len      func() int
	all      func() []snapKV
	ascend   func(from int) []snapKV
	rect     func() []snapKV
}

// snapCase adapts one public map type to the oracle. inside is the
// rectangle rect reads, by key index.
type snapCase struct {
	name    string
	store   func(i, v int)
	delete  func(i int) bool
	replace func(i, j int) bool
	snap    func() snapView
	inside  func(i int) bool
}

func collectKV[K any](seq iter.Seq2[K, int], idx func(K) int) []snapKV {
	var out []snapKV
	for k, v := range seq {
		out = append(out, snapKV{idx(k), v})
	}
	return out
}

// universeIndex maps a key code back to its index, -1 when it is not one.
func universeIndex(c uint64) int {
	if c%snapStride != 0 || c/snapStride >= snapKeys {
		return -1
	}
	return int(c / snapStride)
}

func snapCases(t *testing.T) []snapCase {
	m, err := NewMap[int](32)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(i int) uint64 { return uint64(i) * snapStride }

	sm := NewStringMap[int]()
	sk := func(i int) []byte { return binary.BigEndian.AppendUint32(nil, uint32(i*snapStride)) }
	sidx := func(b []byte) int {
		if len(b) != 4 {
			return -1
		}
		return universeIndex(uint64(binary.BigEndian.Uint32(b)))
	}

	pm := NewSpatialMap[int]()
	pk := func(i int) Point {
		x, y := keys.Deinterleave2(uint64(i) * snapStride)
		return Point{X: x, Y: y}
	}
	pidx := func(p Point) int { return universeIndex(code(p.X, p.Y)) }
	hi := pk(snapKeys - 1)
	lo, up := Point{X: hi.X / 4, Y: hi.Y / 4}, Point{X: hi.X * 3 / 4, Y: hi.Y * 3 / 4}

	return []snapCase{{
		name:    "Map",
		store:   func(i, v int) { m.Store(mk(i), v) },
		delete:  func(i int) bool { return m.Delete(mk(i)) },
		replace: func(i, j int) bool { return m.ReplaceKey(mk(i), mk(j)) },
		snap: func() snapView {
			s := m.Snapshot()
			idx := func(k uint64) int { return universeIndex(k) }
			return snapView{
				load:     func(i int) (int, bool) { return s.Load(mk(i)) },
				contains: func(i int) bool { return s.Contains(mk(i)) },
				len:      s.Len,
				all:      func() []snapKV { return collectKV(s.All(), idx) },
				ascend:   func(i int) []snapKV { return collectKV(s.Ascend(mk(i)), idx) },
			}
		},
	}, {
		name:    "StringMap",
		store:   func(i, v int) { sm.Store(sk(i), v) },
		delete:  func(i int) bool { return sm.Delete(sk(i)) },
		replace: func(i, j int) bool { return sm.ReplaceKey(sk(i), sk(j)) },
		snap: func() snapView {
			s := sm.Snapshot()
			return snapView{
				load:     func(i int) (int, bool) { return s.Load(sk(i)) },
				contains: func(i int) bool { return s.Contains(sk(i)) },
				len:      s.Len,
				all:      func() []snapKV { return collectKV(s.All(), sidx) },
				ascend:   func(i int) []snapKV { return collectKV(s.Ascend(sk(i)), sidx) },
			}
		},
	}, {
		name:    "SpatialMap",
		store:   func(i, v int) { p := pk(i); pm.Store(p.X, p.Y, v) },
		delete:  func(i int) bool { p := pk(i); return pm.Delete(p.X, p.Y) },
		replace: func(i, j int) bool { return pm.Move(pk(i), pk(j)) },
		snap: func() snapView {
			s := pm.Snapshot()
			return snapView{
				load:     func(i int) (int, bool) { p := pk(i); return s.Load(p.X, p.Y) },
				contains: func(i int) bool { p := pk(i); return s.Contains(p.X, p.Y) },
				len:      s.Len,
				all:      func() []snapKV { return collectKV(s.All(), pidx) },
				rect:     func() []snapKV { return collectKV(s.InRect(lo, up), pidx) },
			}
		},
		inside: func(i int) bool {
			p := pk(i)
			return p.X >= lo.X && p.X <= up.X && p.Y >= lo.Y && p.Y <= up.Y
		},
	}}
}

// snapChange is one key's state after a write: absent, or bound to v.
type snapChange struct {
	i, v    int
	present bool
}

// snapEffect is what one write did to the writer's keys.
type snapEffect struct {
	n  int
	ch [2]snapChange
}

// snapState is the map's contents by key index, -1 for an absent key.
type snapState []int

func (st snapState) apply(e snapEffect) {
	for _, ch := range e.ch[:e.n] {
		if ch.present {
			st[ch.i] = ch.v
		} else {
			st[ch.i] = -1
		}
	}
}

// TestSnapshotMatchesModelUnderWriters is the public snapshot oracle,
// over Map, StringMap and SpatialMap. Four writers own the key indices
// congruent to their number mod 4 and overwrite, delete, insert and
// ReplaceKey (Move) among them, logging each write's effect before they
// make it. They write in rounds; each round a snapshot is taken once
// they are half-way through it, and read while they finish it. A write
// done before Snapshot was called must be in the snapshot, and one not
// started when it returned must not, so for each writer the snapshot's
// Loads must match the writer's keys after some count of its writes in
// between. Those states, one per writer, are the model of the map at the
// snapshot point, and every other read must equal it: Contains on every
// index, Len, All, Ascend from the midpoint of the universe, and InRect
// for the spatial map.
func TestSnapshotMatchesModelUnderWriters(t *testing.T) {
	const writers, rounds = 4, 8
	per := 250 // writes per writer per round
	if testing.Short() {
		per = 50
	}
	ops := rounds * per
	for _, c := range snapCases(t) {
		t.Run(c.name, func(t *testing.T) {
			base := make(snapState, snapKeys)
			for i := range base {
				base[i] = -1
				if i%2 == 0 {
					c.store(i, i)
					base[i] = i
				}
			}
			var (
				logs          [writers][]snapEffect
				started, done [writers]atomic.Int64
				live          = slices.Clone(base) // each writer's keys as it left them
				wg            sync.WaitGroup
			)
			gates := make([]chan struct{}, rounds) // closed as each round opens
			for r := range gates {
				gates[r] = make(chan struct{})
			}
			opened := 0
			defer func() { // a failed check must not leave the writers parked
				for ; opened < rounds; opened++ {
					close(gates[opened])
				}
				wg.Wait()
			}()
			for w := range writers {
				logs[w] = make([]snapEffect, ops)
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewPCG(uint64(w), 7))
					key := func() int { return rng.IntN(snapKeys/writers)*writers + w }
					for j := range ops {
						if j%per == 0 {
							<-gates[j/per]
						}
						i, v := key(), (w+1)<<20|j
						var e snapEffect
						var write func() bool
						want := true
						switch r := rng.IntN(10); {
						case r < 3:
							e = snapEffect{n: 1, ch: [2]snapChange{{i, v, true}}}
							write = func() bool { c.store(i, v); return true }
						case r < 5:
							if want = live[i] >= 0; want {
								e = snapEffect{n: 1, ch: [2]snapChange{{i: i}}}
							}
							write = func() bool { return c.delete(i) }
						default:
							k := key()
							if want = live[i] >= 0 && live[k] < 0; want {
								e = snapEffect{n: 2, ch: [2]snapChange{{i: i}, {k, live[i], true}}}
							}
							write = func() bool { return c.replace(i, k) }
						}
						logs[w][j] = e
						started[w].Store(int64(j + 1))
						if got := write(); got != want {
							t.Errorf("writer %d, write %d: reported %v, want %v", w, j, got, want)
						}
						done[w].Store(int64(j + 1))
						live.apply(e)
					}
				}()
			}

			// cut checks the snapshot s, taken after each writer w had done
			// lo[w] writes and before it started write hi[w]+1.
			cut := func(r int, s snapView, lo, hi [writers]int) {
				model := slices.Clone(base)
				for w := range writers {
					if !matchWriter(s, model, logs[w][:hi[w]], w, writers, lo[w]) {
						t.Fatalf("snapshot %d: writer %d's keys match its state after none of its writes %d to %d", r, w, lo[w], hi[w])
					}
				}
				checkSnapView(t, r, c, s, model)
			}
			for r := range rounds {
				close(gates[r])
				opened = r + 1
				for half := r*per + per/2; ; runtime.Gosched() {
					var n int64
					for w := range writers {
						n += min(done[w].Load(), int64(half))
					}
					if n == writers*int64(half) {
						break
					}
				}
				var lo, hi [writers]int
				for w := range writers {
					lo[w] = int(done[w].Load())
				}
				s := c.snap()
				for w := range writers {
					hi[w] = int(started[w].Load())
				}
				cut(r, s, lo, hi)
			}
			wg.Wait()
			var all [writers]int
			for w := range all {
				all[w] = ops
			}
			cut(rounds, c.snap(), all, all)
		})
	}
}

// matchWriter advances writer w's keys in st, which start as they were
// before its writes, to the state after between lo and len(log) of them
// that the snapshot's Loads show, and reports whether there was one.
func matchWriter(s snapView, st snapState, log []snapEffect, w, writers, lo int) bool {
	for _, e := range log[:lo] {
		st.apply(e)
	}
	seen := make(snapState, len(st))
	off := 0 // w's keys where st and the snapshot differ
	for i := w; i < len(st); i += writers {
		seen[i] = -1
		if v, ok := s.load(i); ok {
			seen[i] = v
		}
		if st[i] != seen[i] {
			off++
		}
	}
	for _, e := range log[lo:] {
		if off == 0 {
			return true
		}
		for _, ch := range e.ch[:e.n] {
			if st[ch.i] != seen[ch.i] {
				off--
			}
		}
		st.apply(e)
		for _, ch := range e.ch[:e.n] {
			if st[ch.i] != seen[ch.i] {
				off++
			}
		}
	}
	return off == 0
}

// checkSnapView checks every read of s but Load against model.
func checkSnapView(t *testing.T, n int, c snapCase, s snapView, model snapState) {
	t.Helper()
	size := 0
	for i, v := range model {
		if ok := v >= 0; s.contains(i) != ok {
			t.Fatalf("snapshot %d: Contains(key %d) = %v, want %v", n, i, !ok, ok)
		}
		if v >= 0 {
			size++
		}
	}
	if got := s.len(); got != size {
		t.Errorf("snapshot %d: Len = %d, want %d", n, got, size)
	}
	entries := func(keep func(i int) bool) []snapKV {
		var out []snapKV
		for i, v := range model {
			if v >= 0 && keep(i) {
				out = append(out, snapKV{i, v})
			}
		}
		return out
	}
	check := func(what string, got, want []snapKV) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("snapshot %d: %s yields %d entries, want %d (first difference at %d)", n, what, len(got), len(want), firstDiff(got, want))
		}
	}
	check("All", s.all(), entries(func(int) bool { return true }))
	if s.ascend != nil {
		const mid = snapKeys/2 + 1
		check("Ascend from the midpoint", s.ascend(mid), entries(func(i int) bool { return i >= mid }))
	}
	if s.rect != nil {
		check("InRect", s.rect(), entries(c.inside))
	}
}

func firstDiff(a, b []snapKV) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
