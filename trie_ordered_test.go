package nbtrie

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"nbtrie/internal/engine"
	"nbtrie/internal/keys"
)

func TestOrderedQueriesBasic(t *testing.T) {
	tr := mustNew(t, 8)
	if _, ok := tr.Min(); ok {
		t.Error("Min on empty trie should report absent")
	}
	if _, ok := tr.Max(); ok {
		t.Error("Max on empty trie should report absent")
	}
	for _, k := range []uint64{10, 200, 55} {
		tr.Insert(k)
	}
	if k, ok := tr.Min(); !ok || k != 10 {
		t.Errorf("Min = %d,%v want 10", k, ok)
	}
	if k, ok := tr.Max(); !ok || k != 200 {
		t.Errorf("Max = %d,%v want 200", k, ok)
	}
	if k, ok := tr.Ceiling(11); !ok || k != 55 {
		t.Errorf("Ceiling(11) = %d,%v want 55", k, ok)
	}
	if k, ok := tr.Ceiling(55); !ok || k != 55 {
		t.Errorf("Ceiling(55) = %d,%v want 55", k, ok)
	}
	if _, ok := tr.Ceiling(201); ok {
		t.Error("Ceiling(201) should be absent")
	}
	if k, ok := tr.Floor(54); !ok || k != 10 {
		t.Errorf("Floor(54) = %d,%v want 10", k, ok)
	}
	if k, ok := tr.Floor(255); !ok || k != 200 {
		t.Errorf("Floor(255) = %d,%v want 200", k, ok)
	}
	if _, ok := tr.Floor(9); ok {
		t.Error("Floor(9) should be absent")
	}
}

func TestOrderedQueriesBoundaryWidths(t *testing.T) {
	// Extreme widths: 1-bit space {0,1} and the full 63-bit space.
	tr1 := mustNew(t, 1)
	tr1.Insert(0)
	tr1.Insert(1)
	if k, ok := tr1.Min(); !ok || k != 0 {
		t.Errorf("width1 Min = %d,%v", k, ok)
	}
	if k, ok := tr1.Max(); !ok || k != 1 {
		t.Errorf("width1 Max = %d,%v", k, ok)
	}

	tr63 := mustNew(t, 63)
	big := uint64(1)<<63 - 1
	tr63.Insert(0)
	tr63.Insert(big)
	if k, ok := tr63.Max(); !ok || k != big {
		t.Errorf("width63 Max = %d,%v", k, ok)
	}
	if k, ok := tr63.Ceiling(1); !ok || k != big {
		t.Errorf("width63 Ceiling(1) = %d,%v", k, ok)
	}
}

// TestOrderedQueriesOracle checks Ceiling, Floor and AscendKV against a
// sorted oracle on a binary trie and span-4 and span-6 tries. The wide
// layouts have empty slots, which both walk directions must step over,
// and partial bottom digits (width 10 is a multiple of neither span).
func TestOrderedQueriesOracle(t *testing.T) {
	for _, c := range []struct {
		name string
		opts []engine.Option[keys.Uint64Key, any]
	}{
		{"span 1", nil},
		{"span 4", []engine.Option[keys.Uint64Key, any]{engine.WithSpan[keys.Uint64Key, any](4)}},
		{"span 6", []engine.Option[keys.Uint64Key, any]{engine.WithSpan[keys.Uint64Key, any](6)}},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr := mustNew(t, 10, c.opts...)
			rng := rand.New(rand.NewSource(5))
			present := make(map[uint64]bool)
			for i := 0; i < 300; i++ {
				k := rng.Uint64() % 1024
				if rng.Intn(3) == 0 {
					tr.Delete(k)
					delete(present, k)
				} else {
					tr.Insert(k)
					present[k] = true
				}
			}
			sorted := make([]uint64, 0, len(present))
			for k := range present {
				sorted = append(sorted, k)
			}
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

			var got []uint64
			tr.AllKV(func(k uint64, _ any) bool {
				got = append(got, k)
				return true
			})
			if !slices.Equal(got, sorted) {
				t.Fatalf("AscendKV order = %v; oracle %v", got, sorted)
			}

			for probe := uint64(0); probe < 1024; probe += 7 {
				i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= probe })
				gotK, gotOK := tr.Ceiling(probe)
				if wantOK := i < len(sorted); gotOK != wantOK || (gotOK && gotK != sorted[i]) {
					t.Fatalf("Ceiling(%d) = %d,%v; oracle %v", probe, gotK, gotOK, sorted[i:min(i+1, len(sorted))])
				}
				j := sort.Search(len(sorted), func(i int) bool { return sorted[i] > probe }) - 1
				gotK, gotOK = tr.Floor(probe)
				if wantOK := j >= 0; gotOK != wantOK || (gotOK && gotK != sorted[j]) {
					t.Fatalf("Floor(%d) = %d,%v; oracle j=%d", probe, gotK, gotOK, j)
				}
			}
		})
	}
}

// (TestOrderedSkipsLogicallyRemoved, which fabricates a replace
// descriptor by hand, lives in internal/engine with the rest of the
// white-box protocol tests.)

// TestLiveAscendUnderReplace checks the iterators' promise under
// concurrent writers: entries present for the whole iteration are always
// yielded. On span-1 and span-4 tries, writers churn the keys ≡ 1 mod 4
// with Store, Delete and ReplaceKey between random pairs (mostly Figure
// 6's general case, two parents far apart), while live walks loop: whole
// Ascend(0) walks, and paged walks that resume each page with a fresh
// Ascend from the first key past the last page, as SCAN does. Every walk
// must yield each untouched key (≡ 0 mod 4, value = key) exactly once,
// keys in strictly ascending order, and no key that was never stored
// (≡ 2, 3 mod 4). A churned key holds the value some churned key was
// stored with.
func TestLiveAscendUnderReplace(t *testing.T) {
	const width, universe = 16, 4096
	for _, span := range []uint32{1, 4} {
		m := spanMap(width, span)
		for k := uint64(0); k < universe; k += 4 {
			m.Store(k, k)
		}
		churned := func(k uint64) uint64 { return k*4%universe + 1 }
		for k := uint64(0); k < universe/8; k++ {
			m.Store(churned(k), churned(k))
		}

		// Writers and walkers yield every few steps, and each walk, once
		// past the middle of the keyspace, waits for the writers to start
		// 16 more writes, so that writes land in the middle of every walk
		// even at GOMAXPROCS 1 or on a loaded machine. ops counts the
		// writes, during those made while some walk was open.
		stop := make(chan struct{})
		var ops, during atomic.Int64
		var writers sync.WaitGroup
		for w := range 3 {
			writers.Add(1)
			go func() {
				defer writers.Done()
				rng := rand.New(rand.NewSource(int64(w)))
				for {
					select {
					case <-stop:
						return
					default:
					}
					if ops.Add(1)%16 == 0 {
						runtime.Gosched()
					}
					a, b := churned(rng.Uint64()), churned(rng.Uint64())
					switch rng.Intn(3) {
					case 0:
						m.Store(a, a)
					case 1:
						m.Delete(a)
					default:
						m.ReplaceKey(a, b)
					}
				}
			}()
		}

		// walk is one walk's checks so far; see feeds it one yield and
		// reports whether the walk is still sound.
		type walk struct {
			prev    uint64
			started bool
			stable  int
			waited  bool
			err     string
		}
		see := func(w *walk, k, v uint64) bool {
			switch {
			case w.started && k <= w.prev:
				w.err = fmt.Sprintf("key %d after %d: not strictly ascending", k, w.prev)
			case k%4 == 0 && v != k:
				w.err = fmt.Sprintf("untouched key %d holds %d", k, v)
			case k%4 == 1 && v%4 != 1:
				w.err = fmt.Sprintf("churned key %d holds %d, never stored", k, v)
			case k%4 > 1:
				w.err = fmt.Sprintf("key %d was never stored", k)
			}
			w.prev, w.started = k, true
			if k%64 == 0 {
				runtime.Gosched()
			}
			if !w.waited && k >= universe/2 {
				for mark := ops.Load(); ops.Load()-mark < 16; {
					runtime.Gosched()
				}
				w.waited = true
			}
			if k%4 == 0 {
				w.stable++
			}
			return w.err == ""
		}
		var walkers sync.WaitGroup
		for r := range 2 {
			walkers.Add(1)
			go func() {
				defer walkers.Done()
				for i := range 30 {
					var w walk
					before := ops.Load()
					if (i+r)%2 == 0 {
						for k, v := range m.Ascend(0) {
							if !see(&w, k, v) {
								break
							}
						}
					} else {
						page := 1 + i%7
						for from, more := uint64(0), true; more && w.err == ""; {
							more = false
							n := 0
							for k, v := range m.Ascend(from) {
								if n == page {
									from, more = k, true
									break
								}
								n++
								if !see(&w, k, v) {
									break
								}
							}
						}
					}
					during.Add(ops.Load() - before)
					if w.err == "" && w.stable != universe/4 {
						w.err = fmt.Sprintf("%d untouched keys yielded, want %d", w.stable, universe/4)
					}
					if w.err != "" {
						t.Errorf("span %d, walk %d: %s", span, i, w.err)
						return
					}
				}
			}()
		}
		walkers.Wait()
		close(stop)
		writers.Wait()
		if during.Load() == 0 {
			t.Fatalf("span %d: no write landed during a walk", span)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("span %d at quiescence: %v", span, err)
		}
	}
}
