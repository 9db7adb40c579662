package settest

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"nbtrie/internal/linearizable"
)

// lockedSet is a trivially correct reference implementation: the kit must
// pass against it.
type lockedSet struct {
	mu sync.Mutex
	m  map[uint64]bool
}

func newLockedSet(uint64) Set { return &lockedSet{m: make(map[uint64]bool)} }

func (s *lockedSet) Insert(k uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m[k] {
		return false
	}
	s.m[k] = true
	return true
}

func (s *lockedSet) Delete(k uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.m[k] {
		return false
	}
	delete(s.m, k)
	return true
}

func (s *lockedSet) Contains(k uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[k]
}

func (s *lockedSet) Replace(old, new uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.m[old] || s.m[new] || old == new {
		return false
	}
	delete(s.m, old)
	s.m[new] = true
	return true
}

func TestKitAgainstLockedReference(t *testing.T) {
	Run(t, newLockedSet)
}

// tornSet implements Replace non-atomically (delete, yield, insert). The
// linearizability machinery must be able to catch the resulting torn
// reads; this guards the kit itself against vacuity.
type tornSet struct {
	lockedSet
}

func (s *tornSet) Replace(old, new uint64) bool {
	if !s.Delete(old) {
		return false
	}
	runtime.Gosched() // widen the torn window
	if !s.Insert(new) {
		s.Insert(old) // crude rollback; still observably torn
		return false
	}
	return true
}

func TestKitDetectsTornReplace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	// A trial catches the torn window only when the reader's Contains
	// lands inside it; on a 2-vCPU box 400 trials missed it in about one
	// run of five. The loop stops at the first catch.
	const trials = 4000
	for trial := 0; trial < trials; trial++ {
		s := &tornSet{lockedSet{m: map[uint64]bool{1: true}}}
		// Seed key 1 is present; worker A replaces 1->2 repeatedly while
		// worker B reads both keys. A torn window shows both absent.
		rec := linearizable.NewRecorder()
		rec.Record(linearizable.Insert, 1, 0, func() bool { return false }) // key 1 pre-inserted
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			rec.Record(linearizable.Replace, 1, 2, func() bool { return s.Replace(1, 2) })
		}()
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(trial)))
			for i := 0; i < 4; i++ {
				k := uint64(1 + rng.Intn(2))
				rec.Record(linearizable.Contains, k, 0, func() bool { return s.Contains(k) })
			}
		}()
		wg.Wait()
		// The pre-insert was recorded with result false but applied to a
		// set that already contained 1; fix the record to reflect the
		// actual initial insertion.
		h := rec.History()
		h[0].Result = true
		h[0].Start, h[0].End = -2, -1
		if !linearizable.Check(h) {
			return // anomaly caught: the kit is not vacuous
		}
	}
	t.Skip("torn replace not observed in this run (scheduling-dependent); kit vacuity not disproven")
}

// lockedMap is the trivially correct reference for the map battery.
type lockedMap struct {
	mu sync.Mutex
	m  map[uint64]uint64
}

func newLockedMap(uint64) Map { return &lockedMap{m: make(map[uint64]uint64)} }

func (s *lockedMap) Load(k uint64) (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[k]
	return v, ok
}

func (s *lockedMap) Store(k, v uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[k] = v
	return true
}

func (s *lockedMap) LoadOrStore(k, v uint64) (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.m[k]; ok {
		return old, true
	}
	s.m[k] = v
	return v, false
}

func (s *lockedMap) Delete(k uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[k]; !ok {
		return false
	}
	delete(s.m, k)
	return true
}

func (s *lockedMap) CompareAndSwap(k, old, new uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok := s.m[k]; !ok || v != old {
		return false
	}
	s.m[k] = new
	return true
}

func (s *lockedMap) CompareAndDelete(k, old uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok := s.m[k]; !ok || v != old {
		return false
	}
	delete(s.m, k)
	return true
}

func (s *lockedMap) ReplaceKey(old, new uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[old]
	if !ok {
		return false
	}
	if _, clash := s.m[new]; clash || old == new {
		return false
	}
	delete(s.m, old)
	s.m[new] = v
	return true
}

func TestMapKitAgainstLockedReference(t *testing.T) {
	RunMap(t, newLockedMap)
}
