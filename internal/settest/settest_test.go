package settest

import (
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

// tornSet implements Replace non-atomically: it deletes old, closes
// opened, waits for resume, then inserts new. The linearizability
// machinery must catch reads made while the window is open; this guards
// the kit itself against vacuity.
type tornSet struct {
	lockedSet
	opened, resume chan struct{}
}

func (s *tornSet) Replace(old, new uint64) bool {
	if !s.Delete(old) {
		return false
	}
	close(s.opened)
	<-s.resume
	if !s.Insert(new) {
		s.Insert(old) // crude rollback; still observably torn
		return false
	}
	return true
}

func TestKitDetectsTornReplace(t *testing.T) {
	// Key 1 is present; Replace(1, 2) stops inside its torn window, where
	// the reader sees 1 absent and then 2 absent. Replace would have to
	// take effect before the first read and after the second, which
	// follows the first: no order explains the history.
	s := &tornSet{
		lockedSet: lockedSet{m: map[uint64]bool{1: true}},
		opened:    make(chan struct{}),
		resume:    make(chan struct{}),
	}
	rec := linearizable.NewRecorder()
	rec.Record(linearizable.Insert, 1, 0, func() bool { return false }) // key 1 pre-inserted
	done := make(chan struct{})
	go func() {
		defer close(done)
		rec.Record(linearizable.Replace, 1, 2, func() bool { return s.Replace(1, 2) })
	}()
	<-s.opened
	for _, k := range []uint64{1, 2} {
		rec.Record(linearizable.Contains, k, 0, func() bool { return s.Contains(k) })
	}
	close(s.resume)
	<-done
	// The pre-insert was recorded with result false but applied to a set
	// that already contained 1; fix the record to reflect the actual
	// initial insertion.
	h := rec.History()
	h[0].Result = true
	h[0].Start, h[0].End = -2, -1
	if linearizable.Check(h) {
		t.Fatalf("a torn Replace passed the linearizability check: %v", h)
	}
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
