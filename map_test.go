package nbtrie

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"

	"nbtrie/internal/settest"
)

// mapAdapter drives Map[uint64] through the settest map battery.
type mapAdapter struct {
	m *Map[uint64]
}

func (a mapAdapter) Load(k uint64) (uint64, bool) { return a.m.Load(k) }
func (a mapAdapter) Store(k, v uint64) bool       { return a.m.Store(k, v) }
func (a mapAdapter) LoadOrStore(k, v uint64) (uint64, bool) {
	actual, loaded, _ := a.m.LoadOrStore(k, v)
	return actual, loaded
}
func (a mapAdapter) Delete(k uint64) bool                   { return a.m.Delete(k) }
func (a mapAdapter) CompareAndSwap(k, old, new uint64) bool { return a.m.CompareAndSwap(k, old, new) }
func (a mapAdapter) CompareAndDelete(k, old uint64) bool    { return a.m.CompareAndDelete(k, old) }
func (a mapAdapter) ReplaceKey(old, new uint64) bool        { return a.m.ReplaceKey(old, new) }

// setAdapter presents Map[uint64] as a plain set, so the map layer also
// passes the set conformance battery (Insert == LoadOrStore-if-absent).
type setAdapter struct {
	m *Map[uint64]
}

func (a setAdapter) Insert(k uint64) bool {
	_, loaded, _ := a.m.LoadOrStore(k, k)
	return !loaded
}
func (a setAdapter) Delete(k uint64) bool         { return a.m.Delete(k) }
func (a setAdapter) Contains(k uint64) bool       { return a.m.Contains(k) }
func (a setAdapter) Replace(old, new uint64) bool { return a.m.ReplaceKey(old, new) }

func newTestMap(t *testing.T, keyRange uint64) *Map[uint64] {
	t.Helper()
	m, err := NewMap[uint64](widthForRange(keyRange))
	if err != nil {
		t.Fatalf("NewMap: %v", err)
	}
	return m
}

// TestMapConformance runs the full value-aware battery — concurrent
// LoadOrStore/CompareAndSwap races and linearizability checking with
// value reads — against Map[uint64].
func TestMapConformance(t *testing.T) {
	settest.RunMap(t, func(keyRange uint64) settest.Map {
		return mapAdapter{newTestMap(t, keyRange)}
	})
}

// stringMapAdapter drives StringMap[uint64] through the same battery by
// encoding uint64 keys as their big-endian byte strings (order- and
// identity-preserving), so the byte-string key space gets the
// linearizability checking too.
type stringMapAdapter struct {
	m *StringMap[uint64]
}

func strKey(k uint64) []byte {
	return binary.BigEndian.AppendUint64(nil, k+1) // +1: keys must be non-empty anyway, avoid all-zero confusion in dumps
}

func (a stringMapAdapter) Load(k uint64) (uint64, bool) { return a.m.Load(strKey(k)) }
func (a stringMapAdapter) Store(k, v uint64) bool       { a.m.Store(strKey(k), v); return true }
func (a stringMapAdapter) LoadOrStore(k, v uint64) (uint64, bool) {
	return a.m.LoadOrStore(strKey(k), v)
}
func (a stringMapAdapter) Delete(k uint64) bool { return a.m.Delete(strKey(k)) }
func (a stringMapAdapter) CompareAndSwap(k, old, new uint64) bool {
	return a.m.CompareAndSwap(strKey(k), old, new)
}
func (a stringMapAdapter) CompareAndDelete(k, old uint64) bool {
	return a.m.CompareAndDelete(strKey(k), old)
}
func (a stringMapAdapter) ReplaceKey(old, new uint64) bool {
	return a.m.ReplaceKey(strKey(old), strKey(new))
}

func TestStringMapConformance(t *testing.T) {
	settest.RunMap(t, func(uint64) settest.Map {
		return stringMapAdapter{NewStringMap[uint64]()}
	})
}

// TestMapAsSetConformance runs the set battery over the Map adapter:
// the map layer must still be a correct linearizable set.
func TestMapAsSetConformance(t *testing.T) {
	settest.Run(t, func(keyRange uint64) settest.Set {
		return setAdapter{newTestMap(t, keyRange)}
	})
}

func TestMapBasicsAndIterators(t *testing.T) {
	m, err := NewMap[string](16)
	if err != nil {
		t.Fatal(err)
	}
	if m.Width() != 16 {
		t.Errorf("Width() = %d", m.Width())
	}
	for k, v := range map[uint64]string{30: "c", 10: "a", 20: "b"} {
		if !m.Store(k, v) {
			t.Fatalf("Store(%d) failed", k)
		}
	}
	if m.Len() != 3 || !m.Contains(20) {
		t.Error("Len/Contains broken")
	}

	var ks []uint64
	var vs []string
	for k, v := range m.All() {
		ks = append(ks, k)
		vs = append(vs, v)
	}
	if len(ks) != 3 || ks[0] != 10 || ks[1] != 20 || ks[2] != 30 {
		t.Errorf("All() keys = %v, want ascending 10 20 30", ks)
	}
	if vs[0] != "a" || vs[1] != "b" || vs[2] != "c" {
		t.Errorf("All() values = %v", vs)
	}

	ks = nil
	for k := range m.Ascend(11) {
		ks = append(ks, k)
	}
	if len(ks) != 2 || ks[0] != 20 {
		t.Errorf("Ascend(11) keys = %v", ks)
	}

	// Early break must stop the walk.
	n := 0
	for range m.All() {
		n++
		break
	}
	if n != 1 {
		t.Errorf("break after first yield, saw %d", n)
	}

	if !m.ReplaceKey(10, 15) {
		t.Error("ReplaceKey failed")
	}
	if v, ok := m.Load(15); !ok || v != "a" {
		t.Errorf("value did not travel with ReplaceKey: %q,%v", v, ok)
	}
}

func TestMapOutOfRangeKeys(t *testing.T) {
	m, err := NewMap[int](8)
	if err != nil {
		t.Fatal(err)
	}
	m.Store(3, 33)
	for _, k := range []uint64{256, ^uint64(0)} {
		if m.Store(k, 1) {
			t.Errorf("Store(%d) must fail on a width-8 map", k)
		}
		if _, ok := m.Load(k); ok {
			t.Errorf("Load(%d) must miss", k)
		}
		if v, loaded, ok := m.LoadOrStore(k, 1); ok || loaded || v != 0 {
			t.Errorf("LoadOrStore(%d) = %d,%v,%v; want zero,false,false and no store", k, v, loaded, ok)
		}
		if m.Delete(k) || m.CompareAndSwap(k, 1, 2) || m.CompareAndDelete(k, 1) {
			t.Errorf("mutations on out-of-range %d must fail", k)
		}
		if m.ReplaceKey(3, k) || m.ReplaceKey(k, 5) {
			t.Errorf("ReplaceKey involving %d must fail", k)
		}
	}
	if v, ok := m.Load(3); !ok || v != 33 {
		t.Error("in-range entry damaged by out-of-range probing")
	}
}

func TestStringMap(t *testing.T) {
	m := NewStringMap[int]()
	m.Store([]byte("go"), 1)
	m.Store([]byte("gopher"), 2)
	if v, ok := m.Load([]byte("go")); !ok || v != 1 {
		t.Errorf("Load(go) = %d,%v", v, ok)
	}
	if _, ok := m.Load([]byte("gop")); ok {
		t.Error("prefix must not be a member")
	}
	if v, loaded := m.LoadOrStore([]byte("go"), 9); !loaded || v != 1 {
		t.Errorf("LoadOrStore(present) = %d,%v", v, loaded)
	}
	if !m.CompareAndSwap([]byte("go"), 1, 10) || m.CompareAndSwap([]byte("go"), 1, 11) {
		t.Error("CompareAndSwap semantics broken")
	}
	if !m.ReplaceKey([]byte("gopher"), []byte("ferret")) {
		t.Error("ReplaceKey failed")
	}
	if v, ok := m.Load([]byte("ferret")); !ok || v != 2 {
		t.Errorf("ReplaceKey dropped the value: %d,%v", v, ok)
	}
	if m.Contains([]byte("gopher")) {
		t.Error("old key survived ReplaceKey")
	}
	if !m.CompareAndDelete([]byte("go"), 10) || m.Len() != 1 {
		t.Error("CompareAndDelete broken")
	}

	got := 0
	for k, v := range m.All() {
		got++
		if !bytes.Equal(k, []byte("ferret")) || v != 2 {
			t.Errorf("All() yielded %q=%d", k, v)
		}
	}
	if got != 1 {
		t.Errorf("All() yielded %d entries, want 1", got)
	}
}

// TestStringMapAscend pins the API-parity iterator: StringMap.Ascend
// mirrors Map.Ascend over the encoded-key order, including midpoint
// resume, early break, and the documented prefix-after-extension quirk.
func TestStringMapAscend(t *testing.T) {
	m := NewStringMap[int]()
	words := []string{"apple", "banana", "cherry", "pear", "zebra"}
	for i, w := range words {
		m.Store([]byte(w), i)
	}

	var got []string
	for k, v := range m.Ascend([]byte("banana")) {
		got = append(got, string(k))
		if v < 0 || v >= len(words) {
			t.Errorf("Ascend yielded wrong value %d for %q", v, k)
		}
	}
	want := []string{"banana", "cherry", "pear", "zebra"}
	if len(got) != len(want) {
		t.Fatalf("Ascend(banana) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ascend(banana)[%d] = %q, want %q", i, got[i], want[i])
		}
	}

	// A from-key that is not a member starts at its successor.
	got = nil
	for k := range m.Ascend([]byte("blueberry")) {
		got = append(got, string(k))
	}
	if len(got) != 3 || got[0] != "cherry" {
		t.Fatalf("Ascend(blueberry) = %v", got)
	}

	// Early break stops the walk.
	n := 0
	for range m.Ascend([]byte("apple")) {
		n++
		break
	}
	if n != 1 {
		t.Errorf("break after first yield, saw %d", n)
	}

	// Encoded order sorts a proper prefix after its extensions
	// (Section VI terminator 11 > continuation pairs), so Ascend from
	// the prefix skips its extensions.
	m2 := NewStringMap[int]()
	m2.Store([]byte("app"), 1)
	m2.Store([]byte("applesauce"), 2)
	got = nil
	for k := range m2.Ascend([]byte("app")) {
		got = append(got, string(k))
	}
	if len(got) != 1 || got[0] != "app" {
		t.Fatalf("Ascend(app) over a prefix pair = %v (encoded order puts extensions first)", got)
	}

	// The set-level twin agrees.
	s := NewStringTrie()
	for _, w := range words {
		s.Insert([]byte(w))
	}
	got = nil
	for k := range s.Ascend([]byte("cherry")) {
		got = append(got, string(k))
	}
	if len(got) != 3 || got[0] != "cherry" || got[2] != "zebra" {
		t.Fatalf("StringTrie.Ascend(cherry) = %v", got)
	}
}

// TestStringMapConcurrent hammers a StringMap from several goroutines on
// overlapping string keys.
func TestStringMapConcurrent(t *testing.T) {
	m := NewStringMap[int]()
	keys := [][]byte{
		[]byte("a"), []byte("ab"), []byte("abc"), []byte("b"), []byte("ba"),
	}
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := keys[(g+i)%len(keys)]
				m.Store(k, g)
				if v, ok := m.Load(k); ok {
					if v < 0 || v >= goroutines {
						panic("torn value")
					}
				}
				if v, ok := m.Load(k); ok {
					m.CompareAndDelete(k, v)
				}
			}
		}(g)
	}
	wg.Wait()
	for _, k := range keys {
		if v, ok := m.Load(k); ok && (v < 0 || v >= goroutines) {
			t.Errorf("key %q holds impossible value %d", k, v)
		}
	}
}

func TestSetIterators(t *testing.T) {
	p, err := NewPatriciaTrie(16)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []uint64{5, 1, 9} {
		p.Insert(k)
	}
	var ks []uint64
	for k := range p.All() {
		ks = append(ks, k)
	}
	if len(ks) != 3 || ks[0] != 1 || ks[2] != 9 {
		t.Errorf("PatriciaTrie.All() = %v", ks)
	}
	ks = nil
	for k := range p.Ascend(5) {
		ks = append(ks, k)
	}
	if len(ks) != 2 || ks[0] != 5 {
		t.Errorf("PatriciaTrie.Ascend(5) = %v", ks)
	}

	s := NewStringTrie()
	s.Insert([]byte("b"))
	s.Insert([]byte("a"))
	var sk []string
	for k := range s.All() {
		sk = append(sk, string(k))
	}
	if len(sk) != 2 || sk[0] != "a" || sk[1] != "b" {
		t.Errorf("StringTrie.All() = %v", sk)
	}
}
