package nbtrie

import (
	"testing"

	"nbtrie/internal/settest"
)

// Every implementation exposed by the public API runs the same
// conformance battery (each internal package also runs it white-box).
// The list comes from the registry: registering an implementation is
// enough to put it under test.

// widthForRange returns a trie width that covers [0, keyRange] with a
// bit of slack for boundary probes.
func widthForRange(keyRange uint64) uint32 {
	width := uint32(1)
	for keyRange > 1<<width {
		width++
	}
	return width + 1
}

func TestConformanceAllImplementations(t *testing.T) {
	for _, name := range Implementations() {
		t.Run(name, func(t *testing.T) {
			settest.Run(t, func(keyRange uint64) settest.Set {
				s, err := NewSetWithWidth(name, widthForRange(keyRange))
				if err != nil {
					t.Fatalf("NewSetWithWidth(%q): %v", name, err)
				}
				return s
			})
		})
	}
}

func TestRegistry(t *testing.T) {
	names := Implementations()
	if len(names) != 9 || names[0] != "patricia" {
		t.Fatalf("Implementations() = %v; want the trie, five baselines and the extra engine instantiations, trie first", names)
	}
	if names[len(names)-3] != "spatial" || names[len(names)-2] != "sharded" || names[len(names)-1] != "karypatricia" {
		t.Fatalf("Implementations() = %v; spatial, sharded, karypatricia should close the registry", names)
	}
	for _, name := range names {
		if im, _ := LookupImplementation(name); im.Fanout < 2 {
			t.Fatalf("%s Fanout = %d, want >= 2", name, im.Fanout)
		}
	}
	if im, _ := LookupImplementation("karypatricia"); im.Fanout != 1<<KarySpan || !im.Replace || !im.WaitFreeRead {
		t.Fatalf("karypatricia descriptor wrong: %+v", im)
	}
	seen := map[string]bool{}
	for _, name := range names {
		if seen[name] {
			t.Fatalf("duplicate registry name %q", name)
		}
		seen[name] = true
		im, ok := LookupImplementation(name)
		if !ok || im.Name != name || im.Legend == "" || im.Description == "" {
			t.Fatalf("LookupImplementation(%q) = %+v, %v", name, im, ok)
		}
		s, err := NewSet(name)
		if err != nil || s == nil {
			t.Fatalf("NewSet(%q): %v", name, err)
		}
		if !s.Insert(7) || !s.Contains(7) || !s.Delete(7) {
			t.Fatalf("NewSet(%q) produced a broken set", name)
		}
		// The replace capability must match the set surface: exactly the
		// Replace entries satisfy ReplaceSet.
		if _, isReplace := s.(ReplaceSet); im.Replace != isReplace {
			t.Fatalf("%q: Replace=%v but ReplaceSet assertion=%v", name, im.Replace, isReplace)
		}
	}
	if im, _ := LookupImplementation("sharded"); !im.Replace {
		t.Fatal("sharded Replace = false, want true")
	}
	// AllImplementations mirrors Implementations in order and content,
	// and hands out copies (mutating one must not poison the registry).
	impls := AllImplementations()
	if len(impls) != len(names) {
		t.Fatalf("AllImplementations() has %d entries, Implementations() %d", len(impls), len(names))
	}
	for i, im := range impls {
		if im.Name != names[i] {
			t.Errorf("AllImplementations()[%d] = %q, want %q", i, im.Name, names[i])
		}
	}
	impls[0].Name = "clobbered"
	if Implementations()[0] != "patricia" {
		t.Error("AllImplementations must return a copy")
	}

	// Legend labels resolve too, case-insensitively.
	if im, ok := LookupImplementation("pat"); !ok || im.Name != "patricia" {
		t.Errorf(`LookupImplementation("pat") = %+v, %v`, im, ok)
	}
	if _, ok := LookupImplementation("nope"); ok {
		t.Error("unknown name must not resolve")
	}
	if _, err := NewSet("nope"); err == nil {
		t.Error("NewSet with unknown name must error")
	}
}

func TestPatriciaTrieExtras(t *testing.T) {
	p, err := NewPatriciaTrie(16)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []uint64{5, 1, 9} {
		p.Insert(k)
	}
	if got := p.Keys(); len(got) != 3 || got[0] != 1 || got[2] != 9 {
		t.Errorf("Keys() = %v", got)
	}
	if p.Size() != 3 {
		t.Errorf("Size() = %d", p.Size())
	}
	if err := p.Validate(); err != nil {
		t.Error(err)
	}
	if p.Width() != 16 {
		t.Errorf("Width() = %d", p.Width())
	}
	if p.Dump() == "" {
		t.Error("Dump() empty")
	}
	if !p.Replace(5, 6) || p.Contains(5) || !p.Contains(6) {
		t.Error("Replace through the facade broken")
	}
	n := 0
	p.Range(func(uint64) bool { n++; return true })
	if n != 3 {
		t.Errorf("Range visited %d keys, want 3", n)
	}
	if k, ok := p.Min(); !ok || k != 1 {
		t.Errorf("Min = %d,%v", k, ok)
	}
	if k, ok := p.Max(); !ok || k != 9 {
		t.Errorf("Max = %d,%v", k, ok)
	}
	if k, ok := p.Ceiling(2); !ok || k != 6 {
		t.Errorf("Ceiling(2) = %d,%v", k, ok)
	}
	if k, ok := p.Floor(8); !ok || k != 6 {
		t.Errorf("Floor(8) = %d,%v", k, ok)
	}
}

func TestStringTrieFacade(t *testing.T) {
	s := NewStringTrie()
	if !s.Insert([]byte("alpha")) || s.Insert([]byte("alpha")) {
		t.Error("Insert semantics broken")
	}
	if !s.Contains([]byte("alpha")) || s.Contains([]byte("alp")) {
		t.Error("Contains semantics broken")
	}
	if !s.Replace([]byte("alpha"), []byte("beta")) {
		t.Error("Replace failed")
	}
	if s.Contains([]byte("alpha")) || !s.Contains([]byte("beta")) {
		t.Error("Replace left wrong state")
	}
	if !s.Delete([]byte("beta")) || s.Delete([]byte("beta")) {
		t.Error("Delete semantics broken")
	}
	s.Insert([]byte("k1"))
	s.Insert([]byte("k2"))
	if s.Size() != 2 || len(s.Keys()) != 2 {
		t.Error("Size/Keys broken")
	}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := NewPatriciaTrie(0); err == nil {
		t.Error("width 0 should be rejected")
	}
	if _, err := NewPatriciaTrie(64); err == nil {
		t.Error("width 64 should be rejected")
	}
}
