package keys

import (
	"testing"
	"testing/quick"
)

// Edge-case tests complementing the main suites: word-boundary handling
// in Bitstring and the derived properties the tries rely on.

func TestBitstringPrefixBeyondLength(t *testing.T) {
	b := mustParse(t, "1010")
	if got := b.Prefix(99); !got.Equal(b) {
		t.Errorf("Prefix longer than string must return the string itself, got %q", got)
	}
	if got := b.Prefix(0); got.Len() != 0 {
		t.Errorf("Prefix(0) must be empty, got %q", got)
	}
}

func TestBitstringPrefixCanonicalTail(t *testing.T) {
	// A prefix cutting mid-word must zero the tail bits so structural
	// equality keeps working.
	b := mustParse(t, "1111111111")
	p := b.Prefix(3)
	q := mustParse(t, "111")
	if !p.Equal(q) {
		t.Errorf("Prefix(3) = %q not structurally equal to parsed %q", p, q)
	}
	if !p.IsPrefixOf(b) {
		t.Error("prefix must be a prefix of its source")
	}
}

func TestBitstringCompareWordBoundary(t *testing.T) {
	// 64 equal bits followed by a differing bit.
	base := ""
	for i := 0; i < 64; i++ {
		base += "1"
	}
	a := mustParse(t, base+"0")
	b := mustParse(t, base+"1")
	c := mustParse(t, base)
	if a.Compare(b) != -1 || b.Compare(a) != 1 {
		t.Error("Compare across word boundary wrong")
	}
	if c.Compare(a) != -1 {
		t.Error("proper prefix must compare below its extension")
	}
}

func TestBitstringPropertyPrefixConsistency(t *testing.T) {
	f := func(raw []byte, cut uint16) bool {
		b := EncodeString(raw)
		n := uint32(cut) % (b.Len() + 1)
		p := b.Prefix(n)
		if p.Len() != n {
			return false
		}
		if !p.IsPrefixOf(b) {
			return false
		}
		// Bits of the prefix agree with the source.
		for i := uint32(0); i < n; i++ {
			if p.Bit(i) != b.Bit(i) {
				return false
			}
		}
		// Compare is consistent with prefix order.
		return p.Compare(b) <= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCommonPrefixIsSymmetricAndMaximal(t *testing.T) {
	f := func(x, y []byte) bool {
		a, b := EncodeString(x), EncodeString(y)
		cp := a.CommonPrefix(b)
		if !cp.Equal(b.CommonPrefix(a)) {
			return false
		}
		if !cp.IsPrefixOf(a) || !cp.IsPrefixOf(b) {
			return false
		}
		// Maximality: the next bit differs (when both strings go on).
		if cp.Len() < a.Len() && cp.Len() < b.Len() {
			return a.Bit(cp.Len()) != b.Bit(cp.Len())
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDummiesBoundTheKeySpace(t *testing.T) {
	for _, w := range []uint32{1, 8, 32, 63} {
		c := U64Codec{Width: w}
		lo, hi := c.Bounds()
		if lo.bits != 0 || lo.n != w+1 {
			t.Errorf("width %d: lower dummy = %#x/%d", w, lo.bits, lo.n)
		}
		if hi.bits != Mask(w+1) || hi.n != w+1 {
			t.Errorf("width %d: upper dummy = %#x/%d", w, hi.bits, hi.n)
		}
		if e, _ := c.Encode(0); e.bits <= lo.bits || e.bits >= hi.bits {
			t.Errorf("width %d: Encode(0) = %#x not strictly inside dummies", w, e.bits)
		}
	}
}
