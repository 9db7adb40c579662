package keys

import (
	"bytes"
	"testing"
	"testing/quick"
)

func mustParse(t *testing.T, s string) Bitstring {
	t.Helper()
	b, ok := ParseBitstring(s)
	if !ok {
		t.Fatalf("ParseBitstring(%q) failed", s)
	}
	return b
}

func TestParseAndString(t *testing.T) {
	for _, s := range []string{"", "0", "1", "0101", "111000111", "10"} {
		if got := mustParse(t, s).String(); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
	if _, ok := ParseBitstring("012"); ok {
		t.Error("ParseBitstring should reject non-binary runes")
	}
}

func TestParseLong(t *testing.T) {
	// Cross the 64-bit word boundary.
	s := ""
	for i := 0; i < 130; i++ {
		if i%3 == 0 {
			s += "1"
		} else {
			s += "0"
		}
	}
	b := mustParse(t, s)
	if b.Len() != 130 {
		t.Fatalf("len = %d, want 130", b.Len())
	}
	if b.String() != s {
		t.Fatalf("round trip mismatch")
	}
	for i := uint32(0); i < 130; i++ {
		want := 0
		if i%3 == 0 {
			want = 1
		}
		if b.Bit(i) != want {
			t.Fatalf("bit %d = %d, want %d", i, b.Bit(i), want)
		}
	}
}

func TestIsPrefixOf(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"", "0", true},
		{"0", "0", true},
		{"0", "01", true},
		{"01", "0", false},
		{"01", "011", true},
		{"01", "001", false},
		{"1", "0", false},
	}
	for _, c := range cases {
		a, b := mustParse(t, c.a), mustParse(t, c.b)
		if got := a.IsPrefixOf(b); got != c.want {
			t.Errorf("%q.IsPrefixOf(%q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	long := mustParse(t, "101010101010101010101010101010101010101010101010101010101010101010")
	if !long.Prefix(64).IsPrefixOf(long) {
		t.Error("64-bit prefix should be a prefix across word boundary")
	}
}

func TestCommonPrefixBitstring(t *testing.T) {
	cases := []struct {
		a, b, want string
	}{
		{"", "", ""},
		{"0", "1", ""},
		{"01", "00", "0"},
		{"0110", "0111", "011"},
		{"0110", "0110", "0110"},
		{"0110", "011", "011"},
	}
	for _, c := range cases {
		a, b := mustParse(t, c.a), mustParse(t, c.b)
		if got := a.CommonPrefix(b).String(); got != c.want {
			t.Errorf("CommonPrefix(%q,%q) = %q, want %q", c.a, c.b, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	ordered := []string{"", "0", "00", "01", "1", "10", "11", "111"}
	for i, a := range ordered {
		for j, b := range ordered {
			got := mustParse(t, a).Compare(mustParse(t, b))
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%q,%q) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestEncodeStringRoundTrip(t *testing.T) {
	f := func(s []byte) bool {
		got, ok := DecodeString(EncodeString(s))
		return ok && bytes.Equal(got, s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeStringPrefixFree(t *testing.T) {
	// Section VI: no encoded key is a proper prefix of another, even when
	// the source strings are prefixes of each other.
	a := EncodeString([]byte("ab"))
	b := EncodeString([]byte("abc"))
	if a.IsPrefixOf(b) || b.IsPrefixOf(a) {
		t.Error("encoded keys must be prefix-free")
	}
}

func TestEncodeStringBetweenDummies(t *testing.T) {
	f := func(s []byte) bool {
		e := EncodeString(s)
		lo, hi := StringCodec{}.Bounds()
		return lo.Compare(e) < 0 && e.Compare(hi) < 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeStringRejectsGarbage(t *testing.T) {
	for _, s := range []string{"", "1", "00", "0111", "1111", "010111"} {
		b := mustParse(t, s)
		if _, ok := DecodeString(b); ok {
			t.Errorf("DecodeString(%q) should fail", s)
		}
	}
}

func TestBitstringFromBits(t *testing.T) {
	b := BitstringFromBits([]int{1, 0, 1})
	if b.String() != "101" {
		t.Errorf("got %q, want 101", b.String())
	}
}
