package keys

import (
	"testing"
	"testing/quick"
)

func TestInterleave2Examples(t *testing.T) {
	cases := []struct {
		x, y uint32
		want uint64
	}{
		{0, 0, 0},
		{1, 0, 1},
		{0, 1, 2},
		{1, 1, 3},
		{0xffffffff, 0, 0x5555555555555555},
		{0, 0xffffffff, 0xaaaaaaaaaaaaaaaa},
	}
	for _, c := range cases {
		if got := Interleave2(c.x, c.y); got != c.want {
			t.Errorf("Interleave2(%d,%d) = %#x, want %#x", c.x, c.y, got, c.want)
		}
	}
}

func TestInterleave2RoundTrip(t *testing.T) {
	f := func(x, y uint32) bool {
		gx, gy := Deinterleave2(Interleave2(x, y))
		return gx == x && gy == y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMortonLocality(t *testing.T) {
	// Points that share high coordinate bits share Morton prefixes: the
	// defining property that makes Morton keys useful in a Patricia trie.
	a := Interleave2(0x1200, 0x3400)
	b := Interleave2(0x1201, 0x3401)
	c := Interleave2(0xff00, 0x00ff)
	if CommonPrefixLen(a<<0, b<<0) <= CommonPrefixLen(a, c) {
		t.Error("nearby points should share a longer Morton prefix than distant ones")
	}
}
