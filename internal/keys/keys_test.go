package keys

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMask(t *testing.T) {
	cases := []struct {
		n    uint32
		want uint64
	}{
		{0, 0},
		{1, 0x8000000000000000},
		{4, 0xf000000000000000},
		{32, 0xffffffff00000000},
		{63, 0xfffffffffffffffe},
		{64, 0xffffffffffffffff},
	}
	for _, c := range cases {
		if got := Mask(c.n); got != c.want {
			t.Errorf("Mask(%d) = %#x, want %#x", c.n, got, c.want)
		}
	}
}

func TestBitAt(t *testing.T) {
	b := uint64(0xa000000000000000) // 1010...
	want := []int{1, 0, 1, 0}
	for i, w := range want {
		if got := BitAt(b, uint32(i)); got != w {
			t.Errorf("BitAt(%#x, %d) = %d, want %d", b, i, got, w)
		}
	}
	if got := BitAt(uint64(1), 63); got != 1 {
		t.Errorf("BitAt(1, 63) = %d, want 1", got)
	}
}

func TestIsPrefix(t *testing.T) {
	// Label "10" (length 2) is a prefix of anything starting with 10.
	label := uint64(0x8000000000000000)
	if !IsPrefix(label, 2, 0x8000000000000000) {
		t.Error("10 should be a prefix of 10...0")
	}
	if !IsPrefix(label, 2, 0xbfffffffffffffff) {
		t.Error("10 should be a prefix of 1011...1")
	}
	if IsPrefix(label, 2, 0xc000000000000000) {
		t.Error("10 should not be a prefix of 11...")
	}
	if !IsPrefix(0, 0, 0xdeadbeef) {
		t.Error("empty label is a prefix of everything")
	}
}

func TestCommonPrefixLen(t *testing.T) {
	if got := CommonPrefixLen(0, 0); got != 64 {
		t.Errorf("CommonPrefixLen(0,0) = %d, want 64", got)
	}
	if got := CommonPrefixLen(0, 1); got != 63 {
		t.Errorf("CommonPrefixLen(0,1) = %d, want 63", got)
	}
	if got := CommonPrefixLen(0x8000000000000000, 0); got != 0 {
		t.Errorf("diff in first bit: got %d, want 0", got)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, width := range []uint32{1, 8, 20, 32, 63} {
		maxKey := uint64(1)<<width - 1
		c := U64Codec{Width: width}
		lo, hi := c.Bounds()
		for _, k := range []uint64{0, 1, maxKey / 2, maxKey} {
			e, ok := c.Encode(k)
			if got := c.Decode(e); !ok || got != k {
				t.Errorf("width %d: Decode(Encode(%d)) = %d", width, k, got)
			}
			if e == lo || e == hi {
				t.Errorf("width %d: Encode(%d) collides with a dummy", width, k)
			}
		}
	}
}

func TestEncodeOrderPreserving(t *testing.T) {
	const width = 20
	f := func(a, b uint64) bool {
		a %= 1 << width
		b %= 1 << width
		ea, eb := u64(a, width), u64(b, width)
		return (a < b) == (ea.bits < eb.bits) && (a == b) == (ea == eb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeBetweenDummies(t *testing.T) {
	const width = 16
	f := func(k uint64) bool {
		k %= 1 << width
		e := u64(k, width)
		lo, hi := U64Codec{Width: width}.Bounds()
		return e.bits > lo.bits && e.bits < hi.bits
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInRange(t *testing.T) {
	if !InRange(255, 8) || InRange(256, 8) {
		t.Error("InRange width 8 boundary wrong")
	}
	if !InRange(^uint64(0), 64) {
		t.Error("InRange width 64 should accept everything")
	}
}

func TestPrefixBitConsistency(t *testing.T) {
	// For random keys a != b, the bit at position CommonPrefixLen differs.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		a, b := rng.Uint64(), rng.Uint64()
		if a == b {
			continue
		}
		cpl := CommonPrefixLen(a, b)
		if BitAt(a, cpl) == BitAt(b, cpl) {
			t.Fatalf("bit %d of %#x and %#x should differ", cpl, a, b)
		}
		if a&Mask(cpl) != b&Mask(cpl) {
			t.Fatalf("prefix of length %d of %#x and %#x should match", cpl, a, b)
		}
	}
}
