package keys

import (
	"math/rand"
	"testing"
)

// Tests of the Key-interface implementations added for the shared
// engine: Uint64Key and MortonKey. Bitstring, the third implementation,
// has its own battery in bitstring_test.go.

// u64 and morton are the codecs' Encode for in-range keys, as
// expressions.
func u64(k uint64, width uint32) Uint64Key { e, _ := U64Codec{Width: width}.Encode(k); return e }
func morton(m uint64) MortonKey            { e, _ := MortonCodec{}.Encode(m); return e }

// Compile-time interface compliance for all three key types.
var (
	_ Key[Uint64Key] = Uint64Key{}
	_ Key[Bitstring] = Bitstring{}
	_ Key[MortonKey] = MortonKey{}
)

func TestUint64KeyBasics(t *testing.T) {
	const width = 8
	k := u64(5, width)
	if k.Len() != 9 {
		t.Errorf("Len = %d, want 9", k.Len())
	}
	if (U64Codec{Width: width}).Decode(k) != 5 {
		t.Errorf("decode(encode(5)) = %d", (U64Codec{Width: width}).Decode(k))
	}
	if !k.Equal(u64(5, width)) || k.Equal(u64(6, width)) {
		t.Error("Equal broken")
	}

	// The zero value is the empty string and a prefix of everything.
	var empty Uint64Key
	if empty.Len() != 0 || !empty.IsPrefixOf(k) || empty.Compare(k) >= 0 {
		t.Error("zero Uint64Key must be the empty prefix, sorting first")
	}

	// Dummies bound every encoded key.
	lo, hi := U64Codec{Width: width}.Bounds()
	for u := uint64(0); u < 1<<width; u++ {
		e := u64(u, width)
		if lo.Compare(e) >= 0 || e.Compare(hi) >= 0 {
			t.Fatalf("encoded key %d not strictly inside the dummies", u)
		}
	}
}

// TestUint64KeyOrderMatchesUint64 pins that Compare over full-length
// encoded keys is exactly the numeric key order — what the fixed-width
// trie's sorted iteration relies on.
func TestUint64KeyOrderMatchesUint64(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		a, b := rng.Uint64()%1024, rng.Uint64()%1024
		ka, kb := u64(a, 10), u64(b, 10)
		want := 0
		if a < b {
			want = -1
		} else if a > b {
			want = 1
		}
		if got := ka.Compare(kb); got != want {
			t.Fatalf("Compare(%d, %d) = %d, want %d", a, b, got, want)
		}
	}
}

func TestUint64KeyCommonPrefix(t *testing.T) {
	a := MakeUint64Key(0b1010<<60, 4)
	b := MakeUint64Key(0b1011<<60, 4)
	cp := a.CommonPrefix(b)
	if cp.Len() != 3 || cp.bits != 0b101<<61 {
		t.Errorf("CommonPrefix = %v/%d", cp.bits, cp.Len())
	}
	// Equal inputs: the common prefix is the whole label.
	if cp2 := a.CommonPrefix(a); !cp2.Equal(a) {
		t.Errorf("CommonPrefix of equal labels = %v", cp2)
	}
	// Prefix pair: clamped to the shorter.
	p := MakeUint64Key(0b10<<62, 2)
	if cp3 := a.CommonPrefix(p); !cp3.Equal(p) {
		t.Errorf("CommonPrefix with prefix = %v", cp3)
	}
	if !p.IsPrefixOf(a) || a.IsPrefixOf(p) {
		t.Error("IsPrefixOf broken")
	}
}

func TestMortonKeyEncodeDecodeRoundTrip(t *testing.T) {
	cases := []uint64{0, 1, 2, 0x5555_5555, 1 << 63, ^uint64(0) - 1, ^uint64(0)}
	for _, m := range cases {
		k := morton(m)
		if k.Len() != 65 {
			t.Fatalf("encode(%#x).Len() = %d", m, k.Len())
		}
		if got := (MortonCodec{}).Decode(k); got != m {
			t.Fatalf("decode(encode(%#x)) = %#x", m, got)
		}
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		m := rng.Uint64()
		if got := (MortonCodec{}).Decode(morton(m)); got != m {
			t.Fatalf("decode(encode(%#x)) = %#x", m, got)
		}
	}
}

// TestMortonKeyOrderMatchesCodes pins that Compare over encoded keys is
// the numeric Morton-code order — Z-order range scans depend on it —
// including at the 2^64-1 corner where the k+1 shift carries into the
// 65th bit.
func TestMortonKeyOrderMatchesCodes(t *testing.T) {
	probes := []uint64{0, 1, 2, 3, 1<<32 - 1, 1 << 32, 1 << 63, ^uint64(0) - 1, ^uint64(0)}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		probes = append(probes, rng.Uint64())
	}
	for _, a := range probes {
		for _, b := range probes {
			want := 0
			if a < b {
				want = -1
			} else if a > b {
				want = 1
			}
			if got := morton(a).Compare(morton(b)); got != want {
				t.Fatalf("Compare(%#x, %#x) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestMortonKeyDummiesBoundEverything(t *testing.T) {
	lo, hi := MortonCodec{}.Bounds()
	if lo.Len() != 65 || hi.Len() != 65 {
		t.Fatal("dummies must be full length")
	}
	for _, m := range []uint64{0, 1, 1 << 63, ^uint64(0)} {
		e := morton(m)
		if lo.Compare(e) >= 0 || e.Compare(hi) >= 0 {
			t.Fatalf("encoded code %#x not strictly inside the dummies", m)
		}
	}
	// The zero value is the empty string.
	var empty MortonKey
	if empty.Len() != 0 || !empty.IsPrefixOf(hi) {
		t.Error("zero MortonKey must be the empty prefix")
	}
}

func TestMortonKeyPrefixAcrossWordBoundary(t *testing.T) {
	// Keys differing only in the 65th bit: the codes 2^64-1 and 2^64-2
	// encode to 65-bit strings sharing a 63-bit prefix... compute and
	// check against Bit-by-bit expectations.
	a := morton(^uint64(0))     // encodes to 1 0^64
	b := morton(^uint64(0) - 1) // encodes to 0 1^64
	if a.Equal(b) {
		t.Fatal("distinct codes must encode distinctly")
	}
	cp := a.CommonPrefix(b)
	if cp.Len() != 0 {
		t.Fatalf("CommonPrefix of %s and %s has length %d, want 0", a, b, cp.Len())
	}

	// A 64-bit prefix of a 65-bit key crosses into the second word.
	p := a.CommonPrefix(a)
	if !p.Equal(a) {
		t.Fatal("self common prefix must be identity")
	}
	for i := uint32(0); i < 65; i++ {
		wantA := 0
		if i == 0 {
			wantA = 1
		}
		if a.Bit(i) != wantA {
			t.Fatalf("encode(2^64-1).Bit(%d) = %d, want %d", i, a.Bit(i), wantA)
		}
		wantB := 1
		if i == 0 {
			wantB = 0
		}
		if b.Bit(i) != wantB {
			t.Fatalf("encode(2^64-2).Bit(%d) = %d, want %d", i, b.Bit(i), wantB)
		}
	}

	if !a.IsPrefixOf(a) {
		t.Error("IsPrefixOf must be reflexive")
	}
}
