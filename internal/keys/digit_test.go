package keys

import "testing"

// digitSpans are the spans the engine instantiates (s=1 must agree with
// Bit; s=4 is the PAT-K default; 6 is the widest the fuzz battery uses).
var digitSpans = []uint32{1, 2, 3, 4, 5, 6}

// checkDigits asserts the s-bit digit of k at every bit position — the
// engine's digit schedule starts digits off multiples of s below a wide
// root — against the bit-by-bit reference, and that the common prefix
// floored to a multiple of s, cut with Prefix, is a prefix of both keys.
func checkDigits[K Key[K]](t *testing.T, name string, k, o K, s uint32) {
	t.Helper()
	for pos := uint32(0); pos < k.Len(); pos++ {
		got, want := k.Digit(pos, s), DigitRef(k, pos, s)
		if got != want {
			t.Fatalf("%s: Digit(%d, %d) = %d, want %d (key %v)", name, pos, s, got, want, k)
		}
	}
	cp := k.CommonPrefix(o)
	want := cp.Len() - cp.Len()%s
	dp := cp.Prefix(want)
	if dp.Len() != want {
		t.Fatalf("%s: Prefix(%d) has length %d (keys %v / %v)", name, want, dp.Len(), k, o)
	}
	if !dp.IsPrefixOf(k) || !dp.IsPrefixOf(o) {
		t.Fatalf("%s: Prefix(%d) = %v is not a prefix of both %v and %v", name, want, dp, k, o)
	}
}

func TestDigitKnownValues(t *testing.T) {
	// 1011 0111 001 as a Uint64Key: 4-bit digits 0b1011=11, 0b0111=7,
	// and the partial 3-bit tail 0b001=1.
	k := MakeUint64Key(0b10110111001<<53, 11)
	for i, want := range []int{11, 7, 1} {
		if got := k.Digit(uint32(i)*4, 4); got != want {
			t.Fatalf("Digit(%d, 4) = %d, want %d", i*4, got, want)
		}
	}
	if got := k.Digit(3, 1); got != 1 {
		t.Fatalf("Digit(3, 1) = %d, want 1 (Bit fast-path agreement)", got)
	}
	// A digit off the multiples of its width, as below a 3-bit root:
	// bits 3..6 are 1011.
	if got := k.Digit(3, 4); got != 11 {
		t.Fatalf("Digit(3, 4) = %d, want 11", got)
	}
}

func TestDigitWordStraddle(t *testing.T) {
	// A Bitstring digit straddling the 64-bit word boundary: bits
	// 62..65 of a 70-bit string.
	bits := make([]int, 70)
	bits[62], bits[63], bits[64], bits[65] = 1, 0, 1, 1
	b := BitstringFromBits(bits)
	// checkDigits reads a digit at every position, so each span crosses
	// the boundary.
	for _, s := range digitSpans {
		checkDigits(t, "bitstring-straddle", b, b.Prefix(64), s)
	}

	// MortonKey's 65th bit (the w0/w1 boundary) — including the carry
	// corner of the code 2^64-1, whose encoding sets bit 64 via w1.
	for _, m := range []uint64{0, 1, ^uint64(0), ^uint64(0) - 1, 1 << 63} {
		k := morton(m)
		for _, s := range digitSpans {
			checkDigits(t, "morton-boundary", k, morton(m^1), s)
		}
	}
}

// FuzzDigitAgreement checks the per-type Digit fast paths
// (Uint64Key shift-mask, Bitstring word-at-a-time, MortonKey two-word
// splice) against the bit-by-bit DigitRef oracle, across every span the
// engine uses, plus the Prefix contract.
func FuzzDigitAgreement(f *testing.F) {
	f.Add(uint64(0), uint64(0), []byte(""), uint8(20))
	f.Add(uint64(1)<<62, uint64(3)<<61, []byte("ab"), uint8(63))
	f.Add(^uint64(0), ^uint64(0)-1, []byte("straddle!"), uint8(59))
	f.Fuzz(func(t *testing.T, a, b uint64, s []byte, width uint8) {
		w := uint32(width%MaxWidth) + 1
		ka := u64(a&(1<<w-1), w)
		kb := u64(b&(1<<w-1), w)
		ma, mb := morton(a), morton(b)
		if len(s) > 64 {
			s = s[:64]
		}
		ba := EncodeString(s)
		_, bb := StringCodec{}.Bounds()
		if len(s) > 0 {
			bb = EncodeString(s[1:])
		}
		for _, span := range digitSpans {
			checkDigits(t, "uint64", ka, kb, span)
			checkDigits(t, "morton", ma, mb, span)
			checkDigits(t, "bitstring", ba, bb, span)
			// Labels (non-full-length keys) exercise the partial tail at
			// arbitrary positions.
			checkDigits(t, "uint64-label", ka.CommonPrefix(kb), ka, span)
			checkDigits(t, "morton-label", ma.CommonPrefix(mb), ma, span)
			checkDigits(t, "bitstring-label", ba.CommonPrefix(bb), ba, span)
		}
	})
}
