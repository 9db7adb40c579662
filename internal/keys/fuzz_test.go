package keys

import (
	"bytes"
	"testing"
)

// Native Go fuzz targets for the key-encoding layer. CI runs each for a
// short burst (-fuzztime 10s); locally, `go test -fuzz=FuzzX` digs
// deeper. The properties fuzzed here are the ones the tries' correctness
// rests on: round-trip fidelity and prefix-freedom of the Section VI
// string encoding, and bijectivity plus order preservation of the
// Morton encodings.

// FuzzEncodeStringRoundTrip: decode(encode(s)) == s for every byte
// string, and the encoding has the documented shape (16·len+2 bits).
func FuzzEncodeStringRoundTrip(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{0})
	f.Add([]byte{0xff})
	f.Add([]byte("hello"))
	f.Add(bytes.Repeat([]byte{0xa5}, 40)) // cross word boundaries
	f.Fuzz(func(t *testing.T, s []byte) {
		enc := EncodeString(s)
		if want := uint32(16*len(s) + 2); enc.Len() != want {
			t.Fatalf("EncodeString(%x).Len() = %d, want %d", s, enc.Len(), want)
		}
		dec, ok := DecodeString(enc)
		if !ok {
			t.Fatalf("DecodeString rejected a valid encoding of %x", s)
		}
		if !bytes.Equal(dec, s) {
			t.Fatalf("round trip %x -> %x", s, dec)
		}
	})
}

// FuzzEncodeStringPrefixFree: the encoded key space is prefix-free —
// no encoding is a proper prefix of another — which is the property
// that makes variable-length keys safe in a Patricia trie. The dummies
// 00 and 111 must also never collide with an encoding.
func FuzzEncodeStringPrefixFree(f *testing.F) {
	f.Add([]byte("a"), []byte("ab"))
	f.Add([]byte{0x01}, []byte{0x01, 0x00})
	f.Add([]byte(nil), []byte{0x00})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		ea, eb := EncodeString(a), EncodeString(b)
		if bytes.Equal(a, b) {
			if !ea.Equal(eb) {
				t.Fatal("equal strings must encode equally")
			}
			return
		}
		if ea.IsPrefixOf(eb) || eb.IsPrefixOf(ea) {
			t.Fatalf("encodings of %x and %x are prefix-related", a, b)
		}
		if len(a) > 0 {
			if lo, hi := (StringCodec{}).Bounds(); lo.IsPrefixOf(ea) || !(lo.Compare(ea) < 0 && ea.Compare(hi) < 0) {
				t.Fatalf("encoding of %x not strictly between the dummies", a)
			}
		}
	})
}

// FuzzMortonRoundTrip: Interleave2/Deinterleave2 are mutually inverse
// bijections (both directions), and MortonCodec Encode/Decode
// round-trips with order preserved.
func FuzzMortonRoundTrip(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint64(0))
	f.Add(^uint32(0), ^uint32(0), ^uint64(0))
	f.Add(uint32(0xdeadbeef), uint32(0x12345678), uint64(1)<<63)
	f.Fuzz(func(t *testing.T, x, y uint32, m uint64) {
		// Point -> code -> point.
		gx, gy := Deinterleave2(Interleave2(x, y))
		if gx != x || gy != y {
			t.Fatalf("Deinterleave2(Interleave2(%d,%d)) = (%d,%d)", x, y, gx, gy)
		}
		// Code -> point -> code.
		mx, my := Deinterleave2(m)
		if got := Interleave2(mx, my); got != m {
			t.Fatalf("Interleave2(Deinterleave2(%#x)) = %#x", m, got)
		}
		// MortonKey encode/decode and order.
		if got := (MortonCodec{}).Decode(morton(m)); got != m {
			t.Fatalf("decode(encode(%#x)) = %#x", m, got)
		}
		m2 := Interleave2(x, y)
		wantCmp := 0
		if m < m2 {
			wantCmp = -1
		} else if m > m2 {
			wantCmp = 1
		}
		if got := morton(m).Compare(morton(m2)); got != wantCmp {
			t.Fatalf("MortonKey order of %#x vs %#x = %d, want %d", m, m2, got, wantCmp)
		}
	})
}
