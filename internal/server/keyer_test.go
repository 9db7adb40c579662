package server

import (
	"bytes"
	"math/rand/v2"
	"testing"
)

func TestBytesKeyerRoundTrip(t *testing.T) {
	b := BytesKeyer{}
	keys := [][]byte{
		[]byte("a"), []byte("ab"), []byte("abcdefg"),
		{0}, {0, 0}, {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		[]byte("a\x00b"), []byte("1234567"), {0, 1, 2},
	}
	seen := map[uint64][]byte{}
	for _, key := range keys {
		k, err := b.Encode(key)
		if err != nil {
			t.Fatalf("Encode(%q): %v", key, err)
		}
		if k >= 1<<b.Width() {
			t.Fatalf("Encode(%q) = %d outside the %d-bit space", key, k, b.Width())
		}
		if prev, dup := seen[k]; dup {
			t.Fatalf("collision: %q and %q both encode to %d", prev, key, k)
		}
		seen[k] = key
		if got := b.AppendDecode(nil, k); !bytes.Equal(got, key) {
			t.Errorf("AppendDecode(nil, Encode(%q)) = %q", key, got)
		}
		// Appending keeps what dst held: the dump decodes every key into
		// one reused buffer.
		if got := b.AppendDecode([]byte("pre"), k); !bytes.Equal(got, append([]byte("pre"), key...)) {
			t.Errorf("AppendDecode(pre, Encode(%q)) = %q", key, got)
		}
	}
	for _, key := range [][]byte{{}, []byte("12345678")} {
		if _, err := b.Encode(key); err == nil {
			t.Errorf("Encode(%q) accepted, want error", key)
		}
	}
}

// TestMixBijection: mix and unmix are inverse maps of [0, 2^59) onto
// itself, on random words and on the edges of the space.
func TestMixBijection(t *testing.T) {
	const top = 1<<59 - 1
	rng := rand.New(rand.NewPCG(1, 2))
	in := []uint64{0, 1, 2, top - 1, top}
	for range 100_000 {
		in = append(in, rng.Uint64()&top)
	}
	seen := make(map[uint64]uint64, len(in))
	for _, x := range in {
		y := mix(x)
		if y > top {
			t.Fatalf("mix(%#x) = %#x, outside 59 bits", x, y)
		}
		if back := unmix(y); back != x {
			t.Fatalf("unmix(mix(%#x)) = %#x", x, back)
		}
		if z := unmix(x); z > top || mix(z) != x {
			t.Fatalf("mix(unmix(%#x)) = %#x (unmix %#x)", x, mix(z), z)
		}
		if prev, dup := seen[y]; dup && prev != x {
			t.Fatalf("mix(%#x) = mix(%#x) = %#x", x, prev, y)
		}
		seen[y] = x
	}
}

// TestBytesKeyerExhaustiveShort proves injectivity exhaustively for all
// 1- and 2-byte keys (the padding/length-tag interplay lives there).
func TestBytesKeyerExhaustiveShort(t *testing.T) {
	b := BytesKeyer{}
	seen := make(map[uint64]bool, 256+65536)
	n := 0
	for x := 0; x < 256; x++ {
		k, err := b.Encode([]byte{byte(x)})
		if err != nil || seen[k] {
			t.Fatalf("1-byte %02x: err=%v dup=%v", x, err, seen[k])
		}
		seen[k] = true
		n++
	}
	for x := 0; x < 65536; x++ {
		k, err := b.Encode([]byte{byte(x >> 8), byte(x)})
		if err != nil || seen[k] {
			t.Fatalf("2-byte %04x: err=%v dup=%v", x, err, seen[k])
		}
		seen[k] = true
		n++
	}
	if n != 256+65536 {
		t.Fatalf("covered %d keys", n)
	}
}

// FuzzBytesKeyerRoundTrip: every key of 1 to 7 bytes encodes into the
// 59-bit space and decodes back to itself; every other length is
// refused.
func FuzzBytesKeyerRoundTrip(f *testing.F) {
	for _, seed := range []string{"a", "a\x00", "\x00", "1234567", "\xff\xff\xff\xff\xff\xff\xff", "", "12345678"} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, key []byte) {
		b := BytesKeyer{}
		k, err := b.Encode(key)
		if len(key) == 0 || len(key) > BytesKeyerMaxLen {
			if err == nil {
				t.Fatalf("Encode(%q) accepted, want error", key)
			}
			return
		}
		if err != nil {
			t.Fatalf("Encode(%q): %v", key, err)
		}
		if k >= 1<<b.Width() {
			t.Fatalf("Encode(%q) = %#x outside the %d-bit space", key, k, b.Width())
		}
		if got := b.AppendDecode(nil, k); !bytes.Equal(got, key) {
			t.Fatalf("AppendDecode(nil, Encode(%q)) = %q", key, got)
		}
	})
}
