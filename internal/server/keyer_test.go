package server

import (
	"bytes"
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

// TestBytesKeyerOrder: trie-key order must equal lexicographic wire-key
// order, so SCAN walks keys in the order a client expects.
func TestBytesKeyerOrder(t *testing.T) {
	b := BytesKeyer{}
	sorted := [][]byte{
		{0}, {0, 0}, {0, 1}, []byte("a"), []byte("a\x00"), []byte("a\x00\x00"),
		[]byte("a\x01"), []byte("ab"), []byte("abcdefg"), []byte("b"), {0xff}, {0xff, 0x00},
	}
	for i := 1; i < len(sorted); i++ {
		prev, _ := b.Encode(sorted[i-1])
		cur, _ := b.Encode(sorted[i])
		if prev >= cur {
			t.Errorf("order broken: %q (%d) !< %q (%d)", sorted[i-1], prev, sorted[i], cur)
		}
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
