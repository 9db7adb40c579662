package server

import (
	"bytes"
	"testing"
)

func TestDecimalKeyerRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		width uint32
		keys  []string
	}{
		{20, []string{"0", "1", "7", "42", "1048575"}},
		{63, []string{"0", "42", "9223372036854775807"}},
	} {
		d := DecimalKeyer{KeyWidth: tc.width}
		for _, key := range tc.keys {
			k, err := d.Encode([]byte(key))
			if err != nil {
				t.Fatalf("width %d: Encode(%q): %v", tc.width, key, err)
			}
			if got := string(d.AppendDecode(nil, k)); got != key {
				t.Errorf("width %d: AppendDecode(nil, Encode(%q)) = %q", tc.width, key, got)
			}
		}
	}
	// Encode runs on every command: the manual digit parse must not
	// allocate (a strconv string conversion would).
	d := DecimalKeyer{KeyWidth: 63}
	num := []byte("123456789")
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := d.Encode(num); err != nil {
			panic(err)
		}
	}); allocs != 0 {
		t.Errorf("decimal Encode allocates %.1f/op, pinned at 0", allocs)
	}
}

func TestDecimalKeyerRejects(t *testing.T) {
	d := DecimalKeyer{KeyWidth: 20}
	for _, key := range []string{"", "007", "-1", "+1", " 1", "1 ", "abc", "1a", "1048576", "99999999999999999999999"} {
		if k, err := d.Encode([]byte(key)); err == nil {
			t.Errorf("Encode(%q) = %d, want error", key, k)
		}
	}
}

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

// TestNewKeyer covers the one resolver behind nbtried's -keyer/-width
// pair: the decimal keyer takes the width, the bytes keyer ignores it.
func TestNewKeyer(t *testing.T) {
	for _, c := range []struct {
		name  string
		width uint32
		want  uint32
	}{{"bytes", 63, 59}, {"decimal", 20, 20}, {"decimal", 63, 63}} {
		k, err := NewKeyer(c.name, c.width)
		if err != nil || k.Name() != c.name || k.Width() != c.want {
			t.Errorf("NewKeyer(%q, %d) = %v, %v; want width %d", c.name, c.width, k, err, c.want)
			continue
		}
		// The widths must be accepted by the sharded map.
		s, err := New(Config{Keyer: k})
		if err != nil {
			t.Errorf("server over %s keyer: %v", c.name, err)
			continue
		}
		s.Close()
	}
	for _, w := range []uint32{0, 64} {
		if _, err := NewKeyer("decimal", w); err == nil {
			t.Errorf("NewKeyer must reject decimal width %d", w)
		}
	}
	if _, err := NewKeyer("md5", 63); err == nil {
		t.Error("NewKeyer must reject unknown names")
	}
}
