package server

import "fmt"

// BytesKeyer maps wire keys (the byte strings clients send) into the
// fixed-width uint64 key space of the keyspace trie, and back. Wire keys
// are 1 to 7 arbitrary bytes, NULs and all: the bytes big-endian in the
// top 56 bits of a 59-bit trie key, zero-padded, with the byte count in
// the low 3 bits to disambiguate the padding ("a" vs "a\x00").
//
// The mapping is injective, so two distinct wire keys never collide on
// one trie key and a SET never clobbers an unrelated key, and invertible,
// so SCAN and the dump render each trie key back as the byte string the
// client knows. It preserves lexicographic order: the padded bytes
// dominate the comparison and the length tag breaks exactly the
// zero-padding ties, in which the shorter key is the smaller one. So
// SCAN, which ascends the trie, returns keys in lexicographic order.
// Rejected, with an error the server surfaces as a RESP error: empty keys
// and keys longer than 7 bytes. Keys are never truncated or hashed.
//
// Seven bytes is not much of a namespace for a general cache, but it
// is the honest maximum a 64-bit trie key can carry reversibly; wider
// key spaces belong to a StringMap-backed server (future work), not to
// a lossy hash bolted onto this one.
type BytesKeyer struct{}

// Keyer exists only for the benchmark harness (benchmark/), which
// declares its key-encoding helper over this name. The server calls
// BytesKeyer directly.
type Keyer = BytesKeyer

// BytesKeyerMaxLen is the longest wire key BytesKeyer can represent.
const BytesKeyerMaxLen = 7

// Width is the trie key width in bits: 7 bytes of payload plus the 3-bit
// length tag.
func (BytesKeyer) Width() uint32 { return 59 }

// Encode maps a wire key to a trie key in [0, 2^Width()), or returns an
// error describing why the key is not representable.
func (BytesKeyer) Encode(key []byte) (uint64, error) {
	n := len(key)
	if n == 0 {
		return 0, fmt.Errorf("empty key")
	}
	if n > BytesKeyerMaxLen {
		return 0, fmt.Errorf("bytes keyer: key of %d bytes exceeds the %d-byte maximum", n, BytesKeyerMaxLen)
	}
	var v uint64
	for _, b := range key {
		v = v<<8 | uint64(b)
	}
	v <<= 8 * uint(BytesKeyerMaxLen-n) // left-align: pad toward the low bytes
	return v<<3 | uint64(n), nil
}

// AppendDecode appends the wire key of a trie key produced by Encode to
// dst and returns the extended slice, so a caller decoding many keys can
// reuse one buffer. It is only defined on Encode's image; the server only
// calls it on keys read back out of the trie.
func (BytesKeyer) AppendDecode(dst []byte, k uint64) []byte {
	v := k >> 3
	for i := range int(k & 7) {
		dst = append(dst, byte(v>>(8*uint(BytesKeyerMaxLen-1-i))))
	}
	return dst
}
