package server

import "fmt"

// BytesKeyer maps wire keys (the byte strings clients send) into the
// fixed-width uint64 key space of the keyspace trie, and back. Wire keys
// are 1 to 7 arbitrary bytes, NULs and all. Encode packs them big-endian
// into the top 56 bits of a 59-bit word, zero-padded, with the byte count
// in the low 3 bits to disambiguate the padding ("a" vs "a\x00"), and
// then passes the word through mix, a bijection on 59 bits.
//
// The mapping is injective, so two distinct wire keys never collide on
// one trie key and a SET never clobbers an unrelated key, and invertible,
// so SCAN and the dump render each trie key back as the byte string the
// client knows. The mix is there for the trie's shape: packed ASCII keys
// vary in a few low bits of each byte, so unmixed they build a trie
// levels deeper than the log2 n + 0.33 the Patricia analysis predicts
// for uniform keys and reach a handful of the shortcut table's slots;
// mixed, they fill the 59-bit space like uniform keys do. The price is
// order: SCAN, which ascends the trie, returns keys in mix order, not in
// lexicographic order (Redis promises no SCAN order either).
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
	return mix(v<<3 | uint64(n)), nil
}

// AppendDecode appends the wire key of a trie key produced by Encode to
// dst and returns the extended slice, so a caller decoding many keys can
// reuse one buffer. It is only defined on Encode's image; the server only
// calls it on keys read back out of the trie.
func (BytesKeyer) AppendDecode(dst []byte, k uint64) []byte {
	k = unmix(k)
	v := k >> 3
	for i := range int(k & 7) {
		dst = append(dst, byte(v>>(8*uint(BytesKeyerMaxLen-1-i))))
	}
	return dst
}

// The mix is splitmix64's finalizer cut down to 59 bits: xorshift-right
// and multiply-by-odd rounds, each computed modulo 2^59. A right xorshift
// keeps a 59-bit word inside 59 bits and is undone by xoring in its
// repeated shifts; an odd multiplier is a unit modulo 2^59, undone by
// its inverse. So mix is a bijection on [0, 2^59) and unmix inverts it.
const (
	mixMask             = 1<<59 - 1
	mixMul1             = 0xbf58476d1ce4e5b9
	mixMul2             = 0x94d049bb133111eb
	mixInv1             = 0x96de1b173f119089 // mixMul1 * mixInv1 = 1 mod 2^64
	mixInv2             = 0x319642b2d24d8ec3 // mixMul2 * mixInv2 = 1 mod 2^64
	mixS1, mixS2, mixS3 = 31, 29, 32
)

// mix maps [0, 2^59) onto itself one to one, spreading every input bit
// over the whole word.
func mix(x uint64) uint64 {
	x ^= x >> mixS1
	x = x * mixMul1 & mixMask
	x ^= x >> mixS2
	x = x * mixMul2 & mixMask
	return x ^ x>>mixS3
}

// unmix inverts mix.
func unmix(x uint64) uint64 {
	x = unshift(x, mixS3)
	x = x * mixInv2 & mixMask
	x = unshift(x, mixS2)
	x = x * mixInv1 & mixMask
	return unshift(x, mixS1)
}

// unshift inverts y = x ^ x>>s on 59-bit words: x = y ^ y>>s ^ y>>2s ^ ...
func unshift(y uint64, s uint) uint64 {
	x := y
	for sh := s; sh < 59; sh += s {
		x ^= y >> sh
	}
	return x
}
