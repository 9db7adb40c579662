package server

import (
	"fmt"
	"math"
	"strconv"
)

// A Keyer maps wire keys (the byte strings clients send) into the
// fixed-width uint64 key space of the backing sharded trie, and back.
// Making this pluggable — instead of, say, hashing every string to 64
// bits — keeps the width/shard configuration honest: the mapping must
// be *injective* (two distinct wire keys never collide on one trie
// key, so a SET can never clobber an unrelated key) and *invertible*
// (SCAN walks the trie's key space and must render each key back as
// the byte string the client knows). Keys the mapping cannot represent
// are refused with an error the server surfaces as a RESP error; they
// are never silently truncated or hashed.
//
// A Keyer that additionally preserves lexicographic order (BytesKeyer
// does; DecimalKeyer preserves numeric order) makes SCAN's cursor
// iterate in the corresponding key order, for free, because the trie
// ascends its encoded key space.
type Keyer interface {
	// Name identifies the keyer in INFO output and CLI flags.
	Name() string
	// Width is the trie key width in bits this keyer encodes into; the
	// server sizes its ShardedMap with it.
	Width() uint32
	// Encode maps a wire key to a trie key in [0, 2^Width()), or
	// returns an error describing why the key is not representable.
	Encode(key []byte) (uint64, error)
	// AppendDecode appends the wire key of a trie key produced by Encode
	// to dst and returns the extended slice, so a caller decoding many
	// keys can reuse one buffer. It is only defined on Encode's image;
	// the server only calls it on keys read back out of the trie.
	AppendDecode(dst []byte, k uint64) []byte
}

// NewKeyer resolves a keyer by name: "bytes" (BytesKeyer, whose width
// is fixed at 59, so width is ignored) or "decimal" (DecimalKeyer at
// width, which must be in [1, 63]).
func NewKeyer(name string, width uint32) (Keyer, error) {
	switch name {
	case "bytes":
		return BytesKeyer{}, nil
	case "decimal":
		if width < 1 || width > 63 {
			return nil, fmt.Errorf("width %d out of range [1, 63]", width)
		}
		return DecimalKeyer{KeyWidth: width}, nil
	default:
		return nil, fmt.Errorf("unknown keyer %q (want bytes or decimal)", name)
	}
}

// DecimalKeyer interprets wire keys as canonical decimal integers in
// [0, 2^KeyWidth): "0", "7", "1000001". Rejected: empty keys, any
// non-digit (including signs and spaces), leading zeros ("007" —
// canonical form keeps the mapping bijective, so SCAN returns exactly
// the spelling that was stored), and values outside the width. Numeric
// order of the wire keys equals trie key order, so SCAN ascends
// numerically.
type DecimalKeyer struct {
	// KeyWidth is the trie width in bits, in [1, 63].
	KeyWidth uint32
}

// Name implements Keyer.
func (DecimalKeyer) Name() string { return "decimal" }

// Width implements Keyer.
func (d DecimalKeyer) Width() uint32 { return d.KeyWidth }

// Encode implements Keyer.
func (d DecimalKeyer) Encode(key []byte) (uint64, error) {
	if len(key) == 0 {
		return 0, fmt.Errorf("empty key")
	}
	if len(key) > 1 && key[0] == '0' {
		return 0, fmt.Errorf("decimal keyer: key %q has leading zeros (canonical decimal only)", key)
	}
	for _, c := range key {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("decimal keyer: key %q is not a decimal integer", key)
		}
	}
	// Accumulate manually: strconv.ParseUint(string(key), ...) would
	// heap-allocate the string conversion on every command.
	var n uint64
	for _, c := range key {
		dig := uint64(c - '0')
		if n > (math.MaxUint64-dig)/10 {
			return 0, fmt.Errorf("decimal keyer: key %q out of range", key)
		}
		n = n*10 + dig
	}
	if n >= uint64(1)<<d.KeyWidth {
		return 0, fmt.Errorf("decimal keyer: key %q outside [0, 2^%d)", key, d.KeyWidth)
	}
	return n, nil
}

// AppendDecode implements Keyer.
func (DecimalKeyer) AppendDecode(dst []byte, k uint64) []byte {
	return strconv.AppendUint(dst, k, 10)
}

// BytesKeyer maps short binary keys — 1 to 7 arbitrary bytes, NULs and
// all — injectively into a 59-bit trie key: the bytes big-endian in
// the top 56 bits, zero-padded, with the byte count in the low 3 bits
// to disambiguate the padding ("a" vs "a\x00"). The mapping preserves
// lexicographic order: the padded bytes dominate the comparison and
// the length tag breaks exactly the zero-padding ties, in which the
// shorter key is the lexicographically smaller one. Rejected: empty
// keys and keys longer than 7 bytes.
//
// Seven bytes is not much of a namespace for a general cache, but it
// is the honest maximum a 64-bit trie key can carry reversibly; wider
// key spaces belong to a StringMap-backed server (future work), not to
// a lossy hash bolted onto this one.
type BytesKeyer struct{}

// BytesKeyerMaxLen is the longest wire key BytesKeyer can represent.
const BytesKeyerMaxLen = 7

// Name implements Keyer.
func (BytesKeyer) Name() string { return "bytes" }

// Width implements Keyer: 7 bytes of payload plus the 3-bit length tag.
func (BytesKeyer) Width() uint32 { return 59 }

// Encode implements Keyer.
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

// AppendDecode implements Keyer.
func (BytesKeyer) AppendDecode(dst []byte, k uint64) []byte {
	v := k >> 3
	for i := range int(k & 7) {
		dst = append(dst, byte(v>>(8*uint(BytesKeyerMaxLen-1-i))))
	}
	return dst
}
