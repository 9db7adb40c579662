// Package keys provides the bit-string arithmetic that underlies the
// Patricia-trie implementations in this repository.
//
// A key of a binary Patricia trie is an ℓ-bit binary string. We store all
// keys and node labels left-aligned in a uint64: bit 0 of the string is the
// most significant bit of the word. A label is a (bits, length) pair whose
// bits beyond the length are zero ("canonical form"). With this layout the
// prefix tests and bit extractions of the paper's pseudo-code compile to a
// mask-and-compare or a shift.
//
// The package also provides Morton (bit-interleaved) encodings used to map
// points in the plane onto trie keys (the paper's GIS motivation for the
// replace operation), and the variable-length string encoding of the paper's
// Section VI (0 -> 01, 1 -> 10, end-of-string -> 11).
package keys

import "math/bits"

// MaxWidth is the largest supported user-key width in bits. The trie adds
// one internal bit (see U64Codec), so internal keys fit in a uint64.
const MaxWidth = 63

// Mask returns a uint64 whose top n bits are ones. Mask(0) == 0.
func Mask(n uint32) uint64 {
	if n == 0 {
		return 0
	}
	return ^uint64(0) << (64 - n)
}

// BitAt returns the i-th bit (0-indexed from the most significant end) of a
// left-aligned bit string. This is the "(|label|+1)-th bit" of the paper's
// pseudo-code when i is the label length.
func BitAt(b uint64, i uint32) int {
	return int((b >> (63 - i)) & 1)
}

// IsPrefix reports whether the length-plen left-aligned label pbits is a
// prefix of the left-aligned bit string b. pbits must be canonical (zero
// beyond plen).
func IsPrefix(pbits uint64, plen uint32, b uint64) bool {
	return b&Mask(plen) == pbits
}

// CommonPrefixLen returns the length of the longest common prefix of two
// left-aligned 64-bit strings (64 if they are equal).
func CommonPrefixLen(a, b uint64) uint32 {
	return uint32(bits.LeadingZeros64(a ^ b))
}

// InRange reports whether k fits in width bits.
func InRange(k uint64, width uint32) bool {
	if width >= 64 {
		return true
	}
	return k < 1<<width
}
