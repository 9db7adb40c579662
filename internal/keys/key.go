package keys

import "strings"

// Key is the constraint satisfied by the key/label types the shared
// update engine (internal/engine) is generic over. A Key value is an
// immutable, canonical binary string; the engine uses the same type for
// full-length keys and for the internal-node labels (prefixes) it
// derives from them.
//
// Implementations must satisfy three structural contracts the engine's
// correctness argument leans on:
//
//   - The zero value of K is the empty string (Len() == 0): it anchors
//     the root, whose label must be a prefix of every key.
//   - Values are canonical: two equal strings are Equal as Go values
//     wherever the implementation compares representations directly.
//   - Compare is the total "prefix-first lexicographic" order — bitwise
//     lexicographic, with a proper prefix ordered before any of its
//     extensions. The engine sorts flag sets with it (livelock
//     avoidance needs one global order) and drives ordered traversal
//     off it, so every instantiation inherits sorted iteration for
//     free.
//
// The three key spaces in this repository are Uint64Key (fixed-width
// integer keys, U64Codec), Bitstring (the Section VI unbounded
// byte-string encoding, StringCodec) and MortonKey (65-bit Z-order
// point keys, MortonCodec). A new key space needs only this interface
// plus a codec (internal/kv.Codec): the user-key mapping, two dummy
// keys bounding the encoded space and a label rule — no protocol code.
// renderLabel renders a label as "0101..." text, with "ε" for the empty
// string — the shared String implementation of the fixed-size key types.
// (Bitstring keeps its own String, whose historical contract renders the
// empty string as "".)
func renderLabel[K Key[K]](k K) string {
	n := k.Len()
	if n == 0 {
		return "ε"
	}
	var sb strings.Builder
	sb.Grow(int(n))
	for i := uint32(0); i < n; i++ {
		sb.WriteByte(byte('0' + k.Bit(i)))
	}
	return sb.String()
}

type Key[K any] interface {
	// Bit returns the i-th bit (0-indexed from the start of the
	// string); i must be < Len().
	Bit(i uint32) int
	// Len returns the length of the string in bits.
	Len() uint32
	// Equal reports whether the two strings are identical.
	Equal(K) bool
	// IsPrefixOf reports whether the receiver is a (not necessarily
	// proper) prefix of the argument.
	IsPrefixOf(K) bool
	// CommonPrefix returns the longest common prefix of the two
	// strings.
	CommonPrefix(K) K
	// Compare orders strings prefix-first lexicographically,
	// returning -1, 0 or +1.
	Compare(K) int
	// Digit returns the i-th s-bit digit of the string: the bits
	// [i*s, min((i+1)*s, Len())) read as an integer, most significant
	// bit first. The digit at the tail of a string whose length is not
	// a multiple of s is partial — fewer than s bits wide — and its
	// value ranges over [0, 2^r) for the r remaining bits. i*s must be
	// < Len(). Digit(i, 1) == Bit(i). The k-ary engine dispatches on
	// digits instead of bits, resolving s levels of the binary trie
	// with one child-array index.
	Digit(i, s uint32) int
	// CommonDigitPrefix returns the longest common prefix of the two
	// strings truncated down to a whole number of s-bit digits — the
	// label of the k-ary internal node that separates them.
	// CommonDigitPrefix(o, 1) == CommonPrefix(o).
	CommonDigitPrefix(o K, s uint32) K
}

// DigitRef is the bit-by-bit reference implementation of Key.Digit, the
// oracle the per-type fast paths are fuzzed against: it assembles the
// digit one Bit call at a time.
func DigitRef[K Key[K]](k K, i, s uint32) int {
	lo := i * s
	hi := min(lo+s, k.Len())
	d := 0
	for p := lo; p < hi; p++ {
		d = d<<1 | k.Bit(p)
	}
	return d
}
