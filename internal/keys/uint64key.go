package keys

import "fmt"

// U64Codec is the fixed-width key space: user keys in [0, 2^Width),
// stored as full-length keys of ℓ = Width+1 bits. Keys at or above
// 2^Width lie outside it.
type U64Codec struct{ Width uint32 }

// Encode returns k's internal key, and false for k >= 2^Width. The
// mapping is k -> k+1 in ℓ bits, so user keys occupy [1, 2^Width] while
// the all-zeros and all-ones strings remain free for the trie's two
// dummy leaves, exactly as the paper requires ("we assume the keys 0^ℓ
// and 1^ℓ cannot be elements of D").
func (c U64Codec) Encode(k uint64) (Uint64Key, bool) {
	if !InRange(k, c.Width) {
		return Uint64Key{}, false
	}
	return Uint64Key{bits: (k + 1) << (63 - c.Width), n: c.Width + 1}, true
}

// Decode inverts Encode.
func (c U64Codec) Decode(k Uint64Key) uint64 { return k.bits>>(63-c.Width) - 1 }

// Bounds returns the dummies 0^ℓ and 1^ℓ.
func (c U64Codec) Bounds() (lo, hi Uint64Key) {
	return Uint64Key{n: c.Width + 1}, Uint64Key{bits: Mask(c.Width + 1), n: c.Width + 1}
}

// Check is the fixed-width label rule: canonical bits, the full key
// length ℓ on leaves and a shorter label on internal nodes.
func (c U64Codec) Check(label Uint64Key, leaf bool) error {
	if label.bits&^Mask(label.n) != 0 {
		return fmt.Errorf("label %#x/%d is not canonical", label.bits, label.n)
	}
	return checkLen(label.n, c.Width+1, leaf)
}

// checkLen is the label-length rule of the bounded key spaces: a leaf
// carries a full-length key, an internal node a strictly shorter label.
func checkLen(n, full uint32, leaf bool) error {
	if leaf && n != full {
		return fmt.Errorf("leaf label length %d != key length %d", n, full)
	}
	if !leaf && n >= full {
		return fmt.Errorf("internal label length %d must be < key length %d", n, full)
	}
	return nil
}

// Uint64Key is the fixed-width key/label type (U64Codec):
// a binary string of at most 64 bits stored left-aligned in a single
// word, canonical (zero beyond the length). It implements Key[Uint64Key]
// with pure value arithmetic — no method allocates — which is what keeps
// the fixed-width instantiation's search wait-free and allocation-free
// through the generic engine.
type Uint64Key struct {
	bits uint64
	n    uint32
}

// MakeUint64Key builds a label from left-aligned canonical bits and a
// length. The caller must ensure bits are zero beyond n.
func MakeUint64Key(bits uint64, plen uint32) Uint64Key {
	return Uint64Key{bits: bits, n: plen}
}

// Bit returns the i-th bit of the string.
func (k Uint64Key) Bit(i uint32) int { return BitAt(k.bits, i) }

// Len returns the length of the string in bits.
func (k Uint64Key) Len() uint32 { return k.n }

// Equal reports whether two strings are identical.
func (k Uint64Key) Equal(o Uint64Key) bool { return k == o }

// IsPrefixOf reports whether k is a prefix of o.
func (k Uint64Key) IsPrefixOf(o Uint64Key) bool {
	return k.n <= o.n && IsPrefix(k.bits, k.n, o.bits)
}

// CommonPrefix returns the longest common prefix of k and o.
func (k Uint64Key) CommonPrefix(o Uint64Key) Uint64Key {
	cpl := min(CommonPrefixLen(k.bits, o.bits), k.n, o.n)
	return Uint64Key{bits: k.bits & Mask(cpl), n: cpl}
}

// Compare orders labels prefix-first lexicographically. For canonical
// left-aligned labels this is exactly (bits, length) lexicographic:
// zero-padding makes the word comparison agree with bitwise comparison
// up to the shorter length, and equal words mean one label is a prefix
// of the other, so the shorter sorts first.
func (k Uint64Key) Compare(o Uint64Key) int {
	switch {
	case k.bits < o.bits:
		return -1
	case k.bits > o.bits:
		return 1
	case k.n < o.n:
		return -1
	case k.n > o.n:
		return 1
	}
	return 0
}

// Digit returns the i-th s-bit digit (see Key.Digit). One shift-mask on
// the left-aligned word: shifting the digit's first bit to the MSB and
// the word down to the digit's (possibly partial) width.
func (k Uint64Key) Digit(i, s uint32) int {
	pos := i * s
	w := min(s, k.n-pos)
	return int(k.bits << pos >> (64 - w))
}

// CommonDigitPrefix returns the longest common prefix floored to a whole
// number of s-bit digits (see Key.CommonDigitPrefix).
func (k Uint64Key) CommonDigitPrefix(o Uint64Key, s uint32) Uint64Key {
	cpl := min(CommonPrefixLen(k.bits, o.bits), k.n, o.n)
	cpl -= cpl % s
	return Uint64Key{bits: k.bits & Mask(cpl), n: cpl}
}

// String renders the label as "0101..." text ("ε" when empty).
func (k Uint64Key) String() string { return renderLabel(k) }
