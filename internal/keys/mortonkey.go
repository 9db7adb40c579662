package keys

// MortonCodec is the spatial key space: raw 64-bit Z-order codes
// (Interleave2 of a point's coordinates), stored as 65-bit MortonKeys.
// Every code lies inside it.
type MortonCodec struct{}

// Encode returns m's internal key, the full-length key m+1, so codes
// occupy [1, 2^64] and the dummies 0^65 and 1^65 stay free. It never
// reports false.
func (MortonCodec) Encode(m uint64) (MortonKey, bool) {
	lo := m + 1
	var hi uint64
	if lo == 0 { // m+1 carried out of 64 bits: the code 2^64-1
		hi = 1
	}
	return MortonKey{w0: hi<<63 | lo>>1, w1: lo << 63, n: 65}, true
}

// Decode inverts Encode.
func (MortonCodec) Decode(k MortonKey) uint64 { return (k.w0<<1 | k.w1>>63) - 1 }

// Bounds returns the dummies 0^65 and 1^65.
func (MortonCodec) Bounds() (lo, hi MortonKey) {
	return MortonKey{n: 65}, MortonKey{w0: ^uint64(0), w1: 1 << 63, n: 65}
}

// Check is the Morton label rule: 65-bit leaf labels, shorter internal
// labels.
func (MortonCodec) Check(label MortonKey, leaf bool) error { return checkLen(label.n, 65, leaf) }

// MortonKey is the key/label type of the spatial key space
// (MortonCodec): a binary string of at most 65 bits stored
// left-aligned in two words, canonical beyond the length. 65 bits fit
// the full 64-bit Morton code space — every (uint32, uint32) point —
// after the usual k -> k+1 shift that frees the all-zeros and all-ones
// strings for the trie's dummy leaves; a single-word key could cover at
// most 63-bit codes (31-bit coordinates).
//
// Like Uint64Key it is a pure value type: no method allocates, so the
// Morton instantiation keeps the wait-free, allocation-free search of
// the fixed-width trie.
type MortonKey struct {
	// w0 holds string bits 0..63, w1 holds bit 64 in its most
	// significant position; both canonical (zero beyond n).
	w0, w1 uint64
	n      uint32
}

// Bit returns the i-th bit of the string.
func (k MortonKey) Bit(i uint32) int {
	if i < 64 {
		return int(k.w0 >> (63 - i) & 1)
	}
	return int(k.w1 >> (127 - i) & 1)
}

// Len returns the length of the string in bits.
func (k MortonKey) Len() uint32 { return k.n }

// Equal reports whether two strings are identical.
func (k MortonKey) Equal(o MortonKey) bool { return k == o }

// IsPrefixOf reports whether k is a prefix of o.
func (k MortonKey) IsPrefixOf(o MortonKey) bool {
	if k.n > o.n {
		return false
	}
	if k.n <= 64 {
		return k.w0 == o.w0&Mask(k.n)
	}
	return k.w0 == o.w0 && k.w1 == o.w1&Mask(k.n-64)
}

// CommonPrefix returns the longest common prefix of k and o.
func (k MortonKey) CommonPrefix(o MortonKey) MortonKey {
	cpl := CommonPrefixLen(k.w0, o.w0)
	if cpl == 64 {
		cpl += CommonPrefixLen(k.w1, o.w1)
	}
	cpl = min(cpl, k.n, o.n)
	if cpl <= 64 {
		return MortonKey{w0: k.w0 & Mask(cpl), n: cpl}
	}
	return MortonKey{w0: k.w0, w1: k.w1 & Mask(cpl-64), n: cpl}
}

// Compare orders labels prefix-first lexicographically; as with
// Uint64Key, canonical zero-padding lets word comparison stand in for
// bitwise comparison, with the length breaking prefix ties.
func (k MortonKey) Compare(o MortonKey) int {
	switch {
	case k.w0 < o.w0:
		return -1
	case k.w0 > o.w0:
		return 1
	case k.w1 < o.w1:
		return -1
	case k.w1 > o.w1:
		return 1
	case k.n < o.n:
		return -1
	case k.n > o.n:
		return 1
	}
	return 0
}

// Digit returns the i-th s-bit digit (see Key.Digit). Digits with
// s > 1 can straddle bit 64 — the w0/w1 word boundary — so the two
// words are spliced into one window before the final shift. (Go shifts
// by >= 64 would be a concern only at off == 0, where the straddle
// branch cannot trigger because w <= s <= 64.)
func (k MortonKey) Digit(i, s uint32) int {
	pos := i * s
	w := min(s, k.n-pos)
	var top uint64
	if pos < 64 {
		top = k.w0 << pos
		if pos+w > 64 {
			top |= k.w1 >> (64 - pos)
		}
	} else {
		top = k.w1 << (pos - 64)
	}
	return int(top >> (64 - w))
}

// CommonDigitPrefix returns the longest common prefix floored to a whole
// number of s-bit digits (see Key.CommonDigitPrefix).
func (k MortonKey) CommonDigitPrefix(o MortonKey, s uint32) MortonKey {
	cpl := CommonPrefixLen(k.w0, o.w0)
	if cpl == 64 {
		cpl += CommonPrefixLen(k.w1, o.w1)
	}
	cpl = min(cpl, k.n, o.n)
	cpl -= cpl % s
	if cpl <= 64 {
		return MortonKey{w0: k.w0 & Mask(cpl), n: cpl}
	}
	return MortonKey{w0: k.w0, w1: k.w1 & Mask(cpl-64), n: cpl}
}

// String renders the label as "0101..." text ("ε" when empty).
func (k MortonKey) String() string { return renderLabel(k) }
