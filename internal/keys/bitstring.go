package keys

import (
	"fmt"
	"strings"
)

// StringCodec is the Section VI key space: non-empty byte strings,
// encoded bit-pair-wise (EncodeString) between the dummies 00 and 111.
type StringCodec struct{}

// Encode returns k's Section VI encoding; every non-empty k lies inside
// the key space. An empty k panics: it encodes to "11", a prefix of the
// 111 dummy, so it cannot coexist with it in a Patricia trie.
func (StringCodec) Encode(k []byte) (Bitstring, bool) {
	if len(k) == 0 {
		panic("keys: empty byte-string keys are not supported (their Section VI " +
			"encoding collides with the 111 dummy)")
	}
	return EncodeString(k), true
}

// Decode inverts Encode.
func (StringCodec) Decode(b Bitstring) []byte {
	k, _ := DecodeString(b) // only the dummies fail to decode, and the engine never yields them
	return k
}

// Bounds returns the dummies 00 and 111: per Section VI, every encoded
// key is greater than 00 and smaller than 111.
func (StringCodec) Bounds() (lo, hi Bitstring) {
	lo, _ = ParseBitstring("00")
	hi, _ = ParseBitstring("111")
	return lo, hi
}

// Check is the Section VI label rule: every leaf label is a dummy or a
// valid encoding.
func (c StringCodec) Check(label Bitstring, leaf bool) error {
	if !leaf {
		return nil
	}
	if lo, hi := c.Bounds(); label.Equal(lo) || label.Equal(hi) {
		return nil
	}
	if _, ok := DecodeString(label); !ok {
		return fmt.Errorf("leaf label %q is not a valid Section VI encoding", label)
	}
	return nil
}

// Bitstring is an immutable, arbitrary-length binary string used by the
// variable-length key space (StringCodec). Bits are stored
// left-aligned in 64-bit words: bit i of the string is bit (63 - i%64) of
// word i/64. Unused trailing bits of the last word are zero, so two equal
// strings are structurally equal word-for-word ("canonical form").
//
// The type implements the encoding of the paper's Section VI: to store
// unbounded-length binary strings, each source bit is encoded as two bits
// (0 -> 01, 1 -> 10) and the string is terminated with 11. Every encoded
// key is then strictly between 0^* and 1^*, so two dummy keys outside the
// encoded space can anchor the trie.
type Bitstring struct {
	w []uint64
	n uint32 // length in bits
}

// BitstringFromBits builds a Bitstring from a slice of 0/1 values, mainly
// for tests.
func BitstringFromBits(bs []int) Bitstring {
	var b bitstringBuilder
	for _, v := range bs {
		b.append(v != 0)
	}
	return b.done()
}

// ParseBitstring builds a Bitstring from a textual "0101..." string,
// mainly for tests. Any rune other than '0' is treated as a one bit only if
// it is '1'; other runes are rejected by returning ok=false.
func ParseBitstring(s string) (Bitstring, bool) {
	var b bitstringBuilder
	for _, r := range s {
		switch r {
		case '0':
			b.append(false)
		case '1':
			b.append(true)
		default:
			return Bitstring{}, false
		}
	}
	return b.done(), true
}

// EncodeString encodes an arbitrary byte string as a Bitstring using the
// paper's Section VI scheme applied bit-wise to the bytes: every bit b of s
// becomes 01 (b=0) or 10 (b=1), and the terminator 11 is appended. The
// result has length 16*len(s)+2 bits and is prefix-free: no encoded key is
// a prefix of another, which is what makes variable-length keys safe in a
// Patricia trie.
func EncodeString(s []byte) Bitstring {
	b := bitstringBuilder{w: make([]uint64, 0, (16*len(s)+2+63)/64)}
	for _, c := range s {
		for i := 7; i >= 0; i-- {
			if c>>uint(i)&1 == 1 {
				b.append(true)
				b.append(false)
			} else {
				b.append(false)
				b.append(true)
			}
		}
	}
	b.append(true)
	b.append(true)
	return b.done()
}

// DecodeString inverts EncodeString. It returns ok=false if b is not a
// valid encoding.
func DecodeString(b Bitstring) ([]byte, bool) {
	if b.n < 2 || b.n%2 != 0 {
		return nil, false
	}
	nPairs := b.n/2 - 1
	if nPairs%8 != 0 {
		return nil, false
	}
	out := make([]byte, nPairs/8)
	for i := uint32(0); i < nPairs; i++ {
		hi, lo := b.Bit(2*i), b.Bit(2*i+1)
		switch {
		case hi == 1 && lo == 0:
			out[i/8] |= 1 << (7 - i%8)
		case hi == 0 && lo == 1:
			// zero bit: nothing to set
		default:
			return nil, false
		}
	}
	if b.Bit(b.n-2) != 1 || b.Bit(b.n-1) != 1 {
		return nil, false
	}
	return out, true
}

// Len returns the length of the string in bits.
func (b Bitstring) Len() uint32 { return b.n }

// Bit returns the i-th bit (0-indexed from the start of the string).
func (b Bitstring) Bit(i uint32) int {
	return int(b.w[i/64] >> (63 - i%64) & 1)
}

// Equal reports whether two bit strings are identical.
func (b Bitstring) Equal(o Bitstring) bool {
	if b.n != o.n {
		return false
	}
	for i := range b.w {
		if b.w[i] != o.w[i] {
			return false
		}
	}
	return true
}

// IsPrefixOf reports whether b is a prefix of o.
func (b Bitstring) IsPrefixOf(o Bitstring) bool {
	if b.n > o.n {
		return false
	}
	if b.n == 0 {
		return true
	}
	full := int(b.n / 64)
	for i := 0; i < full; i++ {
		if b.w[i] != o.w[i] {
			return false
		}
	}
	if rem := b.n % 64; rem != 0 {
		m := Mask(rem)
		return b.w[full] == o.w[full]&m
	}
	return true
}

// CommonPrefix returns the longest common prefix of b and o.
func (b Bitstring) CommonPrefix(o Bitstring) Bitstring {
	n := min(b.n, o.n)
	var cpl uint32
	for cpl < n {
		i := cpl / 64
		x := b.w[i] ^ o.w[i]
		if x == 0 {
			cpl = min((i+1)*64, n)
			continue
		}
		cpl = min(i*64+CommonPrefixLen(b.w[i], o.w[i]), n)
		break
	}
	return b.Prefix(cpl)
}

// Prefix returns the first n bits of b as a canonical Bitstring.
func (b Bitstring) Prefix(n uint32) Bitstring {
	if n >= b.n {
		return b
	}
	words := int((n + 63) / 64)
	w := make([]uint64, words)
	copy(w, b.w[:words])
	if rem := n % 64; rem != 0 {
		w[words-1] &= Mask(rem)
	}
	return Bitstring{w: w, n: n}
}

// Digit returns the i-th s-bit digit (see Key.Digit), word-at-a-time: the
// digit's bits are gathered into the top of one 64-bit window, pulling
// from the following word when the digit straddles a word boundary.
func (b Bitstring) Digit(i, s uint32) int {
	pos := i * s
	w := min(s, b.n-pos)
	wi, off := pos/64, pos%64
	top := b.w[wi] << off
	if off+w > 64 {
		top |= b.w[wi+1] >> (64 - off)
	}
	return int(top >> (64 - w))
}

// CommonDigitPrefix returns the longest common prefix floored to a whole
// number of s-bit digits (see Key.CommonDigitPrefix).
func (b Bitstring) CommonDigitPrefix(o Bitstring, s uint32) Bitstring {
	n := min(b.n, o.n)
	var cpl uint32
	for cpl < n {
		i := cpl / 64
		if b.w[i] == o.w[i] {
			cpl = min((i+1)*64, n)
			continue
		}
		cpl = min(i*64+CommonPrefixLen(b.w[i], o.w[i]), n)
		break
	}
	return b.Prefix(cpl - cpl%s)
}

// String renders the bit string as "0101..." text.
func (b Bitstring) String() string {
	var sb strings.Builder
	sb.Grow(int(b.n))
	for i := uint32(0); i < b.n; i++ {
		sb.WriteByte(byte('0' + b.Bit(i)))
	}
	return sb.String()
}

// Compare orders bit strings lexicographically, with a proper prefix
// ordered before any of its extensions. It returns -1, 0 or +1.
func (b Bitstring) Compare(o Bitstring) int {
	n := min(b.n, o.n)
	for i := uint32(0); i < (n+63)/64; i++ {
		lim := min(n-i*64, 64)
		m := Mask(lim)
		x, y := b.w[i]&m, o.w[i]&m
		if x != y {
			if x < y {
				return -1
			}
			return 1
		}
	}
	switch {
	case b.n < o.n:
		return -1
	case b.n > o.n:
		return 1
	default:
		return 0
	}
}

// bitstringBuilder incrementally assembles a Bitstring.
type bitstringBuilder struct {
	w []uint64
	n uint32
}

func (b *bitstringBuilder) append(one bool) {
	if int(b.n/64) == len(b.w) {
		b.w = append(b.w, 0)
	}
	if one {
		b.w[b.n/64] |= 1 << (63 - b.n%64)
	}
	b.n++
}

func (b *bitstringBuilder) done() Bitstring {
	return Bitstring{w: b.w, n: b.n}
}
