package keys

// Morton (Z-order) encodings map multi-dimensional points to one-dimensional
// trie keys by interleaving coordinate bits. The paper motivates the replace
// operation with exactly this use: "a point in R^2 whose coordinates are
// (x, y) can be represented as a key formed by interleaving the bits of x
// and y ... the replace operation can be used to move a point from one
// location to another atomically."

// Interleave2 interleaves the bits of x and y into a single 64-bit Morton
// code. Bit i of x lands at bit 2i and bit i of y at bit 2i+1 of the result
// (counting from the least significant end).
func Interleave2(x, y uint32) uint64 {
	return spread1(uint64(x)) | spread1(uint64(y))<<1
}

// Deinterleave2 inverts Interleave2.
func Deinterleave2(m uint64) (x, y uint32) {
	return uint32(compact1(m)), uint32(compact1(m >> 1))
}

// spread1 spaces the low 32 bits of v one position apart.
func spread1(v uint64) uint64 {
	v &= 0xffffffff
	v = (v | v<<16) & 0x0000ffff0000ffff
	v = (v | v<<8) & 0x00ff00ff00ff00ff
	v = (v | v<<4) & 0x0f0f0f0f0f0f0f0f
	v = (v | v<<2) & 0x3333333333333333
	v = (v | v<<1) & 0x5555555555555555
	return v
}

// compact1 inverts spread1, gathering every second bit of v.
func compact1(v uint64) uint64 {
	v &= 0x5555555555555555
	v = (v | v>>1) & 0x3333333333333333
	v = (v | v>>2) & 0x0f0f0f0f0f0f0f0f
	v = (v | v>>4) & 0x00ff00ff00ff00ff
	v = (v | v>>8) & 0x0000ffff0000ffff
	v = (v | v>>16) & 0x00000000ffffffff
	return v
}
