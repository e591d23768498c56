package mem

import "math/bits"

// divisor divides uint32 numerators by a fixed divisor d ≥ 1 with
// multiplies instead of a hardware divide (Lemire, Kaser and Kurz,
// "Faster Remainder by Direct Computation", 2019). With c = ⌈2^64/d⌉,
//
//	n/d = ⌊c·n / 2^64⌋    and    n%d = ⌊(c·n mod 2^64)·d / 2^64⌋,
//
// both exact for every 32-bit n and every 32-bit d, because c carries
// 64 ≥ 32 + log2(d) fraction bits. Every set, tag, page, offset and
// frame index of the memory system comes from one of these, whatever
// the geometry: powers of two take the same path as any other divisor.
//
// c needs 65 bits when d = 1 (it is 2^64, which wraps to 0), so m holds
// c−1 = ⌊(2^64−1)/d⌋ and the product adds n back: c·n = m·n + n.
type divisor struct {
	m uint64 // ⌈2^64/d⌉ − 1
	d uint64
}

func newDivisor(d int) divisor {
	if d < 1 || d > 1<<32-1 {
		panic("mem: divisor out of range")
	}
	return divisor{m: ^uint64(0) / uint64(d), d: uint64(d)}
}

// divmod returns n/d and n%d.
func (v divisor) divmod(n uint32) (q, r uint32) {
	hi, lo := bits.Mul64(v.m, uint64(n))
	lo, carry := bits.Add64(lo, uint64(n), 0)
	r64, _ := bits.Mul64(lo, v.d)
	return uint32(hi + carry), uint32(r64)
}

// mod returns n%d.
func (v divisor) mod(n uint32) uint32 {
	r, _ := bits.Mul64(v.m*uint64(n)+uint64(n), v.d)
	return uint32(r)
}
