package analyze

// The register value domain: signed 64-bit intervals with ±∞ bounds,
// wide enough to hold every uint32 value and every int32-signed
// intermediate without wrapping. Constants are kept canonical in
// [0, 2³²); interval arithmetic saturates to ±∞ instead of modelling
// 32-bit wraparound, which keeps every operation an over-approximation
// of the machine result (and therefore keeps address resolution sound).

import "math"

const (
	negInf = math.MinInt64
	posInf = math.MaxInt64

	maxU32 = int64(1)<<32 - 1
	maxS32 = int64(1)<<31 - 1
)

// ival is a closed interval [lo, hi]; lo > hi never occurs (the empty
// meet is reported separately).
type ival struct {
	lo, hi int64
}

var topIval = ival{negInf, posInf}

// cval is the canonical constant interval for a machine word.
func cval(v uint32) ival { return ival{int64(v), int64(v)} }

func (a ival) isConst() (uint32, bool) {
	if a.lo == a.hi && a.lo >= 0 && a.lo <= maxU32 {
		return uint32(a.lo), true
	}
	return 0, false
}

func (a ival) isTop() bool { return a.lo == negInf && a.hi == posInf }

// join is the interval hull.
func (a ival) join(b ival) ival {
	return ival{min64(a.lo, b.lo), max64(a.hi, b.hi)}
}

// widen jumps unstable bounds of next (relative to prev) outward so
// loop fixpoints terminate. Bounds land on the nearest value in ts (the
// program's immediate constants, sorted ascending) rather than straight
// at ±∞: loop-limit registers then stabilise at the comparison constant
// the branch refinement needs, instead of blowing past the signedness
// guard that makes refinement legal.
func (prev ival) widen(next ival, ts []int64) ival {
	w := next
	if next.lo < prev.lo {
		w.lo = widenDown(next.lo, ts)
	}
	if next.hi > prev.hi {
		w.hi = widenUp(next.hi, ts)
	}
	return w
}

// widenUp returns the smallest threshold ≥ v, or +∞.
func widenUp(v int64, ts []int64) int64 {
	for _, t := range ts {
		if t >= v {
			return t
		}
	}
	return posInf
}

// widenDown returns the largest threshold ≤ v, or −∞.
func widenDown(v int64, ts []int64) int64 {
	for i := len(ts) - 1; i >= 0; i-- {
		if ts[i] <= v {
			return ts[i]
		}
	}
	return negInf
}

// meet intersects; ok is false when the intersection is empty.
func (a ival) meet(b ival) (ival, bool) {
	m := ival{max64(a.lo, b.lo), min64(a.hi, b.hi)}
	if m.lo > m.hi {
		return a, false
	}
	return m, true
}

// --- arithmetic (saturating; exact only for const×const via uint32) ---

func satAdd(a, b int64) int64 {
	if a == negInf || b == negInf {
		return negInf
	}
	if a == posInf || b == posInf {
		return posInf
	}
	s := a + b
	// overflow check
	if (b > 0 && s < a) || (b < 0 && s > a) {
		if b > 0 {
			return posInf
		}
		return negInf
	}
	return s
}

func (a ival) add(b ival) ival {
	if ca, ok := a.isConst(); ok {
		if cb, ok := b.isConst(); ok {
			return cval(ca + cb) // exact with uint32 wrap
		}
	}
	return ival{satAdd(a.lo, b.lo), satAdd(a.hi, b.hi)}
}

func (a ival) sub(b ival) ival {
	if ca, ok := a.isConst(); ok {
		if cb, ok := b.isConst(); ok {
			return cval(ca - cb)
		}
	}
	return ival{satAdd(a.lo, -min64(b.hi, posInf-1)), satAdd(a.hi, -max64(b.lo, negInf+1))}
}

// addImm adds a signed immediate.
func (a ival) addImm(imm int32) ival {
	return a.add(ival{int64(imm), int64(imm)})
}

// nonNeg reports whether every value in a is ≥ 0 (and finite below).
func (a ival) nonNeg() bool { return a.lo >= 0 }

// bounded reports whether a fits the uint32 value range — the premise
// for using it as an address.
func (a ival) bounded() bool { return a.lo >= 0 && a.hi <= maxU32 }

// shl shifts left by a constant amount, saturating on overflow.
func (a ival) shl(s uint32) ival {
	if ca, ok := a.isConst(); ok {
		return cval(ca << (s & 31))
	}
	s &= 31
	if !a.nonNeg() || a.hi > maxU32 {
		return topIval
	}
	lo, hi := a.lo<<s, a.hi<<s
	if hi>>s != a.hi { // overflow
		return ival{lo, posInf}
	}
	return ival{lo, hi}
}

// shr is a logical right shift by a constant amount.
func (a ival) shr(s uint32) ival {
	if ca, ok := a.isConst(); ok {
		return cval(ca >> (s & 31))
	}
	s &= 31
	if !a.bounded() {
		// A negative int32 reinterpreted as uint32 is huge; all we know
		// is the result fits 32−s bits.
		return ival{0, maxU32 >> s}
	}
	return ival{a.lo >> s, a.hi >> s}
}

// orBound over-approximates OR/XOR of two non-negative intervals by the
// smallest all-ones mask covering both.
func orBound(a, b ival) ival {
	if !a.nonNeg() || !b.nonNeg() || a.hi > maxU32 || b.hi > maxU32 {
		return topIval
	}
	m := uint64(max64(a.hi, b.hi))
	// round up to all-ones
	m |= m >> 1
	m |= m >> 2
	m |= m >> 4
	m |= m >> 8
	m |= m >> 16
	m |= m >> 32
	return ival{0, int64(m)}
}

func (a ival) mul(b ival) ival {
	if ca, ok := a.isConst(); ok {
		if cb, ok := b.isConst(); ok {
			return cval(ca * cb)
		}
	}
	if a.nonNeg() && b.nonNeg() && a.hi <= maxU32 && b.hi <= maxU32 {
		hi := a.hi * b.hi
		if a.hi != 0 && hi/a.hi != b.hi {
			hi = posInf
		}
		return ival{a.lo * b.lo, hi}
	}
	return topIval
}

// remPos bounds a remainder by a known positive divisor: for a
// non-negative dividend the result is [0, c−1] (EH32 REM follows RISC-V
// semantics, so non-negative inputs give non-negative remainders).
func (a ival) remPos(c uint32) ival {
	if c == 0 {
		return topIval
	}
	if ca, ok := a.isConst(); ok {
		return cval(ca % c)
	}
	if a.nonNeg() && a.hi < int64(c) {
		return a // already within range
	}
	if a.nonNeg() {
		return ival{0, int64(c) - 1}
	}
	return topIval
}

func (a ival) divPos(c uint32) ival {
	if c == 0 {
		return topIval
	}
	if ca, ok := a.isConst(); ok {
		return cval(ca / c)
	}
	if a.nonNeg() {
		hi := a.hi
		if hi != posInf {
			hi /= int64(c)
		}
		return ival{a.lo / int64(c), hi}
	}
	return topIval
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
