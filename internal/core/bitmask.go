package core

import "math/bits"

// bitmask tracks one bit per cache line of a full page (256 lines), used
// for the resident and dirty masks of cache-line-grained pages (§3.1).
// The paper sizes these masks at 32 bytes each; [4]uint64 is exactly that.
type bitmask [LinesPerPage / 64]uint64

// set sets bit i.
func (b *bitmask) set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// clear clears bit i.
func (b *bitmask) clear(i int) { b[i>>6] &^= 1 << (uint(i) & 63) }

// get reports bit i.
func (b *bitmask) get(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// setRange sets bits [from, to] inclusive, a 64-bit word at a time:
// install and Allocate set all 256 lines on every SSD load and new page.
func (b *bitmask) setRange(from, to int) {
	for w := from >> 6; w <= to>>6; w++ {
		lo, hi := max(from, w<<6), min(to, w<<6+63)
		b[w] |= ^uint64(0) >> uint(63-(hi-lo)) << (uint(lo) & 63)
	}
}

// reset clears all bits.
func (b *bitmask) reset() { *b = bitmask{} }

// count returns the number of set bits.
func (b *bitmask) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// full reports whether all bits are set.
func (b *bitmask) full() bool {
	for _, w := range b {
		if w != ^uint64(0) {
			return false
		}
	}
	return true
}

// any reports whether any bit is set.
func (b *bitmask) any() bool {
	for _, w := range b {
		if w != 0 {
			return true
		}
	}
	return false
}

// nextClear returns the index of the first clear bit at or after i, or
// LinesPerPage if all remaining bits are set.
func (b *bitmask) nextClear(i int) int {
	for i < LinesPerPage {
		w := ^b[i>>6] >> (uint(i) & 63)
		if w != 0 {
			return i + bits.TrailingZeros64(w)
		}
		i = (i>>6 + 1) << 6
	}
	return LinesPerPage
}

// nextSet returns the index of the first set bit at or after i, or
// LinesPerPage if none remains.
func (b *bitmask) nextSet(i int) int {
	for i < LinesPerPage {
		w := b[i>>6] >> (uint(i) & 63)
		if w != 0 {
			return i + bits.TrailingZeros64(w)
		}
		i = (i>>6 + 1) << 6
	}
	return LinesPerPage
}

// clearRuns calls fn for every maximal run [from, to] of clear bits within
// [lo, hi] inclusive. It is used to coalesce NVM reads of missing lines.
func (b *bitmask) clearRuns(lo, hi int, fn func(from, to int)) {
	i := lo
	for i <= hi {
		from := b.nextClear(i)
		if from > hi {
			return
		}
		to := b.nextSet(from) - 1
		if to > hi {
			to = hi
		}
		fn(from, to)
		i = to + 1
	}
}

// setRuns calls fn for every maximal run [from, to] of set bits within
// [lo, hi] inclusive. It is used to coalesce NVM write-backs of dirty
// lines.
func (b *bitmask) setRuns(lo, hi int, fn func(from, to int)) {
	i := lo
	for i <= hi {
		from := b.nextSet(i)
		if from > hi {
			return
		}
		to := b.nextClear(from) - 1
		if to > hi {
			to = hi
		}
		fn(from, to)
		i = to + 1
	}
}
