// Package stackstripe spreads state that any goroutine may write over a
// fixed number of stripes, so that two goroutines on two cores rarely
// write the same cache line. It is how the device's ownerless counters
// (internal/nvm) and the safepoint's shared pin (internal/safepoint) are
// kept: each caller counts in the stripe Pick names, and whoever needs
// the total sums every stripe.
//
// Go exposes no goroutine identity, so the stripe is chosen by the
// caller's stack address at blockBits granularity. A goroutine's stack is
// at least 2 KB (Go's minimum) and 2 KB aligned, so no two goroutines
// ever run in one block; they meet in a stripe only when their blocks
// hash alike. A stack can move (Go copies it when it grows), so the same
// goroutine may pick another stripe later: Pick suits counts whose sum is
// all that is read. Where a count must come off the stripe it went on,
// the caller keeps the index Pick returned.
package stackstripe

import "unsafe"

// Bits is log2 of Count.
const Bits = 5

// Count is how many stripes there are.
const Count = 1 << Bits

// blockBits is log2 of Go's minimum goroutine stack size.
const blockBits = 11

// Pick returns the calling goroutine's stripe, in [0, Count).
func Pick() int {
	var probe byte
	block := uint64(uintptr(unsafe.Pointer(&probe))) >> blockBits
	return int(block * 0x9E3779B97F4A7C15 >> (64 - Bits)) // Fibonacci hashing
}
