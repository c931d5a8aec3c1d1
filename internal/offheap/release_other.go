//go:build !linux || race

package offheap

// Release zeroes b. Only Linux promises that a page MADV_DONTNEED drops
// from a private anonymous mapping reads as zeros afterwards, and race
// builds keep arena memory on the Go heap, so here the bytes stay
// resident.
func Release(b []byte) { clear(b) }
