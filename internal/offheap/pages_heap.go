//go:build !unix || race

package offheap

// mapPages returns n zeroed bytes of the Go heap: without mmap, or under
// the race detector, which checks only heap and data-segment accesses.
func mapPages(n int) []byte { return make([]byte, n) }

// unmapPages leaves b to the garbage collector.
func unmapPages([]byte) {}
