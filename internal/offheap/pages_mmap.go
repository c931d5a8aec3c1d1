//go:build unix && !race

package offheap

import (
	"fmt"
	"syscall"
)

// mapPages returns n zeroed bytes of a private anonymous mapping.
func mapPages(n int) []byte {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("offheap: mmap %d bytes: %v", n, err))
	}
	return b
}

// unmapPages releases a mapping mapPages returned.
func unmapPages(b []byte) {
	if err := syscall.Munmap(b); err != nil {
		panic(fmt.Sprintf("offheap: munmap %d bytes: %v", len(b), err))
	}
}
