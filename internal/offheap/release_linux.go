//go:build linux && !race

package offheap

import (
	"fmt"
	"syscall"
	"unsafe"
)

// pageSize is the host's virtual-memory page size.
var pageSize = syscall.Getpagesize()

// Release zeroes b and hands the host pages that lie wholly inside it back
// to the OS: MADV_DONTNEED drops them from the private anonymous mapping
// that holds them, so they are no longer resident and read as zeros until
// stored to again. The bytes of b that share a host page with bytes
// outside it are cleared in place.
func Release(b []byte) {
	addr := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	lo := min(int(-addr&uintptr(pageSize-1)), len(b))
	hi := lo + (len(b)-lo)&^(pageSize-1)
	if lo < hi {
		if err := syscall.Madvise(b[lo:hi], syscall.MADV_DONTNEED); err != nil {
			panic(fmt.Sprintf("offheap: madvise %d bytes: %v", hi-lo, err))
		}
	}
	clear(b[:lo])
	clear(b[hi:])
}
