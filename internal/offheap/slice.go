package offheap

import "unsafe"

// Uint32s returns n zeroed uint32s carved from a, under Alloc's rule: the
// slice is valid only while a is reachable. With Release's page arithmetic,
// this is where the package uses unsafe; Alloc's 4-byte alignment makes the
// conversion sound, and the elements hold no pointers, which arena memory
// must not: the collector does not scan it.
func Uint32s(a *Arena, n int) []uint32 {
	if n == 0 {
		return nil
	}
	b := a.Alloc(n * 4)
	return unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(b))), n)
}
