// Package offheap hands out zeroed byte slices, and uint32 slices, that
// live outside the Go heap.
//
// The simulated devices (internal/nvm, internal/ssd) keep their media,
// wear counters and CPU-cache tags here. The paper's NVM is a memory
// device of its own, mapped into the engine's address space, not memory of
// the engine's allocator; on the Go heap the garbage collector would count
// the media as live heap and let garbage grow to the same size again
// before collecting, so a process would pay for its media about twice. An
// Arena takes its bytes from anonymous mmaps instead and unmaps them once
// the arena itself is unreachable.
//
// Race builds take the bytes from make instead (pages_heap.go): the race
// detector checks only accesses to the Go heap and data segments, and the
// media are the bytes concurrent engine code must not race on. The arena
// code path is the same either way; only the page source differs.
//
// Release hands memory back without unmapping it: the whole host pages of
// a slice go back to the OS (MADV_DONTNEED, on Linux outside race builds)
// and read as zeros, so a device can drop the residency of bytes it no
// longer needs while its arena keeps the address space.
package offheap

import (
	"runtime"
	"sync/atomic"
)

// ChunkSize is the unit of mapping: a request of ChunkSize or more gets a
// mapping of its own, smaller ones are carved from shared chunks of this
// size, each mapped when it is first needed.
const ChunkSize = 1 << 20

// wordSize is the alignment of every slice Alloc returns, so that Uint32s
// can view one as uint32s.
const wordSize = 4

// mapped counts the bytes of every mapping made and not yet released.
var mapped atomic.Int64

// Mapped returns the number of bytes the package's arenas hold mapped.
func Mapped() int64 { return mapped.Load() }

// Arena is a source of zeroed byte slices whose memory is released when
// the arena becomes unreachable. A slice Alloc returned is valid only while
// its arena is reachable: whoever hands such slices out must keep the
// arena reachable for as long as any of them can be reached. An Arena is
// not safe for concurrent use.
type Arena struct {
	// chunks holds every mapping the arena made, as mapPages returned it.
	// The arena points to nothing else, so it is never part of a cycle
	// and its finalizer always runs.
	chunks [][]byte
	// free is the unused tail of the newest shared chunk.
	free []byte
}

// New returns an empty arena; nothing is mapped until the first Alloc.
func New() *Arena {
	a := &Arena{}
	runtime.SetFinalizer(a, (*Arena).release)
	return a
}

// Alloc returns n zeroed bytes, starting on a 4-byte boundary. It panics
// if the memory cannot be mapped, as make panics when it cannot allocate.
func (a *Arena) Alloc(n int) []byte {
	if n >= ChunkSize {
		return a.mapChunk(n)
	}
	if len(a.free) < n {
		a.free = a.mapChunk(ChunkSize)
	}
	b := a.free[:n:n]
	a.free = a.free[min((n+wordSize-1)&^(wordSize-1), len(a.free)):]
	return b
}

// mapChunk maps n fresh bytes and records them for release.
func (a *Arena) mapChunk(n int) []byte {
	b := mapPages(n)
	a.chunks = append(a.chunks, b)
	mapped.Add(int64(n))
	return b
}

// release unmaps every chunk; it runs as the arena's finalizer.
func (a *Arena) release() {
	for _, c := range a.chunks {
		mapped.Add(-int64(len(c)))
		unmapPages(c)
	}
	a.chunks, a.free = nil, nil
}
