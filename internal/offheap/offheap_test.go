package offheap

import (
	"runtime"
	"testing"
	"unsafe"
)

// collect runs garbage collections until Mapped reads want, at most ten.
func collect(t *testing.T, want int64) {
	t.Helper()
	for i := 0; i < 10 && Mapped() != want; i++ {
		runtime.GC()
	}
	if got := Mapped(); got != want {
		t.Fatalf("Mapped() = %d after 10 collections, want %d", got, want)
	}
}

func TestSmallAllocsShareChunks(t *testing.T) {
	collect(t, 0) // no arena of an earlier test is reachable
	a := New()
	base := Mapped()
	x := a.Alloc(1000)
	y := a.Alloc(ChunkSize - 1000)
	if got := Mapped() - base; got != ChunkSize {
		t.Fatalf("two allocations filling one chunk mapped %d bytes, want %d", got, ChunkSize)
	}
	if len(x) != 1000 || cap(x) != 1000 || len(y) != ChunkSize-1000 {
		t.Fatalf("len/cap %d/%d and %d, want 1000/1000 and %d", len(x), cap(x), len(y), ChunkSize-1000)
	}
	a.Alloc(1)
	if got := Mapped() - base; got != 2*ChunkSize {
		t.Fatalf("an allocation past a full chunk mapped %d bytes in all, want %d", got, 2*ChunkSize)
	}
	runtime.KeepAlive(a)
}

func TestLargeAllocMapsItsOwn(t *testing.T) {
	collect(t, 0)
	a := New()
	a.Alloc(16 << 10)
	base := Mapped()
	for _, n := range []int{ChunkSize, 3*ChunkSize + 5} {
		before := Mapped()
		if b := a.Alloc(n); len(b) != n {
			t.Fatalf("Alloc(%d) returned %d bytes", n, len(b))
		}
		if got := Mapped() - before; got != int64(n) {
			t.Fatalf("Alloc(%d) mapped %d bytes, want a mapping of its own", n, got)
		}
	}
	// The shared chunk's tail still serves the next small allocation.
	a.Alloc(16 << 10)
	if got := Mapped() - base; got != 4*ChunkSize+5 {
		t.Fatalf("mapped %d bytes in all, want %d", got, 4*ChunkSize+5)
	}
	runtime.KeepAlive(a)
}

func TestAllocZeroedAndDisjoint(t *testing.T) {
	a := New()
	x, y := a.Alloc(100), a.Alloc(100)
	for i := range x {
		if x[i] != 0 || y[i] != 0 {
			t.Fatal("fresh allocation not zeroed")
		}
		x[i] = 0xff
	}
	for i := range y {
		if y[i] != 0 {
			t.Fatal("a write to one allocation reached the next")
		}
	}
	if cap(x) != 100 {
		t.Fatalf("cap %d lets an append spill into the next allocation", cap(x))
	}
	runtime.KeepAlive(a)
}

// TestUint32sCarvesAlignedWords: uint32 slices come from the arena's
// chunks on 4-byte boundaries, zeroed and disjoint, even after odd-sized
// byte allocations.
func TestUint32sCarvesAlignedWords(t *testing.T) {
	collect(t, 0)
	a := New()
	a.Alloc(3)
	w := Uint32s(a, 1000)
	a.Alloc(1)
	v := Uint32s(a, 10)
	if got := Mapped(); got != ChunkSize {
		t.Fatalf("mapped %d bytes for four small allocations, want one chunk of %d", got, ChunkSize)
	}
	if len(w) != 1000 || cap(w) != 1000 || len(v) != 10 {
		t.Fatalf("len/cap %d/%d and %d, want 1000/1000 and 10", len(w), cap(w), len(v))
	}
	if uintptr(unsafe.Pointer(&w[0]))%4 != 0 || uintptr(unsafe.Pointer(&v[0]))%4 != 0 {
		t.Fatal("a uint32 slice does not start on a 4-byte boundary")
	}
	for i := range w {
		if w[i] != 0 {
			t.Fatal("fresh uint32 slice not zeroed")
		}
		w[i] = ^uint32(0)
	}
	for i := range v {
		if v[i] != 0 {
			t.Fatal("a write to one slice reached the next")
		}
	}
	if Uint32s(a, 0) != nil {
		t.Fatal("an empty slice took arena memory")
	}
	runtime.KeepAlive(a)
}

func TestUnreachableArenaReleasesItsMappings(t *testing.T) {
	collect(t, 0)
	func() {
		a := New()
		for i := 0; i <= ChunkSize/(16<<10); i++ { // one more than a chunk holds
			a.Alloc(16 << 10)
		}
		a.Alloc(5 * ChunkSize)
		if got := Mapped(); got != 7*ChunkSize {
			t.Fatalf("mapped %d bytes, want %d", got, 7*ChunkSize)
		}
	}()
	collect(t, 0)
}

// TestReleaseZeroesAndKeepsNeighbours: Release zeroes exactly the slice it
// is given, whole host pages and the partial pages at its ends alike, and
// the bytes around it keep their values; released memory can be written
// again.
func TestReleaseZeroesAndKeepsNeighbours(t *testing.T) {
	a := New()
	b := a.Alloc(4 * ChunkSize)
	for _, r := range []struct{ lo, hi int }{{0, len(b)}, {100, 3*4096 + 7}, {4096, 3 * 4096}, {5, 9}, {8192, 8192}} {
		for i := range b {
			b[i] = byte(i) | 1
		}
		Release(b[r.lo:r.hi])
		for i := range b {
			want := byte(i) | 1
			if i >= r.lo && i < r.hi {
				want = 0
			}
			if b[i] != want {
				t.Fatalf("Release(b[%d:%d]): byte %d is %d, want %d", r.lo, r.hi, i, b[i], want)
			}
		}
	}
	runtime.KeepAlive(a)
}
