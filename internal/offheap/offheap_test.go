package offheap

import (
	"runtime"
	"testing"
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

func TestUnreachableArenaReleasesItsMappings(t *testing.T) {
	collect(t, 0)
	func() {
		a := New()
		for i := 0; i < 100; i++ {
			a.Alloc(16 << 10)
		}
		a.Alloc(5 * ChunkSize)
		if got := Mapped(); got != 7*ChunkSize {
			t.Fatalf("mapped %d bytes, want %d", got, 7*ChunkSize)
		}
	}()
	collect(t, 0)
}
