package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitmaskSetGetClear(t *testing.T) {
	var b bitmask
	for _, i := range []int{0, 1, 63, 64, 127, 128, 255} {
		if b.get(i) {
			t.Fatalf("fresh mask has bit %d set", i)
		}
		b.set(i)
		if !b.get(i) {
			t.Fatalf("bit %d not set after set", i)
		}
	}
	if got := b.count(); got != 7 {
		t.Fatalf("count() = %d, want 7", got)
	}
	b.clear(64)
	if b.get(64) {
		t.Fatal("bit 64 still set after clear")
	}
	b.reset()
	if b.any() {
		t.Fatal("mask not empty after reset")
	}
}

func TestBitmaskFull(t *testing.T) {
	var b bitmask
	if b.full() {
		t.Fatal("empty mask reports full")
	}
	b.setRange(0, LinesPerPage-1)
	if !b.full() {
		t.Fatal("all-set mask does not report full")
	}
	b.clear(200)
	if b.full() {
		t.Fatal("mask with a hole reports full")
	}
}

// TestBitmaskSetRangeMatchesPerBit checks setRange for every range
// 0 <= from <= to < LinesPerPage, on an empty mask and on one with bits
// already set, against setting each bit on its own.
func TestBitmaskSetRangeMatchesPerBit(t *testing.T) {
	base := bitmask{0x8000000000000001, 0x00ff00ff00ff00ff, 0, 1 << 63}
	for _, start := range []bitmask{{}, base} {
		for from := 0; from < LinesPerPage; from++ {
			for to := from; to < LinesPerPage; to++ {
				got, want := start, start
				got.setRange(from, to)
				for i := from; i <= to; i++ {
					want.set(i)
				}
				if got != want {
					t.Fatalf("setRange(%d, %d) on %x = %x, want %x", from, to, start, got, want)
				}
			}
		}
	}
}

func TestBitmaskNextClearNextSet(t *testing.T) {
	var b bitmask
	b.setRange(10, 20)
	b.set(100)
	if got := b.nextSet(0); got != 10 {
		t.Fatalf("nextSet(0) = %d, want 10", got)
	}
	if got := b.nextSet(21); got != 100 {
		t.Fatalf("nextSet(21) = %d, want 100", got)
	}
	if got := b.nextSet(101); got != LinesPerPage {
		t.Fatalf("nextSet(101) = %d, want %d", got, LinesPerPage)
	}
	if got := b.nextClear(10); got != 21 {
		t.Fatalf("nextClear(10) = %d, want 21", got)
	}
	if got := b.nextClear(0); got != 0 {
		t.Fatalf("nextClear(0) = %d, want 0", got)
	}
	b.setRange(0, LinesPerPage-1)
	if got := b.nextClear(0); got != LinesPerPage {
		t.Fatalf("nextClear on full mask = %d, want %d", got, LinesPerPage)
	}
}

func TestBitmaskRuns(t *testing.T) {
	var b bitmask
	b.setRange(5, 7)
	b.set(9)
	b.setRange(63, 65)

	var setRuns [][2]int
	b.setRuns(0, LinesPerPage-1, func(from, to int) {
		setRuns = append(setRuns, [2]int{from, to})
	})
	want := [][2]int{{5, 7}, {9, 9}, {63, 65}}
	if len(setRuns) != len(want) {
		t.Fatalf("setRuns = %v, want %v", setRuns, want)
	}
	for i := range want {
		if setRuns[i] != want[i] {
			t.Fatalf("setRuns = %v, want %v", setRuns, want)
		}
	}

	var clearRuns [][2]int
	b.clearRuns(4, 10, func(from, to int) {
		clearRuns = append(clearRuns, [2]int{from, to})
	})
	wantClear := [][2]int{{4, 4}, {8, 8}, {10, 10}}
	if len(clearRuns) != len(wantClear) {
		t.Fatalf("clearRuns = %v, want %v", clearRuns, wantClear)
	}
	for i := range wantClear {
		if clearRuns[i] != wantClear[i] {
			t.Fatalf("clearRuns = %v, want %v", clearRuns, wantClear)
		}
	}
}

// TestBitmaskRunsCoverExactly checks, with random masks, that setRuns and
// clearRuns partition the queried interval without overlap or omission.
func TestBitmaskRunsCoverExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		var b bitmask
		ref := make([]bool, LinesPerPage)
		for i := 0; i < LinesPerPage; i++ {
			if rng.Intn(2) == 0 {
				b.set(i)
				ref[i] = true
			}
		}
		lo := rng.Intn(LinesPerPage)
		hi := lo + rng.Intn(LinesPerPage-lo)

		covered := make([]int, LinesPerPage)
		b.setRuns(lo, hi, func(from, to int) {
			for i := from; i <= to; i++ {
				covered[i]++
			}
		})
		b.clearRuns(lo, hi, func(from, to int) {
			for i := from; i <= to; i++ {
				covered[i] += 2
			}
		})
		for i := lo; i <= hi; i++ {
			want := 2
			if ref[i] {
				want = 1
			}
			if covered[i] != want {
				t.Fatalf("trial %d: line %d covered %d times (set=%v)", trial, i, covered[i], ref[i])
			}
		}
		for i := 0; i < lo; i++ {
			if covered[i] != 0 {
				t.Fatalf("trial %d: line %d outside [%d,%d] covered", trial, i, lo, hi)
			}
		}
		for i := hi + 1; i < LinesPerPage; i++ {
			if covered[i] != 0 {
				t.Fatalf("trial %d: line %d outside [%d,%d] covered", trial, i, lo, hi)
			}
		}
	}
}

func TestBitmaskQuickCountMatchesReference(t *testing.T) {
	f := func(bits []uint8) bool {
		var b bitmask
		ref := make(map[int]bool)
		for _, x := range bits {
			i := int(x) % LinesPerPage
			b.set(i)
			ref[i] = true
		}
		return b.count() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRefEncoding(t *testing.T) {
	r := MakeRef(42)
	if r.Swizzled() {
		t.Fatal("plain ref reports swizzled")
	}
	if r.PageID() != 42 {
		t.Fatalf("PageID() = %d, want 42", r.PageID())
	}
	s := swizzledRef(7)
	if !s.Swizzled() {
		t.Fatal("swizzled ref not recognized")
	}
	if s.frameIndex() != 7 {
		t.Fatalf("frameIndex() = %d, want 7", s.frameIndex())
	}
	var zero Ref
	if zero.Swizzled() || zero.PageID() != InvalidPageID {
		t.Fatal("zero ref names a page")
	}
}

func TestLocationEncoding(t *testing.T) {
	d := dramLoc(12)
	if !d.inDRAM() || d.frame() != 12 {
		t.Fatalf("dramLoc roundtrip failed: %v", d)
	}
	nl := nvmLoc(99)
	if nl.inDRAM() || nl.nvmSlot() != 99 {
		t.Fatalf("nvmLoc roundtrip failed: %v", nl)
	}
	if d.String() != "dram(12)" || nl.String() != "nvm(99)" {
		t.Fatalf("String() = %q, %q", d.String(), nl.String())
	}
}

func TestTopologyString(t *testing.T) {
	names := map[Topology]string{
		MemOnly:   "Main Memory",
		DRAMSSD:   "SSD BM",
		DRAMNVM:   "Basic NVM BM",
		ThreeTier: "3 Tier BM",
		DirectNVM: "NVM Direct",
	}
	for topo, want := range names {
		if got := topo.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", topo, got, want)
		}
	}
}
