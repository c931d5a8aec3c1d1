package nvm

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"nvmstore/internal/fault"
	"nvmstore/internal/offheap"
	"nvmstore/internal/simclock"
)

// testConfig returns a small device configuration without a CPU cache so
// latency charges are exact.
func testConfig(size int64) Config {
	return Config{
		Size:         size,
		ReadLatency:  500 * time.Nanosecond,
		WriteLatency: 700 * time.Nanosecond,
		LineTransfer: 5 * time.Nanosecond,
	}
}

func TestRoundTrip(t *testing.T) {
	var clk simclock.Clock
	d := New(testConfig(4096), &clk)
	want := []byte("hello, persistent world")
	d.WriteAt(want, 100)
	got := make([]byte, len(want))
	d.ReadAt(got, 100)
	if !bytes.Equal(got, want) {
		t.Fatalf("ReadAt = %q, want %q", got, want)
	}
}

func TestSizeRoundedToLines(t *testing.T) {
	var clk simclock.Clock
	d := New(testConfig(100), &clk)
	if d.Size() != 128 {
		t.Fatalf("Size() = %d, want 128", d.Size())
	}
	if d.Lines() != 2 {
		t.Fatalf("Lines() = %d, want 2", d.Lines())
	}
}

func TestReadChargesLatencyPerContiguousRun(t *testing.T) {
	var clk simclock.Clock
	d := New(testConfig(1<<20), &clk)

	// One line: base latency only.
	buf := make([]byte, 8)
	d.ReadAt(buf, 0)
	if got, want := clk.Ns(), int64(500); got != want {
		t.Fatalf("single-line read charged %d ns, want %d", got, want)
	}

	// Four fresh lines in one call: base + 3 transfer terms.
	clk.Reset()
	big := make([]byte, 4*LineSize)
	d.ReadAt(big, 4*LineSize)
	if got, want := clk.Ns(), int64(500+3*5); got != want {
		t.Fatalf("4-line read charged %d ns, want %d", got, want)
	}
}

func TestReadSpanningLineBoundaryChargesBothLines(t *testing.T) {
	var clk simclock.Clock
	d := New(testConfig(1<<20), &clk)
	buf := make([]byte, 8)
	d.ReadAt(buf, LineSize-4) // straddles lines 0 and 1
	if got, want := clk.Ns(), int64(500+5); got != want {
		t.Fatalf("straddling read charged %d ns, want %d", got, want)
	}
	if got := d.Stats().LinesRead; got != 2 {
		t.Fatalf("LinesRead = %d, want 2", got)
	}
}

func TestWriteAtChargesNothingFlushCharges(t *testing.T) {
	var clk simclock.Clock
	d := New(testConfig(1<<20), &clk)
	p := make([]byte, 2*LineSize)
	d.WriteAt(p, 0)
	if clk.Ns() != 0 {
		t.Fatalf("WriteAt charged %d ns, want 0", clk.Ns())
	}
	d.Flush(0, len(p))
	if got, want := clk.Ns(), int64(700+5); got != want {
		t.Fatalf("2-line flush charged %d ns, want %d", got, want)
	}
}

func TestFlushIncrementsWear(t *testing.T) {
	var clk simclock.Clock
	d := New(testConfig(1<<20), &clk)
	p := make([]byte, LineSize)
	for i := 0; i < 3; i++ {
		d.Persist(p, 0)
	}
	d.Persist(p, 5*LineSize)
	if got := d.Wear(0); got != 3 {
		t.Fatalf("Wear(0) = %d, want 3", got)
	}
	if got := d.Wear(5); got != 1 {
		t.Fatalf("Wear(5) = %d, want 1", got)
	}
	if got := d.TotalWrites(); got != 4 {
		t.Fatalf("TotalWrites() = %d, want 4", got)
	}
	counts := d.WearCounts()
	if counts[0] != 3 || counts[5] != 1 {
		t.Fatalf("WearCounts() = %v at 0 and 5, want 3 and 1", []uint32{counts[0], counts[5]})
	}
	d.ResetWear()
	if got := d.TotalWrites(); got != 0 {
		t.Fatalf("TotalWrites() after ResetWear = %d, want 0", got)
	}
}

// TestTotalWritesIsSumOfWearCounts pins the running total against the array
// it summarizes through every way wear changes: whole flushes, the durable
// prefix of a torn flush, and ResetWear.
func TestTotalWritesIsSumOfWearCounts(t *testing.T) {
	d, _ := newStrictFaultDevice()
	check := func(when string) {
		t.Helper()
		var sum int64
		for _, w := range d.WearCounts() {
			sum += int64(w)
		}
		if got := d.TotalWrites(); got != sum {
			t.Fatalf("%s: TotalWrites() = %d, wear counters sum to %d", when, got, sum)
		}
	}
	p := make([]byte, 8*LineSize)
	d.Persist(p, 0)
	d.Persist(p[:100], 3*LineSize+10)
	check("after flushes")
	if d.TotalWrites() != 10 {
		t.Fatalf("TotalWrites() = %d, want 10", d.TotalWrites())
	}

	d.SetFaults((&fault.Plan{Seed: 77, Rules: []fault.Rule{
		{Kind: fault.NVMTornFlush, EveryN: 1, Limit: 1},
	}}).Injector(0))
	func() {
		defer func() {
			if _, ok := fault.AsCrash(recover()); !ok {
				t.Fatal("torn flush did not crash")
			}
		}()
		d.Persist(p, 16*LineSize)
	}()
	d.Crash()
	check("after a torn flush")

	d.ResetWear()
	check("after ResetWear")
	d.Persist(p[:LineSize], 0)
	check("after a flush past ResetWear")
}

func TestCPUCacheHitsAreFree(t *testing.T) {
	var clk simclock.Clock
	cfg := testConfig(1 << 20)
	cfg.CPUCacheBytes = 1 << 16
	d := New(cfg, &clk)

	buf := make([]byte, LineSize)
	d.ReadAt(buf, 0)
	first := clk.Ns()
	d.ReadAt(buf, 0) // same line: now cached
	if clk.Ns() != first {
		t.Fatalf("second read of cached line charged %d ns", clk.Ns()-first)
	}
	st := d.Stats()
	if st.LinesRead != 2 || st.LinesReadCharged != 1 {
		t.Fatalf("stats = %+v, want LinesRead=2 LinesReadCharged=1", st)
	}
	d.Touch(0, 2*LineSize) // line 0 cached, line 1 not: one charged request
	d.Touch(0, 2*LineSize) // both cached: a request, not a charged one
	if st := d.Stats(); st.ReadOps != 4 || st.ReadOpsCharged != 2 {
		t.Fatalf("stats = %+v, want ReadOps=4 ReadOpsCharged=2", st)
	}
}

func TestCPUCacheEvicts(t *testing.T) {
	var clk simclock.Clock
	cfg := testConfig(1 << 20)
	// Tiny cache: one set of cacheWays lines.
	cfg.CPUCacheBytes = cacheWays * LineSize
	d := New(cfg, &clk)
	buf := make([]byte, LineSize)

	for l := int64(0); l <= cacheWays; l++ {
		d.ReadAt(buf, l*LineSize) // miss; the ninth line evicts line 0
	}
	clk.Reset()
	d.ReadAt(buf, 0*LineSize) // must miss again
	if clk.Ns() == 0 {
		t.Fatal("read of evicted line was free")
	}
}

// TestCPUCacheIsExactLRU drives the cache model with seeded random line
// streams on 4 sets of cacheWays ways and compares every hit and miss
// with a list-based LRU per set, taking each line's set from the cache's own
// index function (TestCPUCacheIndex pins that down). Half of the lines
// sit just below 2³²−1, where the 32-bit tags (line + 1) end; line 2³²−2
// has the largest tag there is.
func TestCPUCacheIsExactLRU(t *testing.T) {
	const sets, ways = 4, cacheWays
	for seed := int64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		arena := offheap.New()
		c := newCPUCache(arena, sets*ways*LineSize)
		// The pool holds more lines than the cache, so lines both come
		// back while cached and get evicted.
		pool := []int64{0, math.MaxUint32 - 1}
		for len(pool) < 3*sets*ways/2 {
			pool = append(pool, rng.Int63n(1<<20), math.MaxUint32-1-rng.Int63n(1<<10))
		}
		model := make([][]int64, sets) // per set, most recently used first
		for step := 0; step < 20000; step++ {
			if step%5000 == 4999 {
				c.reset()
				clear(model)
			}
			l := pool[rng.Intn(len(pool))]
			set := c.set(l) // the model checks replacement, not the index
			s := model[set]
			at := slices.Index(s, l)
			if at >= 0 {
				s = slices.Delete(s, at, at+1)
			}
			s = slices.Insert(s, 0, l)
			model[set] = s[:min(len(s), ways)]
			if hit := c.accessRange(l, 1) == 0; hit != (at >= 0) {
				t.Fatalf("seed %d step %d: line %d hit=%v, LRU model says %v", seed, step, l, hit, at >= 0)
			}
		}
		runtime.KeepAlive(arena) // c's tags are arena memory
	}
}

// TestCPUCacheIndex pins the set index: consecutive lines take
// consecutive sets, and line i of the k-th 256-line page takes the set it
// would take at a stride of 257 lines, up to one offset for all pages, so
// that pages laid out back to back do not crowd their first lines into
// the same few sets. accessRange, which steps from set to set instead of
// dividing per line, must agree with it.
func TestCPUCacheIndex(t *testing.T) {
	const ways = cacheWays
	arena := offheap.New()
	c := newCPUCache(arena, 20<<20) // the default cache: 40 960 sets
	for l := int64(0); l < 4096; l++ {
		if c.set(l+1) != (c.set(l)+1)%c.sets && (l+1)%256 != 0 {
			t.Fatalf("lines %d and %d take sets %d and %d, not consecutive ones", l, l+1, c.set(l), c.set(l+1))
		}
	}
	const base = 1 << 18 // a 256-line boundary, like core's first slot
	shift := c.set(base)
	for k := int64(0); k < 400; k++ {
		for _, i := range []int64{0, 1, 100, 255} {
			got := c.set(base + 256*k + i)
			if want := (shift + 257*k + i) % c.sets; got != want {
				t.Fatalf("line %d of page %d: set %d, want %d as at a 257-line stride", i, k, got, want)
			}
		}
	}

	// accessRange derives each line's set from its predecessor's: every
	// line of a run, across 256-line boundaries and the wrap past the last
	// set, must land in the set the index function names.
	small := newCPUCache(arena, 3*ways*LineSize)
	for _, c := range []*cpuCache{c, small} {
		for _, first := range []int64{0, 1, 250, 255, 256, 511, base - 3, base + 254, 40959, 40960*256 - 2, 1<<31 - 5} {
			c.reset()
			c.accessRange(first, ways)
			for l := first; l < first+ways; l++ {
				set := c.set(l)
				if !slices.Contains(c.tags[set*ways:(set+1)*ways], uint32(l+1)) {
					t.Fatalf("%d sets, run from line %d: line %d is not in its set %d", c.sets, first, l, set)
				}
			}
		}
	}
	runtime.KeepAlive(arena)
}

func TestDropCPUCacheColdReads(t *testing.T) {
	var clk simclock.Clock
	cfg := testConfig(1 << 20)
	cfg.CPUCacheBytes = 1 << 16
	d := New(cfg, &clk)
	buf := make([]byte, LineSize)
	d.ReadAt(buf, 0)
	d.DropCPUCache()
	clk.Reset()
	d.ReadAt(buf, 0)
	if clk.Ns() == 0 {
		t.Fatal("read after DropCPUCache was free")
	}
}

func TestStrictPersistenceCrashRevertsUnflushed(t *testing.T) {
	var clk simclock.Clock
	cfg := testConfig(4096)
	cfg.StrictPersistence = true
	d := New(cfg, &clk)

	durable := []byte("durable")
	d.Persist(durable, 0)

	// Overwrite without flushing, plus a write to a fresh line.
	d.WriteAt([]byte("doomed!"), 0)
	d.WriteAt([]byte("also doomed"), 2*LineSize)
	d.Crash()

	got := make([]byte, len(durable))
	d.ReadAt(got, 0)
	if !bytes.Equal(got, durable) {
		t.Fatalf("after crash line 0 = %q, want %q", got, durable)
	}
	fresh := make([]byte, 11)
	d.ReadAt(fresh, 2*LineSize)
	if !bytes.Equal(fresh, make([]byte, 11)) {
		t.Fatalf("after crash unflushed fresh line = %q, want zeroes", fresh)
	}
}

func TestStrictPersistenceFlushSurvivesCrash(t *testing.T) {
	var clk simclock.Clock
	cfg := testConfig(4096)
	cfg.StrictPersistence = true
	d := New(cfg, &clk)

	d.WriteAt([]byte("v1"), 0)
	d.Flush(0, 2)
	d.WriteAt([]byte("v2"), 0)
	d.Flush(0, 2)
	d.Crash()
	got := make([]byte, 2)
	d.ReadAt(got, 0)
	if string(got) != "v2" {
		t.Fatalf("after crash = %q, want v2", got)
	}
}

// TestStrictPersistenceAllocatesNoLine: once the slab of previous line
// contents has room for the unflushed lines, writing lines, flushing them
// and crashing allocates nothing, however many lines pass through.
func TestStrictPersistenceAllocatesNoLine(t *testing.T) {
	const size, chunk = 1 << 20, 4096
	cfg := testConfig(size)
	cfg.StrictPersistence = true
	d := New(cfg, &simclock.Clock{})
	p := bytes.Repeat([]byte{7}, chunk)
	cycle := func() {
		for off := int64(0); off < size; off += chunk {
			d.WriteAt(p, off)
		}
		d.Flush(0, size/2)
		d.Crash() // reverts the unflushed half
	}
	cycle() // grows the slab and the index to the 16 384 lines
	if n := testing.AllocsPerRun(10, cycle); n != 0 {
		t.Fatalf("writing and flushing %d lines allocates %v objects, want 0", size/LineSize, n)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	var clk simclock.Clock
	d := New(testConfig(128), &clk)
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"read past end", func() { d.ReadAt(make([]byte, 64), 100) }},
		{"write past end", func() { d.WriteAt(make([]byte, 64), 100) }},
		{"negative offset", func() { d.ReadAt(make([]byte, 1), -1) }},
		{"flush past end", func() { d.Flush(64, 65) }},
		{"cache tags past 32 bits", func() {
			New(Config{Size: (math.MaxUint32 + 1) * LineSize, CPUCacheBytes: 1 << 20}, &clk)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			tc.fn()
		})
	}
}

func TestLineRange(t *testing.T) {
	tests := []struct {
		off        int64
		n          int
		first, cnt int64
	}{
		{0, 0, 0, 0},
		{0, 1, 0, 1},
		{0, 64, 0, 1},
		{0, 65, 0, 2},
		{63, 2, 0, 2},
		{64, 64, 1, 1},
		{130, 200, 2, 4},
	}
	for _, tc := range tests {
		first, cnt := lineRange(tc.off, tc.n)
		if first != tc.first || cnt != tc.cnt {
			t.Errorf("lineRange(%d, %d) = (%d, %d), want (%d, %d)",
				tc.off, tc.n, first, cnt, tc.first, tc.cnt)
		}
	}
}

// TestQuickWriteReadIdentity checks that arbitrary writes at arbitrary
// line-contained offsets read back identically.
func TestQuickWriteReadIdentity(t *testing.T) {
	var clk simclock.Clock
	d := New(testConfig(1<<16), &clk)
	f := func(data []byte, off uint16) bool {
		if len(data) == 0 {
			return true
		}
		o := int64(off) % (d.Size() - int64(len(data)))
		if o < 0 {
			o = 0
		}
		d.WriteAt(data, o)
		got := make([]byte, len(data))
		d.ReadAt(got, o)
		return bytes.Equal(got, data)
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCrashNeverLosesFlushedData: property-based check that flushed
// writes always survive a crash in strict mode.
func TestQuickCrashNeverLosesFlushedData(t *testing.T) {
	cfg := testConfig(1 << 14)
	cfg.StrictPersistence = true
	var clk simclock.Clock
	d := New(cfg, &clk)
	f := func(flushed, torn []byte, off uint8) bool {
		if len(flushed) == 0 {
			return true
		}
		if len(flushed) > 512 {
			flushed = flushed[:512]
		}
		if len(torn) > 512 {
			torn = torn[:512]
		}
		o := int64(off) * LineSize
		d.Persist(flushed, o)
		if len(torn) > 0 {
			d.WriteAt(torn, o)
		}
		d.Crash()
		got := make([]byte, len(flushed))
		d.ReadAt(got, o)
		return bytes.Equal(got, flushed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
