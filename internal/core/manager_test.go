package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"nvmstore/internal/nvm"
	"nvmstore/internal/ssd"
)

// newTestManager builds a Manager with small capacities suited to tests:
// DRAM of frames full frames, 64 pages of NVM, 256 pages of SSD, and no
// simulated CPU cache so that device charges are deterministic.
func newTestManager(t *testing.T, topo Topology, frames int, opts ...func(*Config)) *Manager {
	t.Helper()
	cfg := Config{
		Topology:      topo,
		DRAMBytes:     int64(frames) * fullFrameBytes,
		NVMBytes:      64 * slotSize,
		SSDBytes:      256 * PageSize,
		WALBytes:      1 << 16,
		CPUCacheBytes: -1,
	}
	if topo == MemOnly {
		cfg.DRAMBytes = 0
		cfg.SSDBytes = 0
	}
	if topo == DRAMNVM || topo == DirectNVM {
		cfg.SSDBytes = 0
	}
	for _, o := range opts {
		o(&cfg)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

// TestDeviceDefaults: the manager builds its devices from
// nvm.DefaultConfig and ssd.DefaultConfig, changing only the CPU cache
// size (zero keeps the default, a negative value turns the cache off) and
// strict persistence.
func TestDeviceDefaults(t *testing.T) {
	for _, row := range []struct {
		cache, wantCache int64
	}{
		{0, nvm.DefaultConfig(0).CPUCacheBytes},
		{-1, 0},
		{1 << 20, 1 << 20},
	} {
		for _, strict := range []bool{false, true} {
			m := newTestManager(t, ThreeTier, 8, func(c *Config) {
				c.CPUCacheBytes = row.cache
				c.StrictPersistence = strict
			})
			got := m.NVM().Config()
			want := nvm.DefaultConfig(got.Size)
			want.CPUCacheBytes = row.wantCache
			want.StrictPersistence = strict
			if got != want {
				t.Errorf("CPUCacheBytes %d, strict %v: NVM config %+v, want %+v", row.cache, strict, got, want)
			}
			if got, want := m.SSD().Config(), ssd.DefaultConfig(PageSize, m.Config().SSDBytes/PageSize); got != want {
				t.Errorf("CPUCacheBytes %d, strict %v: SSD config %+v, want %+v", row.cache, strict, got, want)
			}
		}
	}
}

func withFeatures(cl, mini, swizzle bool) func(*Config) {
	return func(c *Config) {
		c.CacheLineGrained = cl
		c.MiniPages = mini
		c.Swizzling = swizzle
	}
}

func mustAlloc(t *testing.T, m *Manager) Handle {
	t.Helper()
	h, err := m.Allocate()
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	return h
}

func mustFix(t *testing.T, m *Manager, pid PageID, mode AccessMode) Handle {
	t.Helper()
	h, err := m.Fix(MakeRef(pid), mode)
	if err != nil {
		t.Fatalf("Fix(%d): %v", pid, err)
	}
	return h
}

// fillPattern writes a deterministic page-wide pattern derived from seed.
func fillPattern(h Handle, seed byte) {
	data := h.WriteAll()
	for i := range data {
		data[i] = seed ^ byte(i) ^ byte(i>>8)
	}
}

// checkPattern verifies the full page matches fillPattern(seed).
func checkPattern(t *testing.T, h Handle, seed byte) {
	t.Helper()
	data := h.ReadAll()
	for i := range data {
		want := seed ^ byte(i) ^ byte(i>>8)
		if data[i] != want {
			t.Fatalf("page %d byte %d = %#x, want %#x", h.PID(), i, data[i], want)
		}
	}
}

func TestMemOnlyBasic(t *testing.T) {
	m := newTestManager(t, MemOnly, 0)
	h := mustAlloc(t, m)
	pid := h.PID()
	fillPattern(h, 3)
	m.Unfix(h)

	h2 := mustFix(t, m, pid, ModeFull)
	checkPattern(t, h2, 3)
	m.Unfix(h2)
}

func TestMemOnlyCapacity(t *testing.T) {
	m := newTestManager(t, MemOnly, 0, func(c *Config) {
		c.DRAMBytes = 4 * fullFrameBytes
	})
	for i := 0; i < 4; i++ {
		h := mustAlloc(t, m)
		m.Unfix(h)
	}
	if _, err := m.Allocate(); !errors.Is(err, ErrCapacity) {
		t.Fatalf("5th allocation: err = %v, want ErrCapacity", err)
	}
}

func TestDRAMSSDEvictAndReload(t *testing.T) {
	m := newTestManager(t, DRAMSSD, 4)
	h := mustAlloc(t, m)
	pid := h.PID()
	fillPattern(h, 9)
	m.Unfix(h)

	if err := m.CleanShutdown(); err != nil {
		t.Fatal(err)
	}
	if m.SSD().Stats().PagesWritten == 0 {
		t.Fatal("dirty page eviction wrote nothing to SSD")
	}
	h2 := mustFix(t, m, pid, ModeFull)
	checkPattern(t, h2, 9)
	m.Unfix(h2)
	if m.Stats().SSDLoads != 1 {
		t.Fatalf("SSDLoads = %d, want 1", m.Stats().SSDLoads)
	}
}

func TestDRAMSSDCleanPageNotRewritten(t *testing.T) {
	m := newTestManager(t, DRAMSSD, 4)
	h := mustAlloc(t, m)
	pid := h.PID()
	fillPattern(h, 1)
	m.Unfix(h)
	if err := m.CleanShutdown(); err != nil {
		t.Fatal(err)
	}
	written := m.SSD().Stats().PagesWritten

	// Reload, only read, evict again: no further SSD write.
	h2 := mustFix(t, m, pid, ModeFull)
	checkPattern(t, h2, 1)
	m.Unfix(h2)
	if err := m.CleanShutdown(); err != nil {
		t.Fatal(err)
	}
	if got := m.SSD().Stats().PagesWritten; got != written {
		t.Fatalf("clean page eviction wrote to SSD: %d -> %d writes", written, got)
	}
}

func TestDRAMNVMPageGrained(t *testing.T) {
	m := newTestManager(t, DRAMNVM, 4)
	h := mustAlloc(t, m)
	pid := h.PID()
	fillPattern(h, 7)
	m.Unfix(h)
	if err := m.CleanShutdown(); err != nil {
		t.Fatal(err)
	}

	h2 := mustFix(t, m, pid, ModeCacheLine)
	checkPattern(t, h2, 7)
	m.Unfix(h2)
	st := m.Stats()
	if st.NVMPageLoads != 1 {
		t.Fatalf("NVMPageLoads = %d, want 1 (page-grained mode)", st.NVMPageLoads)
	}
	if st.LinesLoaded != 0 {
		t.Fatalf("LinesLoaded = %d, want 0 (page-grained mode)", st.LinesLoaded)
	}
}

func TestCacheLineGrainedLoadsOnlyNeededLines(t *testing.T) {
	m := newTestManager(t, DRAMNVM, 4, withFeatures(true, false, false))
	h := mustAlloc(t, m)
	pid := h.PID()
	fillPattern(h, 5)
	m.Unfix(h)
	if err := m.CleanShutdown(); err != nil {
		t.Fatal(err)
	}
	m.ResetStats()

	h2 := mustFix(t, m, pid, ModeCacheLine)
	got := h2.Read(128, 8) // one line: line 2
	want := h2.Read(128, 8)
	if !bytes.Equal(got, want) {
		t.Fatal("repeated read differs")
	}
	if st := m.Stats(); st.LinesLoaded != 1 {
		t.Fatalf("LinesLoaded = %d after one-line read, want 1", st.LinesLoaded)
	}
	h2.Read(60, 10) // straddles lines 0 and 1
	if st := m.Stats(); st.LinesLoaded != 3 {
		t.Fatalf("LinesLoaded = %d after straddling read, want 3", st.LinesLoaded)
	}
	// Verify content correctness of a partial read.
	data := h2.Read(128, 8)
	for i := range data {
		wantB := byte(5) ^ byte(128+i) ^ byte((128+i)>>8)
		if data[i] != wantB {
			t.Fatalf("byte %d = %#x, want %#x", 128+i, data[i], wantB)
		}
	}
	m.Unfix(h2)
}

func TestCacheLineWriteBackOnlyDirtyLines(t *testing.T) {
	m := newTestManager(t, DRAMNVM, 4, withFeatures(true, false, false))
	h := mustAlloc(t, m)
	pid := h.PID()
	fillPattern(h, 2)
	m.Unfix(h)
	if err := m.CleanShutdown(); err != nil {
		t.Fatal(err)
	}

	slot := int64(pid - 1)
	dataLine := m.slotDataOff(slot) / LineSize
	wearBefore := m.NVM().WearCounts()

	h2 := mustFix(t, m, pid, ModeCacheLine)
	w := h2.Write(3*LineSize, 8) // dirty exactly line 3
	w[0] = 0xFF
	m.Unfix(h2)
	if err := m.CleanShutdown(); err != nil {
		t.Fatal(err)
	}

	wearAfter := m.NVM().WearCounts()
	if got := wearAfter[dataLine+3] - wearBefore[dataLine+3]; got != 1 {
		t.Fatalf("dirty line written %d times, want 1", got)
	}
	for l := int64(0); l < LinesPerPage; l++ {
		if l == 3 {
			continue
		}
		if wearAfter[dataLine+l] != wearBefore[dataLine+l] {
			t.Fatalf("clean line %d was rewritten", l)
		}
	}

	// The modification must be durable.
	h3 := mustFix(t, m, pid, ModeCacheLine)
	if got := h3.Read(3*LineSize, 1)[0]; got != 0xFF {
		t.Fatalf("written byte = %#x, want 0xFF", got)
	}
	m.Unfix(h3)
}

func TestMiniPageBasic(t *testing.T) {
	m := newTestManager(t, DRAMNVM, 4, withFeatures(true, true, false))
	h := mustAlloc(t, m)
	pid := h.PID()
	fillPattern(h, 11)
	m.Unfix(h)
	if err := m.CleanShutdown(); err != nil {
		t.Fatal(err)
	}
	m.ResetStats()

	h2 := mustFix(t, m, pid, ModeCacheLine)
	if st := m.Stats(); st.MiniAllocs != 1 {
		t.Fatalf("MiniAllocs = %d, want 1", st.MiniAllocs)
	}
	// Access three lines out of order and verify content.
	for _, line := range []int{9, 3, 7} {
		data := h2.Read(line*LineSize, LineSize)
		for i := range data {
			off := line*LineSize + i
			want := byte(11) ^ byte(off) ^ byte(off>>8)
			if data[i] != want {
				t.Fatalf("line %d byte %d = %#x, want %#x", line, i, data[i], want)
			}
		}
	}
	// Mini pages cost far less DRAM than a full page.
	if used := m.dramUsed; used != miniFrameBytes {
		t.Fatalf("dramUsed = %d, want %d (one mini page)", used, miniFrameBytes)
	}
	// Modify line 3 and evict; the change must persist, others must not
	// be disturbed.
	copy(h2.Write(3*LineSize, 4), "MINI")
	m.Unfix(h2)
	if err := m.CleanShutdown(); err != nil {
		t.Fatal(err)
	}
	h3 := mustFix(t, m, pid, ModeFull)
	data := h3.ReadAll()
	if string(data[3*LineSize:3*LineSize+4]) != "MINI" {
		t.Fatal("mini-page write lost on eviction")
	}
	for i := 3*LineSize + 4; i < PageSize; i++ {
		want := byte(11) ^ byte(i) ^ byte(i>>8)
		if data[i] != want {
			t.Fatalf("byte %d corrupted: %#x want %#x", i, data[i], want)
		}
	}
	m.Unfix(h3)
}

func TestMiniPageContiguousMultiLine(t *testing.T) {
	m := newTestManager(t, DRAMNVM, 4, withFeatures(true, true, false))
	h := mustAlloc(t, m)
	pid := h.PID()
	fillPattern(h, 4)
	m.Unfix(h)
	if err := m.CleanShutdown(); err != nil {
		t.Fatal(err)
	}

	h2 := mustFix(t, m, pid, ModeCacheLine)
	// Load line 5 first, then request a span over 4..6: the mini page
	// must keep physical lines contiguous.
	h2.Read(5*LineSize, 8)
	span := h2.Read(4*LineSize, 3*LineSize)
	for i := range span {
		off := 4*LineSize + i
		want := byte(4) ^ byte(off) ^ byte(off>>8)
		if span[i] != want {
			t.Fatalf("span byte %d = %#x, want %#x", off, span[i], want)
		}
	}
	m.Unfix(h2)
}

// evictedPage allocates a page filled with fillPattern(seed) on a fresh
// manager and evicts it, so the next fix finds it on NVM only.
func evictedPage(t *testing.T, topo Topology, seed byte, opts ...func(*Config)) (*Manager, PageID) {
	t.Helper()
	m := newTestManager(t, topo, 8, opts...)
	h := mustAlloc(t, m)
	fillPattern(h, seed)
	m.Unfix(h)
	if err := m.CleanShutdown(); err != nil {
		t.Fatal(err)
	}
	return m, h.PID()
}

// TestMakeResidentOneRequestPerRun pins the price of MakeResident: a cold
// multi-line access is one device read of latency + (n-1)·lineTransfer on
// every frame kind, and a resident line in the middle splits it in two.
func TestMakeResidentOneRequestPerRun(t *testing.T) {
	kinds := []struct {
		name string
		topo Topology
		opt  func(*Config)
		kind frameKind
	}{
		{"mini", DRAMNVM, withFeatures(true, true, false), kindMini},
		{"full", DRAMNVM, withFeatures(true, false, false), kindFull},
		{"direct", DirectNVM, withFeatures(false, false, false), kindDirect},
	}
	for _, k := range kinds {
		m, pid := evictedPage(t, k.topo, 13, k.opt)
		h := mustFix(t, m, pid, ModeCacheLine)
		if h.f.kind != k.kind {
			t.Fatalf("%s: frame kind = %d, want %d", k.name, h.f.kind, k.kind)
		}
		// check reads [off, off+n) and compares what it cost.
		check := func(what string, off, n int, wantNs time.Duration, wantReads, wantLines int64) {
			t.Helper()
			m.ResetStats()
			m.NVM().ResetStats()
			t0 := m.Clock().Ns()
			h.Read(off, n)
			if got := m.Clock().Ns() - t0; got != int64(wantNs) {
				t.Errorf("%s: %s charged %d ns, want %d", k.name, what, got, int64(wantNs))
			}
			if got := m.NVM().Stats().ReadOps; got != wantReads {
				t.Errorf("%s: %s issued %d device reads, want %d", k.name, what, got, wantReads)
			}
			if st := m.Stats(); k.kind != kindDirect && (st.LinesLoaded != wantLines || st.LineLoadRequests != wantReads) {
				t.Errorf("%s: %s: LinesLoaded/LineLoadRequests = %d/%d, want %d/%d",
					k.name, what, st.LinesLoaded, st.LineLoadRequests, wantLines, wantReads)
			}
		}
		dev := m.NVM().Config()
		check("cold 3-line read", 4*LineSize+10, 2*LineSize+20, dev.ReadLatency+2*dev.LineTransfer, 1, 3)
		if k.kind != kindDirect { // a direct frame holds no lines to split a span
			h.Read(9*LineSize, 8)
			check("3-line read around resident line 9", 8*LineSize, 3*LineSize, 2*dev.ReadLatency, 2, 2)
		}
		m.Unfix(h)
	}
}

// miniOp is one access of TestMiniPageMatchesModel: lines [Line%48,
// +Span%4] of the page, from byte From%64 of the first line to byte To%64
// of the last.
type miniOp struct {
	Line, Span, From, To uint8
	Write                bool
	Fill                 byte
}

// TestMiniPageMatchesModel drives random 1-4 line reads and writes against
// one NVM-backed mini page and a plain 16 KB model of the page. Multi-line
// inserts shift slots, data and the dirty mask by several positions at
// once; whatever they get wrong shows up as a slice that differs from the
// model, a broken slot directory, a misplaced dirty bit, a promotion at the
// wrong moment or a wrong NVM image after eviction.
func TestMiniPageMatchesModel(t *testing.T) {
	run := func(ops []miniOp) bool {
		m, pid := evictedPage(t, DRAMNVM, 17, withFeatures(true, true, false))
		h := mustFix(t, m, pid, ModeCacheLine)
		f := h.f
		model := make([]byte, PageSize)
		for i := range model {
			model[i] = 17 ^ byte(i) ^ byte(i>>8)
		}
		var written [LinesPerPage]bool
		for n, op := range ops {
			a := int(op.Line % 48)
			b := a + int(op.Span%4)
			from, to := a*LineSize+int(op.From%64), b*LineSize+int(op.To%64)
			if to < from {
				from, to = a*LineSize+int(op.To%64), b*LineSize+int(op.From%64)
			}
			missing := 0
			for l := a; l <= b; l++ {
				if bytes.IndexByte(f.slots[:f.count], uint8(l)) < 0 {
					missing++
				}
			}
			promote := f.promoted == nil && int(f.count)+missing > MiniLines
			wasPromoted := f.promoted != nil

			var got []byte
			if op.Write {
				got = h.Write(from, to-from+1)
			} else {
				got = h.Read(from, to-from+1)
			}
			if !bytes.Equal(got, model[from:to+1]) {
				t.Errorf("op %d %+v: returned slice differs from the model", n, op)
				return false
			}
			if op.Write {
				for i := range got {
					got[i] = op.Fill + byte(i)
				}
				copy(model[from:], got)
				for l := a; l <= b; l++ {
					written[l] = true
				}
			}
			if (f.promoted != nil) != (wasPromoted || promote) {
				t.Errorf("op %d %+v: promoted=%v with %d lines resident and %d missing", n, op, f.promoted != nil, f.count, missing)
				return false
			}
			if f.promoted != nil {
				continue
			}
			if err := f.checkMini(); err != nil {
				t.Errorf("op %d %+v: %v", n, op, err)
				return false
			}
			for i := 0; i < int(f.count); i++ {
				l := int(f.slots[i])
				if !bytes.Equal(f.data[i*LineSize:(i+1)*LineSize], model[l*LineSize:(l+1)*LineSize]) {
					t.Errorf("op %d %+v: slot %d does not hold line %d", n, op, i, l)
					return false
				}
				if dirty := f.miniDirty&(1<<uint(i)) != 0; dirty != written[l] {
					t.Errorf("op %d %+v: slot %d (line %d) dirty=%v, written=%v", n, op, i, l, dirty, written[l])
					return false
				}
			}
		}
		m.Unfix(h)
		if err := m.CleanShutdown(); err != nil {
			t.Error(err)
			return false
		}
		if !bytes.Equal(m.NVM().View(m.slotDataOff(int64(pid-1)), PageSize), model) {
			t.Errorf("NVM slot differs from the model after eviction (%d ops)", len(ops))
			return false
		}
		return true
	}
	if err := quick.Check(run, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(19))}); err != nil {
		t.Fatal(err)
	}
}

func TestMiniPagePromotion(t *testing.T) {
	m := newTestManager(t, DRAMNVM, 8, withFeatures(true, true, false))
	h := mustAlloc(t, m)
	pid := h.PID()
	fillPattern(h, 6)
	m.Unfix(h)
	if err := m.CleanShutdown(); err != nil {
		t.Fatal(err)
	}
	m.ResetStats()

	h2 := mustFix(t, m, pid, ModeCacheLine)
	// Dirty a line pre-promotion so we can check dirty-state transfer.
	copy(h2.Write(2*LineSize, 4), "PREP")
	// Touch 17 distinct lines: the 17th overflows the mini page.
	for line := 0; line < 17; line++ {
		h2.Read(line*LineSize, 1)
	}
	st := m.Stats()
	if st.MiniPromotions != 1 {
		t.Fatalf("MiniPromotions = %d, want 1", st.MiniPromotions)
	}
	// Reads through the promoted wrapper still return correct data.
	for line := 0; line < 20; line++ {
		data := h2.Read(line*LineSize, LineSize)
		for i := range data {
			off := line*LineSize + i
			want := byte(6) ^ byte(off) ^ byte(off>>8)
			if line == 2 && i < 4 {
				want = "PREP"[i]
			}
			if data[i] != want {
				t.Fatalf("post-promotion line %d byte %d wrong", line, i)
			}
		}
	}
	m.Unfix(h2)
	// After unfix the wrapper is gone: only the full frame remains.
	if used := m.dramUsed; used != fullFrameBytes {
		t.Fatalf("dramUsed = %d after unfix, want %d", used, fullFrameBytes)
	}
	// The pre-promotion dirty line survives eviction.
	if err := m.CleanShutdown(); err != nil {
		t.Fatal(err)
	}
	h3 := mustFix(t, m, pid, ModeFull)
	if string(h3.ReadAll()[2*LineSize:2*LineSize+4]) != "PREP" {
		t.Fatal("dirty line lost across promotion")
	}
	m.Unfix(h3)
}

func TestSwizzling(t *testing.T) {
	m := newTestManager(t, DRAMNVM, 8, withFeatures(true, false, true))
	parent := mustAlloc(t, m)
	child := mustAlloc(t, m)
	childPID := child.PID()
	fillPattern(child, 8)
	// Store the child reference at offset 256 of the parent.
	putRef(parent.Write(256, 8), 0, MakeRef(childPID))
	m.Unfix(child)

	m.ResetStats()
	c1, err := m.FixChild(parent, 256, ModeCacheLine)
	if err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Swizzles != 1 {
		t.Fatalf("Swizzles = %d, want 1", st.Swizzles)
	}
	if ref := getRef(parent.Read(256, 8), 0); !ref.Swizzled() {
		t.Fatal("parent word not swizzled after FixChild")
	}
	m.Unfix(c1)

	// Second fix goes through the swizzled pointer, not the table.
	c2, err := m.FixChild(parent, 256, ModeCacheLine)
	if err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.SwizzleHits != 1 {
		t.Fatalf("SwizzleHits = %d, want 1", st.SwizzleHits)
	}
	checkPattern(t, c2, 8)
	m.Unfix(c2)

	// Clean shutdown evicts the child first (unswizzling the parent
	// word) and then the parent; the persisted word must be the page id.
	m.Unfix(parent)
	if err := m.CleanShutdown(); err != nil {
		t.Fatal(err)
	}
	p2 := mustFix(t, m, parent.PID(), ModeFull)
	if ref := getRef(p2.ReadAll(), 256); ref.Swizzled() || ref.PageID() != childPID {
		t.Fatalf("persisted child word = %#x, want page id %d", uint64(ref), childPID)
	}
	m.Unfix(p2)
}

func TestSwizzledChildPinsParent(t *testing.T) {
	m := newTestManager(t, DRAMNVM, 4, withFeatures(true, false, true))
	parent := mustAlloc(t, m)
	child := mustAlloc(t, m)
	putRef(parent.Write(0, 8), 0, MakeRef(child.PID()))
	m.Unfix(child)
	c, err := m.FixChild(parent, 0, ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	// Keep the child pinned so it stays swizzled; the unpinned parent
	// must then survive eviction pressure, because evicting it would
	// persist the swizzled pointer.
	parentPID := parent.PID()
	m.Unfix(parent)

	for i := 0; i < 6; i++ {
		h := mustAlloc(t, m)
		m.Unfix(h)
	}
	loc, ok := m.table[parentPID]
	if !ok || !loc.inDRAM() {
		t.Fatalf("parent with swizzled child was evicted (loc=%v ok=%v)", loc, ok)
	}
	m.Unfix(c)
}

func TestUnswizzleChildren(t *testing.T) {
	m := newTestManager(t, DRAMNVM, 8, withFeatures(true, false, true))
	parent := mustAlloc(t, m)
	child := mustAlloc(t, m)
	childPID := child.PID()
	putRef(parent.Write(64, 8), 0, MakeRef(childPID))
	m.Unfix(child)
	c, err := m.FixChild(parent, 64, ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	m.Unfix(c)

	m.UnswizzleChildren(parent)
	if ref := getRef(parent.Read(64, 8), 0); ref.Swizzled() || ref.PageID() != childPID {
		t.Fatalf("word after UnswizzleChildren = %#x, want page id %d", uint64(ref), childPID)
	}
	if parent.f.swizzledChildren != 0 {
		t.Fatalf("swizzledChildren = %d, want 0", parent.f.swizzledChildren)
	}
	m.Unfix(parent)
}

func TestFixRootSwizzles(t *testing.T) {
	m := newTestManager(t, DRAMNVM, 4, withFeatures(true, false, true))
	h := mustAlloc(t, m)
	pid := h.PID()
	fillPattern(h, 1)
	m.Unfix(h)

	root := MakeRef(pid)
	r1, err := m.FixRoot(&root, ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	if !root.Swizzled() {
		t.Fatal("root holder not swizzled")
	}
	m.Unfix(r1)

	// Eviction restores the page id in the holder.
	if err := m.CleanShutdown(); err != nil {
		t.Fatal(err)
	}
	if root.Swizzled() || root.PageID() != pid {
		t.Fatalf("root holder after eviction = %#x, want page id %d", uint64(root), pid)
	}
	r2, err := m.FixRoot(&root, ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	checkPattern(t, r2, 1)
	m.Unfix(r2)
}

func TestThreeTierAdmission(t *testing.T) {
	m := newTestManager(t, ThreeTier, 4, withFeatures(true, true, false), func(c *Config) {
		c.NVMBytes = 2 * slotSize
	})
	evictAll := func() {
		t.Helper()
		if err := m.CleanShutdown(); err != nil {
			t.Fatal(err)
		}
	}
	cycle := func(pid PageID, seed byte) {
		t.Helper()
		h := mustFix(t, m, pid, ModeCacheLine)
		checkPattern(t, h, seed)
		m.Unfix(h)
		evictAll()
	}
	var residents [2]PageID
	for i := range residents {
		h := mustAlloc(t, m)
		residents[i] = h.PID()
		fillPattern(h, byte(10+i))
		m.Unfix(h)
	}

	// First eviction with free slots: both pages move into NVM at once,
	// nothing goes to SSD.
	evictAll()
	st := m.Stats()
	if st.NVMAdmissions != 2 || st.NVMDenials != 0 || m.SSD().Stats().PagesWritten != 0 {
		t.Fatalf("with free slots: admissions=%d denials=%d SSD writes=%d, want 2/0/0",
			st.NVMAdmissions, st.NVMDenials, m.SSD().Stats().PagesWritten)
	}
	for i, pid := range residents {
		cycle(pid, byte(10+i)) // loaded twice now
	}

	// NVM is full. A once-loaded page loses the duel against a twice-loaded
	// resident and goes to SSD.
	h := mustAlloc(t, m)
	pid := h.PID()
	fillPattern(h, 13)
	m.Unfix(h)
	evictAll()
	st = m.Stats()
	if st.NVMDenials != 1 || st.NVMAdmissions != 2 || st.NVMEvictions != 0 {
		t.Fatalf("once-loaded page against twice-loaded residents: denials=%d admissions=%d NVM evictions=%d, want 1/2/0",
			st.NVMDenials, st.NVMAdmissions, st.NVMEvictions)
	}
	if m.SSD().Stats().PagesWritten != 1 {
		t.Fatalf("SSD writes = %d, want 1", m.SSD().Stats().PagesWritten)
	}

	// It comes back from SSD: two loads each is a tie, and a tie keeps the
	// victim.
	cycle(pid, 13)
	if st = m.Stats(); st.NVMDenials != 2 || st.NVMAdmissions != 2 {
		t.Fatalf("tie: denials=%d admissions=%d, want 2/2", st.NVMDenials, st.NVMAdmissions)
	}

	// It comes back again and wins, evicting a resident.
	cycle(pid, 13)
	st = m.Stats()
	if st.NVMAdmissions != 3 || st.NVMEvictions != 1 {
		t.Fatalf("after the third load: admissions=%d NVM evictions=%d, want 3/1", st.NVMAdmissions, st.NVMEvictions)
	}
	loc, ok := m.table[pid]
	if !ok || loc.inDRAM() {
		t.Fatalf("page location after admission = %v, want NVM", loc)
	}

	// The next fix comes from NVM, cache-line-grained.
	m.ResetStats()
	ssdReads := m.SSD().Stats().PagesRead
	h3 := mustFix(t, m, pid, ModeCacheLine)
	h3.Read(0, 8)
	if st := m.Stats(); st.LinesLoaded == 0 {
		t.Fatal("NVM-backed fix loaded no cache lines")
	}
	if m.SSD().Stats().PagesRead != ssdReads {
		t.Fatal("NVM-resident page was read from SSD")
	}
	m.Unfix(h3)
	// Both former residents are still readable, wherever they are.
	for i, pid := range residents {
		h := mustFix(t, m, pid, ModeFull)
		checkPattern(t, h, byte(10+i))
		m.Unfix(h)
	}
}

func TestThreeTierNVMEviction(t *testing.T) {
	m := newTestManager(t, ThreeTier, 4, func(c *Config) {
		c.CacheLineGrained = true
		c.NVMBytes = 2 * slotSize // room for only two NVM pages
	})
	// Three pages, two slots: the first two take the free slots, the third
	// ties with them and goes to SSD.
	var pids []PageID
	for i := 0; i < 3; i++ {
		h := mustAlloc(t, m)
		pids = append(pids, h.PID())
		fillPattern(h, byte(20+i))
		m.Unfix(h)
	}
	if err := m.CleanShutdown(); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.NVMAdmissions != 2 || st.NVMDenials != 1 || st.NVMEvictions != 0 {
		t.Fatalf("3 pages into 2 free slots: admissions=%d denials=%d NVM evictions=%d, want 2/1/0",
			st.NVMAdmissions, st.NVMDenials, st.NVMEvictions)
	}
	// The third page comes back through DRAM, the residents do not: it wins
	// its duel and a dirty resident is evicted to SSD.
	ssdWrites := m.SSD().Stats().PagesWritten
	h := mustFix(t, m, pids[2], ModeFull)
	m.Unfix(h)
	if err := m.CleanShutdown(); err != nil {
		t.Fatal(err)
	}
	if m.Stats().NVMEvictions != 1 {
		t.Fatalf("NVM evictions = %d, want 1", m.Stats().NVMEvictions)
	}
	if got := m.SSD().Stats().PagesWritten - ssdWrites; got != 1 {
		t.Fatalf("the evicted slot was dirty with respect to SSD: %d SSD writes, want 1", got)
	}
	// All pages must still be readable with correct content.
	for i, pid := range pids {
		h := mustFix(t, m, pid, ModeFull)
		checkPattern(t, h, byte(20+i))
		m.Unfix(h)
	}
}

func TestCleanRestartRebuildsTable(t *testing.T) {
	m := newTestManager(t, ThreeTier, 4, withFeatures(true, true, false))
	h := mustAlloc(t, m)
	pid := h.PID()
	fillPattern(h, 17)
	m.Unfix(h)
	// Two eviction rounds to get the page admitted to NVM.
	if err := m.CleanShutdown(); err != nil {
		t.Fatal(err)
	}
	h2 := mustFix(t, m, pid, ModeFull)
	m.Unfix(h2)
	if err := m.CleanRestart(); err != nil {
		t.Fatal(err)
	}

	loc, ok := m.table[pid]
	if !ok || loc.inDRAM() {
		t.Fatalf("restart did not rebuild NVM mapping: loc=%v ok=%v", loc, ok)
	}
	ssdReads := m.SSD().Stats().PagesRead
	h3 := mustFix(t, m, pid, ModeFull)
	checkPattern(t, h3, 17)
	m.Unfix(h3)
	if m.SSD().Stats().PagesRead != ssdReads {
		t.Fatal("restart lost the NVM cache: page re-read from SSD")
	}
}

func TestCrashRestartStrictPersistence(t *testing.T) {
	m := newTestManager(t, DRAMNVM, 4, func(c *Config) {
		c.CacheLineGrained = true
		c.StrictPersistence = true
	})
	h := mustAlloc(t, m)
	pid := h.PID()
	fillPattern(h, 30)
	m.Unfix(h)
	if err := m.CleanShutdown(); err != nil {
		t.Fatal(err)
	}

	// Modify the page but crash before eviction: the change is only in
	// DRAM and must be lost.
	h2 := mustFix(t, m, pid, ModeCacheLine)
	copy(h2.Write(0, 4), "LOST")
	if err := m.CrashRestart(); err != nil {
		t.Fatal(err)
	}
	h3 := mustFix(t, m, pid, ModeFull)
	checkPattern(t, h3, 30)
	m.Unfix(h3)
}

// TestPageIDsOnlyGrowAcrossRestarts: nothing frees a page, so every
// allocation takes an id above every id handed out before it, across a
// clean restart and a crash alike; the persisted watermark is all a
// restart needs to keep that.
func TestPageIDsOnlyGrowAcrossRestarts(t *testing.T) {
	for _, topo := range []Topology{DRAMSSD, DRAMNVM, ThreeTier, DirectNVM} {
		t.Run(topo.String(), func(t *testing.T) {
			m := newTestManager(t, topo, 4, func(c *Config) { c.StrictPersistence = true })
			var top PageID
			alloc := func(when string) {
				t.Helper()
				for i := 0; i < 6; i++ {
					h := mustAlloc(t, m)
					if h.PID() <= top {
						t.Fatalf("%s: allocated page %d, not above %d", when, h.PID(), top)
					}
					top = h.PID()
					fillPattern(h, byte(top))
					m.Unfix(h)
				}
			}
			alloc("fresh")
			if err := m.CleanRestart(); err != nil {
				t.Fatal(err)
			}
			alloc("after a clean restart")
			if err := m.CrashRestart(); err != nil {
				t.Fatal(err)
			}
			alloc("after a crash")
		})
	}
}

func TestDirectNVM(t *testing.T) {
	m := newTestManager(t, DirectNVM, 0)
	h := mustAlloc(t, m)
	pid := h.PID()
	copy(h.Write(128, 6), "DIRECT")
	wear := m.NVM().WearCounts()
	m.Unfix(h)

	// Unfix flushed exactly the dirty line (line 2 of the page data).
	dataLine := m.slotDataOff(int64(pid-1)) / LineSize
	after := m.NVM().WearCounts()
	if after[dataLine+2]-wear[dataLine+2] != 1 {
		t.Fatalf("dirty line flushed %d times, want 1", after[dataLine+2]-wear[dataLine+2])
	}
	if after[dataLine] != wear[dataLine] {
		t.Fatal("clean line was flushed")
	}

	// Reads charge NVM latency.
	before := m.Clock().Ns()
	h2 := mustFix(t, m, pid, ModeCacheLine)
	got := h2.Read(128, 6)
	if string(got) != "DIRECT" {
		t.Fatalf("read back %q", got)
	}
	if m.Clock().Ns() == before {
		t.Fatal("direct read charged no latency")
	}
	m.Unfix(h2)
	if m.Stats().DirectFixes != 2 {
		t.Fatalf("DirectFixes = %d, want 2", m.Stats().DirectFixes)
	}
}

func TestUserMetaPersistsAcrossRestart(t *testing.T) {
	m := newTestManager(t, ThreeTier, 4)
	meta := []byte("catalog: tree@3")
	if err := m.SetUserMeta(meta); err != nil {
		t.Fatal(err)
	}
	if err := m.CleanRestart(); err != nil {
		t.Fatal(err)
	}
	if got := m.UserMeta(); !bytes.Equal(got, meta) {
		t.Fatalf("UserMeta after restart = %q, want %q", got, meta)
	}
}

func TestUserMetaTooLarge(t *testing.T) {
	m := newTestManager(t, MemOnly, 0)
	if err := m.SetUserMeta(make([]byte, userMetaMax+1)); err == nil {
		t.Fatal("oversized metadata accepted")
	}
}

func TestDebugChecksCatchUnmarkedWrite(t *testing.T) {
	m := newTestManager(t, DRAMNVM, 4, func(c *Config) {
		c.CacheLineGrained = true
		c.DebugChecks = true
	})
	h := mustAlloc(t, m)
	pid := h.PID()
	fillPattern(h, 2)
	m.Unfix(h)
	if err := m.CleanShutdown(); err != nil {
		t.Fatal(err)
	}

	h2 := mustFix(t, m, pid, ModeCacheLine)
	// Simulate a buggy caller: mutate a read-only slice.
	h2.Read(0, 8)[0] ^= 0xFF
	m.Unfix(h2)
	defer func() {
		if recover() == nil {
			t.Fatal("debug checks did not catch unmarked write")
		}
	}()
	_ = m.CleanShutdown()
}

// TestDroppedFramesReused pins newFrame's reuse of dropped Frame structs
// and its exception: under DebugChecks an evicted frame is never reused,
// so a stale handle to it fails on its first access instead of reading
// whichever page the struct was given to.
func TestDroppedFramesReused(t *testing.T) {
	for _, debug := range []bool{false, true} {
		m := newTestManager(t, DRAMNVM, 4, func(c *Config) { c.DebugChecks = debug })
		stale := mustAlloc(t, m)
		fillPattern(stale, 1)
		m.Unfix(stale)
		m.evictFrame(stale.f)
		h := mustAlloc(t, m)
		fillPattern(h, 2)
		if reused := h.f == stale.f; reused == debug {
			t.Fatalf("DebugChecks %v: the next frame reused the evicted one's struct: %v", debug, reused)
		}
		m.Unfix(h)
		if !debug {
			continue
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("DebugChecks: a stale handle read its evicted page without failing")
				}
			}()
			stale.Read(0, 8)
		}()
	}
}

func TestUnfixPanics(t *testing.T) {
	m := newTestManager(t, MemOnly, 0)
	h := mustAlloc(t, m)
	m.Unfix(h)
	defer func() {
		if recover() == nil {
			t.Fatal("double unfix did not panic")
		}
	}()
	m.Unfix(h)
}

func TestFixUnknownPage(t *testing.T) {
	m := newTestManager(t, DRAMNVM, 4)
	if _, err := m.Fix(MakeRef(99), ModeFull); !errors.Is(err, ErrPageNotFound) {
		t.Fatalf("err = %v, want ErrPageNotFound", err)
	}
	if _, err := m.Fix(MakeRef(InvalidPageID), ModeFull); !errors.Is(err, ErrPageNotFound) {
		t.Fatalf("err = %v, want ErrPageNotFound", err)
	}
}

// TestRandomAccessAgainstShadow drives one page through random reads,
// writes, evictions, and restarts in every buffered topology and feature
// combination, comparing against an in-memory shadow copy.
func TestRandomAccessAgainstShadow(t *testing.T) {
	type variant struct {
		name string
		topo Topology
		feat func(*Config)
	}
	variants := []variant{
		{"ssd-bm", DRAMSSD, withFeatures(false, false, false)},
		{"basic-nvm", DRAMNVM, withFeatures(false, false, false)},
		{"nvm-cl", DRAMNVM, withFeatures(true, false, false)},
		{"nvm-cl-mini", DRAMNVM, withFeatures(true, true, false)},
		{"three-tier", ThreeTier, withFeatures(true, true, true)},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			m := newTestManager(t, v.topo, 4, v.feat)
			rng := rand.New(rand.NewSource(42))
			h := mustAlloc(t, m)
			pid := h.PID()
			shadow := make([]byte, PageSize)
			copy(h.WriteAll(), shadow) // starts zeroed
			m.Unfix(h)

			for step := 0; step < 2000; step++ {
				switch rng.Intn(10) {
				case 0: // evict everything
					if err := m.CleanShutdown(); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					continue
				case 1: // full restart
					if v.topo == ThreeTier {
						if err := m.CleanRestart(); err != nil {
							t.Fatalf("step %d: %v", step, err)
						}
						continue
					}
				}
				hh, err := m.Fix(MakeRef(pid), ModeCacheLine)
				if err != nil {
					t.Fatalf("step %d: fix: %v", step, err)
				}
				nOps := 1 + rng.Intn(4)
				for op := 0; op < nOps; op++ {
					n := 1 + rng.Intn(300)
					off := rng.Intn(PageSize - n)
					if rng.Intn(2) == 0 {
						got := hh.Read(off, n)
						if !bytes.Equal(got, shadow[off:off+n]) {
							t.Fatalf("step %d: read [%d,%d) mismatch", step, off, off+n)
						}
					} else {
						w := hh.Write(off, n)
						rng.Read(w)
						copy(shadow[off:], w)
					}
				}
				m.Unfix(hh)
			}
			// Final full verification.
			hh := mustFix(t, m, pid, ModeFull)
			if !bytes.Equal(hh.ReadAll(), shadow) {
				t.Fatal("final page content diverged from shadow")
			}
			m.Unfix(hh)
		})
	}
}

// TestManyPagesEvictionChurn creates more pages than DRAM holds and
// repeatedly accesses them in random order, verifying content integrity
// under heavy eviction in the three-tier topology.
func TestManyPagesEvictionChurn(t *testing.T) {
	m := newTestManager(t, ThreeTier, 6, withFeatures(true, true, true))
	const pages = 24
	pids := make([]PageID, pages)
	for i := range pids {
		h := mustAlloc(t, m)
		pids[i] = h.PID()
		fillPattern(h, byte(i))
		m.Unfix(h)
	}
	rng := rand.New(rand.NewSource(3))
	for step := 0; step < 3000; step++ {
		i := rng.Intn(pages)
		h, err := m.Fix(MakeRef(pids[i]), ModeCacheLine)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		off := rng.Intn(PageSize - 8)
		data := h.Read(off, 8)
		for j := range data {
			want := byte(i) ^ byte(off+j) ^ byte((off+j)>>8)
			if data[j] != want {
				t.Fatalf("step %d: page %d byte %d = %#x, want %#x", step, pids[i], off+j, data[j], want)
			}
		}
		m.Unfix(h)
	}
	st := m.Stats()
	if st.DRAMEvictions == 0 {
		t.Fatal("no DRAM evictions despite 24 pages in a 6-frame pool")
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{Topology: ThreeTier}, // missing capacities
		{Topology: DRAMNVM},   // missing NVM
		{Topology: DRAMSSD},   // missing SSD
		{Topology: DRAMSSD, SSDBytes: 1 << 20, DRAMBytes: 10},   // DRAM too small
		{Topology: DRAMNVM, NVMBytes: 1 << 20, MiniPages: true}, // mini without CL
		{Topology: Topology(99)},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
}
