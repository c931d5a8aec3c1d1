package core

import (
	"reflect"
	"testing"

	"nvmstore/internal/obs"
)

// TestPageLifecycleCounters drives one page through the full three-tier
// lifecycle by calling the eviction paths directly (no clock-hand
// scheduling involved) and asserts the exact Stats delta of every step:
// an SSD round trip through a lost admission duel, NVM admission, a
// mini-page load, promotion, NVM write-back, and the final eviction of its
// NVM slot to SSD.
func TestPageLifecycleCounters(t *testing.T) {
	rec := obs.NewCollector()
	m, err := New(Config{
		Topology:         ThreeTier,
		NVMBytes:         slotSize, // one slot, so that a denial can be staged
		SSDBytes:         1 << 20,
		CacheLineGrained: true,
		MiniPages:        true,
		Recorder:         rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	newPage(t, m, 0) // another page takes the one free slot, dirty
	last := m.Stats()
	step := func(name string, want Stats) {
		t.Helper()
		now := m.Stats()
		if got := statsDelta(now, last); got != want {
			t.Fatalf("%s: Stats delta\n got %+v\nwant %+v", name, got, want)
		}
		last = now
	}
	type byCause = [numWriteCauses]int64

	// Allocate and dirty a page, then evict it. It has been in DRAM as
	// often as the slot's page — a tie — so it is denied NVM and written
	// to SSD. The allocation persists the page-id watermark (one line).
	h, err := m.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	pid := h.PID()
	copy(h.Write(0, 8), "lifetest")
	m.Unfix(h)
	m.evictFrame(h.f)
	step("1 tie denied, written to SSD", Stats{FullAllocs: 1, DRAMEvictions: 1, NVMDenials: 1,
		NVMLinesWrittenBy: byCause{causeSlotMeta: 1}, SSDPagesWrittenBy: byCause{causeDRAMEvict: 1}})

	// Reload from SSD and evict again: now it has come back once more
	// than the slot's page and moves into the NVM cache (256 lines and its
	// slot header), while the slot's dirty page goes to SSD (its header
	// cleared).
	h, err = m.Fix(MakeRef(pid), ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	m.Unfix(h)
	m.evictFrame(h.f)
	step("2 reloaded from SSD, admitted", Stats{Fixes: 1, SSDLoads: 1, FullAllocs: 1, DRAMEvictions: 1,
		NVMAdmissions: 1, NVMEvictions: 1, NVMLinesWrittenBy: byCause{causeNVMAdmit: LinesPerPage, causeSlotMeta: 2},
		SSDPagesWrittenBy: byCause{causeNVMEvict: 1}})

	// A cache-line-grained fix materializes it as a mini page; a small
	// read loads one line.
	h, err = m.Fix(MakeRef(pid), ModeCacheLine)
	if err != nil {
		t.Fatal(err)
	}
	if string(h.Read(0, 8)) != "lifetest" {
		t.Fatalf("page content lost: %q", h.Read(0, 8))
	}
	step("3 mini-page load, one-line read", Stats{Fixes: 1, MiniAllocs: 1, LinesLoaded: 1, LineLoadRequests: 1})

	// A full write promotes it, loading the other lines in one request,
	// and dirties every line.
	h.WriteAll()
	full := h.f.promoted
	if full == nil {
		t.Fatal("WriteAll did not promote the mini page")
	}
	m.Unfix(h)
	step("4 promotion", Stats{FullAllocs: 1, MiniPromotions: 1, LinesLoaded: LinesPerPage - 1, LineLoadRequests: 1})

	// Evict the dirty full page: every line goes back to its NVM slot
	// under the undo journal (the old lines, their 2-byte index, arm and
	// disarm), and the slot header turns dirty.
	m.evictFrame(full)
	step("5 NVM write-back", Stats{DRAMEvictions: 1, NVMLinesWrittenBy: byCause{causeDRAMEvict: LinesPerPage,
		CauseJournal: LinesPerPage + 2*LinesPerPage/LineSize + 2, causeSlotMeta: 1}})

	// Evict the NVM slot itself: the page goes to SSD, the header is
	// cleared.
	slot, ok := m.pickNVMVictim()
	if !ok {
		t.Fatal("no NVM victim")
	}
	m.evictNVMSlot(slot)
	step("6 NVM slot evicted to SSD", Stats{NVMEvictions: 1,
		NVMLinesWrittenBy: byCause{causeSlotMeta: 1}, SSDPagesWrittenBy: byCause{causeNVMEvict: 1}})

	// The journey must also have filled the matching histograms.
	snap := rec.Snapshot()
	for _, op := range []obs.Op{
		obs.OpSSDRead, obs.OpSSDWrite, obs.OpNVMLineLoad, obs.OpMiniPromote,
		obs.OpDRAMEvict, obs.OpNVMAdmit, obs.OpNVMEvict,
	} {
		if snap.Ops[op].Count() == 0 {
			t.Errorf("no %v samples recorded", op)
		}
	}
	if lat := m.SSD().Config().ReadLatency; snap.Ops[obs.OpSSDRead].Max < int64(lat) {
		t.Errorf("ssd.read max %d below device latency %d", snap.Ops[obs.OpSSDRead].Max, int64(lat))
	}
}

// statsDelta returns now − before, field by field.
func statsDelta(now, before Stats) Stats {
	d := now
	dv, bv := reflect.ValueOf(&d).Elem(), reflect.ValueOf(before)
	for i := 0; i < dv.NumField(); i++ {
		f, b := dv.Field(i), bv.Field(i)
		if f.Kind() == reflect.Array {
			for j := 0; j < f.Len(); j++ {
				f.Index(j).SetInt(f.Index(j).Int() - b.Index(j).Int())
			}
			continue
		}
		f.SetInt(f.Int() - b.Int())
	}
	return d
}

// TestResidencyGauges checks the instantaneous gauges against a known
// buffer state.
func TestResidencyGauges(t *testing.T) {
	m, err := New(Config{
		Topology:         ThreeTier,
		NVMBytes:         slotSize, // one slot, so that a denial can be staged
		SSDBytes:         1 << 20,
		CacheLineGrained: true,
		MiniPages:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := m.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	r := m.Residency()
	if r.DRAMFullPages != 1 || r.DRAMMiniPages != 0 {
		t.Fatalf("full/mini = %d/%d", r.DRAMFullPages, r.DRAMMiniPages)
	}
	if r.DRAMLinesResident != LinesPerPage || r.DRAMLinesDirty != LinesPerPage {
		t.Fatalf("lines resident/dirty = %d/%d", r.DRAMLinesResident, r.DRAMLinesDirty)
	}
	if r.DRAMDirtyPages != 1 || r.DRAMPinnedPages != 1 {
		t.Fatalf("dirty/pinned = %d/%d", r.DRAMDirtyPages, r.DRAMPinnedPages)
	}
	if r.NVMSlots != 1 || r.NVMPages != 0 {
		t.Fatalf("nvm slots/pages = %d/%d", r.NVMSlots, r.NVMPages)
	}

	newPage(t, m, 0) // another page takes the free slot, dirty
	r = m.Residency()
	if r.NVMPages != 1 || r.NVMDirtyPages != 1 || r.SSDPages != 0 {
		t.Fatalf("after the free slot was taken: %+v", r)
	}

	// Evict twice: deny to SSD (a tie with the slot's page), reload, admit
	// to NVM clean in place of the other page, which goes to SSD.
	pid := h.PID()
	m.Unfix(h)
	m.evictFrame(h.f)
	r = m.Residency()
	if r.DRAMFullPages != 0 || r.SSDPages != 1 || r.NVMPages != 1 {
		t.Fatalf("after deny: %+v", r)
	}
	h, err = m.Fix(MakeRef(pid), ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	m.Unfix(h)
	m.evictFrame(h.f)
	r = m.Residency()
	if r.NVMPages != 1 || r.NVMDirtyPages != 0 || r.SSDPages != 2 {
		t.Fatalf("after admit: %+v", r)
	}

	// Mini-page fix: one line resident.
	h, err = m.Fix(MakeRef(pid), ModeCacheLine)
	if err != nil {
		t.Fatal(err)
	}
	h.Read(0, 8)
	r = m.Residency()
	if r.DRAMMiniPages != 1 || r.DRAMLinesResident != 1 {
		t.Fatalf("mini: %+v", r)
	}
	m.Unfix(h)

	// Add must sum every field.
	var sum Residency
	sum.Add(r)
	sum.Add(r)
	if sum.DRAMMiniPages != 2*r.DRAMMiniPages || sum.NVMSlots != 2*r.NVMSlots || sum.SSDPages != 2*r.SSDPages {
		t.Fatalf("Add: %+v vs %+v", sum, r)
	}
}

// TestRecorderZeroOverheadPath ensures a manager without a recorder never
// records: the nil checks must keep every obs call off the path.
func TestRecorderDisabled(t *testing.T) {
	m, err := New(Config{
		Topology:         ThreeTier,
		NVMBytes:         64 * slotSize,
		SSDBytes:         1 << 20,
		CacheLineGrained: true,
		MiniPages:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := m.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	copy(h.Write(0, 8), "disabled")
	m.Unfix(h)
	m.evictFrame(h.f)
	// Nothing to assert beyond "did not panic": with rec == nil every
	// instrumentation site must be skipped.
	if m.rec != nil {
		t.Fatal("recorder unexpectedly installed")
	}
}
