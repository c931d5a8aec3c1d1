package core

import (
	"fmt"
	"testing"

	"nvmstore/internal/obs"
)

// TestPageLifecycleEvents drives one page through the full three-tier
// lifecycle by calling the eviction paths directly (no clock-hand
// scheduling involved) and asserts the exact event sequence the tracer
// must emit: allocation, SSD round trip through a lost admission duel, NVM
// admission, mini-page load, promotion, NVM write-back, and the final
// eviction of its NVM slot to SSD.
func TestPageLifecycleEvents(t *testing.T) {
	rec := obs.NewCollector(1024)
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
	newPage(t, m, 0) // another page takes the one free slot

	// Allocate and dirty a page, then evict it. It has been in DRAM as
	// often as the slot's page — a tie — so it is denied NVM and written
	// to SSD.
	h, err := m.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	pid := h.PID()
	copy(h.Write(0, 8), "lifetest")
	m.Unfix(h)
	m.evictFrame(h.f)

	// Reload from SSD and evict again: now it has come back once more
	// than the slot's page and moves into the NVM cache.
	h, err = m.Fix(MakeRef(pid), ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	m.Unfix(h)
	m.evictFrame(h.f)

	// Cache-line-grained fix materializes it as a mini page; a small read
	// loads one line; a full write promotes it and dirties every line.
	h, err = m.Fix(MakeRef(pid), ModeCacheLine)
	if err != nil {
		t.Fatal(err)
	}
	if string(h.Read(0, 8)) != "lifetest" {
		t.Fatalf("page content lost: %q", h.Read(0, 8))
	}
	h.WriteAll()
	full := h.f.promoted
	if full == nil {
		t.Fatal("WriteAll did not promote the mini page")
	}
	m.Unfix(h)

	// Evict the dirty full page (write-back to its NVM slot), then evict
	// the NVM slot itself (write-back to SSD).
	m.evictFrame(full)
	slot, ok := m.pickNVMVictim()
	if !ok {
		t.Fatal("no NVM victim")
	}
	m.evictNVMSlot(slot)

	type step struct {
		kind   obs.EventKind
		tier   obs.Tier
		detail uint32
	}
	want := []step{
		{obs.EvAlloc, obs.TierDRAM, 0},
		{obs.EvWriteback, obs.TierSSD, 0}, // dirty + denied: to SSD
		{obs.EvDeny, obs.TierNVM, 0},
		{obs.EvEvict, obs.TierDRAM, 0},
		{obs.EvLoad, obs.TierSSD, 0},
		{obs.EvAdmit, obs.TierNVM, 0}, // second eviction wins the duel
		{obs.EvEvict, obs.TierDRAM, 0},
		{obs.EvLoad, obs.TierNVM, 1},     // detail 1 = mini page
		{obs.EvLineLoad, obs.TierNVM, 1}, // the 8-byte read
		{obs.EvPromote, obs.TierDRAM, 1}, // 1 line resident at promotion
		{obs.EvLineLoad, obs.TierNVM, LinesPerPage - 1},
		{obs.EvWriteback, obs.TierNVM, 0},
		{obs.EvEvict, obs.TierDRAM, 0},
		{obs.EvWriteback, obs.TierSSD, 0},
		{obs.EvEvict, obs.TierNVM, 0},
	}
	got := rec.Trace().EventsFor(uint64(pid))
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d:\n%s", len(got), len(want), dumpEvents(got))
	}
	var lastNs int64
	for i, e := range got {
		w := want[i]
		if e.Kind != w.kind || e.Tier != w.tier || e.Detail != w.detail {
			t.Fatalf("event %d = %s/%s/%d, want %s/%s/%d\n%s",
				i, e.Kind, e.Tier, e.Detail, w.kind, w.tier, w.detail, dumpEvents(got))
		}
		if e.SimNs < lastNs {
			t.Fatalf("event %d time %d before predecessor %d", i, e.SimNs, lastNs)
		}
		lastNs = e.SimNs
	}

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
	if snap.Ops[obs.OpSSDRead].Max < int64(m.cfg.SSDReadLatency) {
		t.Errorf("ssd.read max %d below device latency %d",
			snap.Ops[obs.OpSSDRead].Max, int64(m.cfg.SSDReadLatency))
	}
}

func dumpEvents(ev []obs.Event) string {
	s := ""
	for i, e := range ev {
		s += fmt.Sprintf("  %2d: %s/%s detail=%d\n", i, e.Kind, e.Tier, e.Detail)
	}
	return s
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
