package core

import (
	"testing"
)

func TestForceWritePersistsWithoutEviction(t *testing.T) {
	m := newTestManager(t, DRAMNVM, 4, withFeatures(true, false, false))
	h := mustAlloc(t, m)
	pid := h.PID()
	fillPattern(h, 21)
	m.ForceWrite(h)

	// The page is still in DRAM (no eviction happened) and clean.
	loc, ok := m.table[pid]
	if !ok || !loc.inDRAM() {
		t.Fatalf("page left DRAM: loc=%v ok=%v", loc, ok)
	}
	if h.f.anyDirty {
		t.Fatal("frame still dirty after ForceWrite")
	}
	// Content is durable: crash the DRAM state and reload.
	m.Unfix(h)
	if err := m.CrashRestart(); err != nil {
		t.Fatal(err)
	}
	h2 := mustFix(t, m, pid, ModeFull)
	checkPattern(t, h2, 21)
	m.Unfix(h2)
}

func TestForceWriteThreeTierStagesOnNVM(t *testing.T) {
	m := newTestManager(t, ThreeTier, 4, withFeatures(true, true, false))
	h := mustAlloc(t, m)
	pid := h.PID()
	fillPattern(h, 5)
	m.ForceWrite(h)
	// With free NVM slots, a forced non-backed page is staged on NVM.
	if h.f.nvmSlot < 0 {
		t.Fatal("forced page not staged on NVM despite free slots")
	}
	if m.SSD().Stats().PagesWritten != 0 {
		t.Fatal("forced page went to SSD although NVM had room")
	}
	// The staged copy is the durable home: after crash the content is
	// served from NVM.
	m.Unfix(h)
	if err := m.CrashRestart(); err != nil {
		t.Fatal(err)
	}
	ssdReads := m.SSD().Stats().PagesRead
	h2 := mustFix(t, m, pid, ModeFull)
	checkPattern(t, h2, 5)
	m.Unfix(h2)
	if m.SSD().Stats().PagesRead != ssdReads {
		t.Fatal("NVM-staged page was read from SSD")
	}
}

func TestForceWriteThreeTierFullNVMFallsBackToSSD(t *testing.T) {
	m := newTestManager(t, ThreeTier, 6, func(c *Config) {
		c.CacheLineGrained = true
		c.NVMBytes = 2 * slotSize // only two NVM slots
	})
	var hs []Handle
	for i := 0; i < 3; i++ {
		h := mustAlloc(t, m)
		fillPattern(h, byte(i))
		hs = append(hs, h)
	}
	for _, h := range hs {
		m.ForceWrite(h)
	}
	// Two pages staged on NVM, the third forced to SSD (no eviction for
	// forced writes).
	if m.SSD().Stats().PagesWritten != 1 {
		t.Fatalf("SSD writes = %d, want 1", m.SSD().Stats().PagesWritten)
	}
	if m.Stats().NVMEvictions != 0 {
		t.Fatal("forced write triggered an NVM eviction")
	}
	for _, h := range hs {
		m.Unfix(h)
	}
}

func TestForceWriteCleanIsNoop(t *testing.T) {
	m := newTestManager(t, DRAMNVM, 4)
	h := mustAlloc(t, m)
	fillPattern(h, 1)
	m.ForceWrite(h)
	flushes := m.NVM().Stats().FlushOps
	m.ForceWrite(h) // clean now: no device traffic
	if m.NVM().Stats().FlushOps != flushes {
		t.Fatal("ForceWrite of clean page touched the device")
	}
	m.Unfix(h)
}

func TestFlushAllCleansEveryFrame(t *testing.T) {
	m := newTestManager(t, DRAMNVM, 8, withFeatures(true, false, false))
	var pids []PageID
	for i := 0; i < 5; i++ {
		h := mustAlloc(t, m)
		pids = append(pids, h.PID())
		fillPattern(h, byte(40+i))
		m.Unfix(h)
	}
	m.FlushAll()
	for _, f := range m.frames {
		if f != nil && f.anyDirty {
			t.Fatalf("page %d still dirty after FlushAll", f.pid)
		}
	}
	if err := m.CrashRestart(); err != nil {
		t.Fatal(err)
	}
	for i, pid := range pids {
		h := mustFix(t, m, pid, ModeFull)
		checkPattern(t, h, byte(40+i))
		m.Unfix(h)
	}
}

func TestWriteBarrierRunsBeforePersistence(t *testing.T) {
	m := newTestManager(t, DRAMNVM, 4)
	calls := 0
	m.SetWriteBarrier(func() { calls++ })

	h := mustAlloc(t, m)
	fillPattern(h, 1)
	m.ForceWrite(h)
	if calls != 1 {
		t.Fatalf("barrier calls after ForceWrite = %d, want 1", calls)
	}
	m.Unfix(h)
	if err := m.CleanShutdown(); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("barrier ran for a clean eviction: %d calls", calls)
	}

	// A dirty eviction must run the barrier.
	h2 := mustFix(t, m, h.PID(), ModeFull)
	fillPattern(h2, 2)
	m.Unfix(h2)
	if err := m.CleanShutdown(); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("barrier calls after dirty eviction = %d, want 2", calls)
	}
}

func TestWriteBarrierDirectUnfix(t *testing.T) {
	m := newTestManager(t, DirectNVM, 0)
	calls := 0
	m.SetWriteBarrier(func() { calls++ })
	h := mustAlloc(t, m)
	copy(h.Write(0, 4), "data")
	m.Unfix(h) // flushes dirty lines in place
	if calls != 1 {
		t.Fatalf("barrier calls = %d, want 1", calls)
	}
	// A read-only fix/unfix does not run the barrier.
	h2 := mustFix(t, m, h.PID(), ModeCacheLine)
	h2.Read(0, 4)
	m.Unfix(h2)
	if calls != 1 {
		t.Fatalf("barrier ran on read-only unfix: %d calls", calls)
	}
}

func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	m := newTestManager(t, DRAMNVM, 8, withFeatures(true, false, true))
	parent := mustAlloc(t, m)
	child := mustAlloc(t, m)
	putRef(parent.Write(0, 8), 0, MakeRef(child.PID()))
	m.Unfix(child)
	c, err := m.FixChild(parent, 0, ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("healthy state flagged: %v", err)
	}
	// Corrupt the swizzled word behind the manager's back.
	putRef(parent.f.data, 0, MakeRef(999))
	if err := m.CheckInvariants(); err == nil {
		t.Fatal("corrupted swizzle word not detected")
	}
	putRef(parent.f.data, 0, swizzledRef(c.f.idx)) // repair
	m.Unfix(c)
	m.Unfix(parent)
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckInvariantsValidatesMiniFrames(t *testing.T) {
	m, pid := evictedPage(t, DRAMNVM, 9, withFeatures(true, true, false))
	h := mustFix(t, m, pid, ModeCacheLine)
	h.Read(3*LineSize, 2*LineSize)
	h.Write(9*LineSize, 8)
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("healthy mini page flagged: %v", err)
	}
	f := h.f
	good := *f
	for name, corrupt := range map[string]func(){
		"slots out of order":   func() { f.slots[0], f.slots[1] = f.slots[1], f.slots[0] },
		"dirty bit past count": func() { f.miniDirty |= 1 << f.count },
		"dirty without a bit":  func() { f.miniDirty = 0 },
		"count past the limit": func() { f.count = MiniLines + 1 },
	} {
		corrupt()
		if err := m.CheckInvariants(); err == nil {
			t.Errorf("%s: not detected", name)
		}
		*f = good
	}
	m.Unfix(h)
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
