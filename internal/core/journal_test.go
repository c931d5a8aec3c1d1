package core

import (
	"testing"

	"nvmstore/internal/fault"
)

// TestJournalUndoesInterruptedWriteBack pins the undo journal's crash
// contract: an in-place write-back torn mid-flush must not leave the
// NVM slot with lines from two page generations. The journal restores
// the pre-write-back image at restart, so the page reads back as the
// last completed version.
func TestJournalUndoesInterruptedWriteBack(t *testing.T) {
	m := newTestManager(t, ThreeTier, 4, withFeatures(true, false, false),
		func(c *Config) { c.StrictPersistence = true })
	h := mustAlloc(t, m)
	pid := h.PID()
	fillPattern(h, 1)
	m.ForceWrite(h) // stages version 1 on an NVM slot
	if h.f.nvmSlot < 0 {
		t.Fatal("page not staged on NVM")
	}

	// Dirty the whole page and tear the in-place write-back. The forced
	// write performs five flushes: journal index, journal data, journal
	// header (arm), the page lines, and the journal disarm — the fourth
	// is the one that must be interruptible.
	fillPattern(h, 2)
	plan := &fault.Plan{Seed: 42, Rules: []fault.Rule{
		{Kind: fault.NVMTornFlush, EveryN: 4, Limit: 1},
	}}
	m.NVM().SetFaults(plan.Injector(0))
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("write-back completed; the fault never fired")
			}
			if _, ok := fault.AsCrash(r); !ok {
				panic(r)
			}
		}()
		m.ForceWrite(h)
	}()

	if err := m.CrashRestart(); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().JournalUndos; got != 1 {
		t.Fatalf("JournalUndos = %d, want 1", got)
	}
	h2 := mustFix(t, m, pid, ModeFull)
	checkPattern(t, h2, 1) // version 2 gone wholesale, version 1 intact
	m.Unfix(h2)
}

// TestJournalDisarmedAfterCompleteWriteBack pins that a write-back that
// runs to completion leaves nothing to undo: the next restart must not
// roll the slot back.
func TestJournalDisarmedAfterCompleteWriteBack(t *testing.T) {
	m := newTestManager(t, ThreeTier, 4, withFeatures(true, false, false),
		func(c *Config) { c.StrictPersistence = true })
	h := mustAlloc(t, m)
	pid := h.PID()
	fillPattern(h, 1)
	m.ForceWrite(h)
	fillPattern(h, 2)
	m.ForceWrite(h)
	m.Unfix(h)
	if err := m.CrashRestart(); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().JournalUndos; got != 0 {
		t.Fatalf("JournalUndos = %d, want 0", got)
	}
	h2 := mustFix(t, m, pid, ModeFull)
	checkPattern(t, h2, 2)
	m.Unfix(h2)
}

// stagedPage allocates a page with fillPattern(1) on an NVM slot of its
// own (ThreeTier, cache-line-grained) and returns it still fixed.
func stagedPage(t *testing.T, mini bool) (*Manager, Handle) {
	t.Helper()
	m := newTestManager(t, ThreeTier, 4, withFeatures(true, mini, false),
		func(c *Config) { c.StrictPersistence = true })
	h := mustAlloc(t, m)
	fillPattern(h, 1)
	m.ForceWrite(h)
	if h.f.nvmSlot < 0 {
		t.Fatal("page not staged on NVM")
	}
	return m, h
}

// forceWriteCost is what one ForceWrite of h sends to NVM: flush requests,
// lines charged to split-force (the page data) and to the journal.
func forceWriteCost(m *Manager, h Handle) (flushes, data, journal int64) {
	ops0, st0 := m.NVM().Stats().FlushOps, m.Stats()
	m.ForceWrite(h)
	st := m.Stats()
	return m.NVM().Stats().FlushOps - ops0,
		st.NVMLinesWrittenBy[causeSplitForce] - st0.NVMLinesWrittenBy[causeSplitForce],
		st.NVMLinesWrittenBy[CauseJournal] - st0.NVMLinesWrittenBy[CauseJournal]
}

// TestJournalSkippedForOverwriteOnly pins the saving: a frame dirtied only
// through Overwrite is written back as its dirty runs and nothing else —
// one flush per run, no journal line — and the written lines are durable.
func TestJournalSkippedForOverwriteOnly(t *testing.T) {
	m, h := stagedPage(t, false)
	copy(h.Overwrite(100, 8), "overwrt1")    // line 1
	copy(h.Overwrite(8000, 200), "overwrt2") // lines 125..128
	if h.f.needsJournal {
		t.Fatal("Overwrite set the journal flag")
	}
	flushes, data, journal := forceWriteCost(m, h)
	if flushes != 2 || data != 5 || journal != 0 {
		t.Fatalf("write-back: %d flushes, %d data lines, %d journal lines; want 2, 5, 0", flushes, data, journal)
	}
	pid := h.PID()
	m.Unfix(h)
	if err := m.CrashRestart(); err != nil {
		t.Fatal(err)
	}
	h2 := mustFix(t, m, pid, ModeFull)
	if got := string(h2.Read(100, 8)) + string(h2.Read(8000, 8)); got != "overwrt1overwrt2" {
		t.Fatalf("after restart the slot holds %q", got)
	}
	m.Unfix(h2)
}

// TestJournalArmedByAnyWrite pins that one Write anywhere on the frame
// brings back the whole journaled sequence: index, saved lines and arm
// header, the dirty runs, the disarm — covering the Overwrite runs too.
func TestJournalArmedByAnyWrite(t *testing.T) {
	m, h := stagedPage(t, false)
	h.Overwrite(100, 8)
	h.Write(4000, 1) // line 62
	h.Overwrite(8000, 200)
	if !h.f.needsJournal {
		t.Fatal("Write left the journal flag clear")
	}
	flushes, data, journal := forceWriteCost(m, h)
	// 6 dirty lines: one index line, 6 saved lines, the header, the disarm.
	if flushes != 3+3+1 || data != 6 || journal != 1+6+1+1 {
		t.Fatalf("write-back: %d flushes, %d data lines, %d journal lines; want 7, 6, 9", flushes, data, journal)
	}
	if h.f.needsJournal {
		t.Fatal("write-back left the journal flag set")
	}
	// The flag went with the dirty state: the next overwrite-only
	// write-back is journal-free again.
	h.Overwrite(100, 8)
	if _, _, journal := forceWriteCost(m, h); journal != 0 {
		t.Fatalf("overwrite-only write-back after a journaled one wrote %d journal lines", journal)
	}
	m.Unfix(h)
}

// TestJournalFlagFollowsPromotion pins that a mini page hands the flag to
// the full page it is promoted into: set when a Write preceded the
// promotion, clear when only Overwrites did.
func TestJournalFlagFollowsPromotion(t *testing.T) {
	for _, write := range []bool{true, false} {
		m, h := stagedPage(t, true)
		pid := h.PID()
		m.Unfix(h)
		if err := m.CleanShutdown(); err != nil {
			t.Fatal(err)
		}
		h = mustFix(t, m, pid, ModeCacheLine)
		if h.f.kind != kindMini {
			t.Fatal("page not loaded as a mini page")
		}
		if write {
			h.Write(0, 8)
		} else {
			h.Overwrite(0, 8)
		}
		h.Overwrite(20*LineSize, 20*LineSize) // more lines than a mini page holds
		full := h.f.promoted
		if full == nil {
			t.Fatal("mini page not promoted")
		}
		if full.needsJournal != write {
			t.Fatalf("after Write=%v and a promoting Overwrite the full page's flag is %v", write, full.needsJournal)
		}
		if _, _, journal := forceWriteCost(m, h); (journal > 0) != write {
			t.Fatalf("Write=%v: write-back wrote %d journal lines", write, journal)
		}
		if full.needsJournal {
			t.Fatal("write-back left the journal flag set")
		}
		m.Unfix(h)
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}
