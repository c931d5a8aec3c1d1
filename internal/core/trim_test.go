package core

import (
	"fmt"
	"math/rand"
	"testing"

	"nvmstore/internal/fault"
)

// trimSetup returns a ThreeTier manager with one NVM slot, held by page q
// (fillPattern 7), and page p (fillPattern 1), whose one durable copy is
// on the SSD: it tied with q for the slot.
func trimSetup(t *testing.T) (m *Manager, p, q PageID) {
	t.Helper()
	m = newTestManager(t, ThreeTier, 4, withFeatures(true, false, false), func(c *Config) {
		c.NVMBytes = slotSize
		c.StrictPersistence = true
	})
	for _, seed := range []byte{7, 1} {
		h := mustAlloc(t, m)
		q, p = p, h.PID()
		fillPattern(h, seed)
		m.Unfix(h)
		if err := m.CleanShutdown(); err != nil {
			t.Fatal(err)
		}
	}
	if loc, ok := m.table[q]; !ok || loc.inDRAM() || !m.SSD().Written(int64(p-1)) {
		t.Fatalf("page %d not on NVM alone (%v, %v) or page %d not on the SSD", q, loc, ok, p)
	}
	return m, p, q
}

// evictFromDRAM evicts page pid's DRAM frame, which must be unpinned.
func evictFromDRAM(t *testing.T, m *Manager, pid PageID) {
	t.Helper()
	loc, ok := m.table[pid]
	if !ok || !loc.inDRAM() {
		t.Fatalf("page %d not in DRAM (%v, %v)", pid, loc, ok)
	}
	m.evictFrame(m.frames[loc.frame()])
}

// trimWindows are the two write-backs that make an NVM slot the only
// current copy of its page, each set up from trimSetup: a clean slot's
// first dirty write-back, and a dirty admission. Each returns the window
// to crash in; when the window completes, page p holds fillPattern 2.
var trimWindows = []struct {
	name  string
	setup func(t *testing.T, m *Manager, p PageID) (window func())
}{
	{"clean slot turns dirty", func(t *testing.T, m *Manager, p PageID) func() {
		// p comes back through DRAM, wins the slot from q and is admitted
		// clean: the SSD copy is current.
		m.Unfix(mustFix(t, m, p, ModeFull))
		evictFromDRAM(t, m, p)
		if e := m.nvmDir[0]; e.pid != p || e.dirtyWrtSSD {
			t.Fatalf("slot holds page %d (dirty %v), want page %d clean", e.pid, e.dirtyWrtSSD, p)
		}
		h := mustFix(t, m, p, ModeFull)
		fillPattern(h, 2)
		return func() { m.ForceWrite(h) }
	}},
	{"dirty admission", func(t *testing.T, m *Manager, p PageID) func() {
		// p comes back through DRAM and changes; its eviction wins the
		// slot from q, which goes to the SSD.
		h := mustFix(t, m, p, ModeFull)
		fillPattern(h, 2)
		m.Unfix(h)
		return func() { evictFromDRAM(t, m, p) }
	}},
}

// TestTrimFollowsTheSlotHeader crashes at every NVM flush of each window
// of trimWindows, plainly and torn, then restarts, evicts page p from NVM
// and reads it back from the SSD: it must be the image the slot header
// vouched for at the crash — fillPattern 1 wherever the crash cut the
// window, since the header is its last flush, and fillPattern 2 once the
// window has completed. The SSD copy is trimmed only behind the header's
// flush: trimmed before it, a crash there would leave a clean slot over a
// trimmed SSD page, and the page would read back as zeros.
func TestTrimFollowsTheSlotHeader(t *testing.T) {
	for _, w := range trimWindows {
		t.Run(w.name, func(t *testing.T) {
			m, p, _ := trimSetup(t)
			window := w.setup(t, m, p)
			inj := (&fault.Plan{}).Injector(0)
			m.NVM().SetFaults(inj)
			window()
			flushes := inj.Opportunities(fault.NVMCrash)
			if m.SSD().Written(int64(p-1)) || !m.nvmDir[0].dirtyWrtSSD {
				t.Fatalf("after the window: SSD still holds page %d, or its slot is clean", p)
			}
			for point := int64(1); point <= flushes+1; point++ {
				for _, kind := range []fault.Kind{fault.NVMCrash, fault.NVMTornFlush} {
					at := fmt.Sprintf("%v at flush %d of %d", kind, point, flushes)
					m, p, q := trimSetup(t)
					window := w.setup(t, m, p)
					plan := &fault.Plan{Seed: uint64(point), Rules: []fault.Rule{{Kind: kind, EveryN: point, Limit: 1}}}
					m.NVM().SetFaults(plan.Injector(0))
					crashed := func() (crashed bool) {
						defer func() {
							if r := recover(); r != nil {
								if _, ok := fault.AsCrash(r); !ok {
									panic(r)
								}
								crashed = true
							}
						}()
						window()
						return false
					}()
					if crashed != (point <= flushes) {
						t.Fatalf("%s: crashed %v", at, crashed)
					}
					m.NVM().SetFaults(nil)
					if err := m.CrashRestart(); err != nil {
						t.Fatalf("%s: restart: %v", at, err)
					}
					want := byte(1)
					if !crashed {
						want = 2
					}
					for _, pid := range []PageID{p, q} {
						if loc, ok := m.table[pid]; ok {
							m.evictNVMSlot(loc.nvmSlot())
						}
					}
					reads := m.SSD().Stats().PagesRead
					h := mustFix(t, m, p, ModeFull)
					if m.SSD().Stats().PagesRead != reads+1 {
						t.Fatalf("%s: page %d not read from the SSD", at, p)
					}
					if got := h.ReadAll()[0]; got != want {
						t.Fatalf("%s: page %d reads back as fillPattern %d, want %d", at, p, got, want)
					}
					checkPattern(t, h, want)
					m.Unfix(h)
					h = mustFix(t, m, q, ModeFull)
					checkPattern(t, h, 7)
					m.Unfix(h)
				}
			}
			t.Logf("%d flushes, each crashed and torn", flushes)
		})
	}
}

// TestResidencyCountsCurrentSSDCopies pins Residency.SSDPages as the pages
// whose current durable copy is on the SSD: after random writes through a
// small ThreeTier pool and a clean shutdown, every page has one current
// durable copy — its NVM slot when that is dirty with respect to the SSD,
// and the SSD otherwise, where it reads back as the page's last image.
func TestResidencyCountsCurrentSSDCopies(t *testing.T) {
	m := newTestManager(t, ThreeTier, 4, withFeatures(true, true, false), func(c *Config) {
		c.NVMBytes = 8 * slotSize
	})
	const pages = 40
	rng := rand.New(rand.NewSource(5))
	seeds := map[PageID]byte{}
	for i := 0; i < pages; i++ {
		h := mustAlloc(t, m)
		seeds[h.PID()] = byte(i)
		fillPattern(h, byte(i))
		m.Unfix(h)
	}
	for i := 0; i < 2000; i++ {
		pid := PageID(1 + rng.Intn(pages))
		h := mustFix(t, m, pid, ModeFull)
		if rng.Intn(3) == 0 {
			seeds[pid] = byte(rng.Intn(256))
			fillPattern(h, seeds[pid])
		}
		m.Unfix(h)
	}
	if err := m.CleanShutdown(); err != nil {
		t.Fatal(err)
	}
	onNVM := map[PageID]bool{}
	for _, e := range m.nvmDir {
		if e.pid != 0 && e.dirtyWrtSSD {
			onNVM[e.pid] = true
		}
	}
	buf := make([]byte, PageSize)
	onSSD := int64(0)
	for pid, seed := range seeds {
		if held := m.SSD().Written(int64(pid - 1)); held == onNVM[pid] {
			t.Fatalf("page %d: the SSD holds it %v, dirty on NVM %v", pid, held, onNVM[pid])
		}
		if onNVM[pid] {
			continue
		}
		onSSD++
		m.SSD().ReadPage(int64(pid-1), buf)
		for i := range buf {
			if buf[i] != seed^byte(i)^byte(i>>8) {
				t.Fatalf("page %d: the SSD copy is not its last image", pid)
			}
		}
	}
	r := m.Residency()
	if r.SSDPages != onSSD || r.NVMDirtyPages != int64(len(onNVM)) || r.SSDPages+r.NVMDirtyPages != pages {
		t.Fatalf("Residency SSDPages %d, NVMDirtyPages %d; want %d and %d, %d pages in all", r.SSDPages, r.NVMDirtyPages, onSSD, len(onNVM), pages)
	}
	if onSSD == 0 || len(onNVM) == 0 {
		t.Fatalf("%d pages on the SSD, %d dirty on NVM: the test covers one tier only", onSSD, len(onNVM))
	}
}
