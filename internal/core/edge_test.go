package core

import (
	"errors"
	"testing"
)

func TestAllPinnedNoEvictable(t *testing.T) {
	m := newTestManager(t, DRAMNVM, 4)
	var hs []Handle
	for i := 0; i < 4; i++ {
		hs = append(hs, mustAlloc(t, m))
	}
	if _, err := m.Allocate(); !errors.Is(err, ErrNoEvictable) {
		t.Fatalf("err = %v, want ErrNoEvictable", err)
	}
	// Unpinning one page unblocks allocation.
	m.Unfix(hs[0])
	h, err := m.Allocate()
	if err != nil {
		t.Fatalf("allocate after unpin: %v", err)
	}
	m.Unfix(h)
	for _, p := range hs[1:] {
		m.Unfix(p)
	}
}

func TestThreeTierAdmissionFallsBackWhenNVMPinned(t *testing.T) {
	// Two NVM slots, both backing pages that are cached (and pinned) in
	// DRAM: an eviction wanting admission must fall back to SSD rather
	// than deadlock or evict a backing slot.
	m := newTestManager(t, ThreeTier, 8, func(c *Config) {
		c.CacheLineGrained = true
		c.NVMBytes = 2 * slotSize
		c.AlwaysAdmit = true // no duel to lose: only the pins can keep the third page out
	})
	var pids []PageID
	for i := 0; i < 2; i++ {
		h := mustAlloc(t, m)
		pids = append(pids, h.PID())
		fillPattern(h, byte(i))
		m.Unfix(h)
	}
	if err := m.CleanShutdown(); err != nil { // both admitted to NVM
		t.Fatal(err)
	}
	// Pin both NVM-backed pages in DRAM.
	var pinned []Handle
	for _, pid := range pids {
		pinned = append(pinned, mustFix(t, m, pid, ModeFull))
	}
	// A third page evicted under always-admit cannot get a slot.
	h := mustAlloc(t, m)
	third := h.PID()
	fillPattern(h, 9)
	m.Unfix(h)
	ssdWrites := m.SSD().Stats().PagesWritten
	// Force its eviction by creating DRAM pressure.
	for i := 0; i < 8; i++ {
		x, err := m.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		m.Unfix(x)
	}
	if m.SSD().Stats().PagesWritten == ssdWrites {
		t.Fatal("third page never reached SSD under full NVM")
	}
	for _, h := range pinned {
		m.Unfix(h)
	}
	// Its content must still be correct.
	h3 := mustFix(t, m, third, ModeFull)
	checkPattern(t, h3, 9)
	m.Unfix(h3)
}

func TestRestartScanSkipsFreedSlots(t *testing.T) {
	m := newTestManager(t, ThreeTier, 4, withFeatures(true, false, false))
	keep := mustAlloc(t, m)
	keepPID := keep.PID()
	fillPattern(keep, 1)
	m.Unfix(keep)
	gone := mustAlloc(t, m)
	gonePID := gone.PID()
	fillPattern(gone, 2)
	m.Unfix(gone)
	if err := m.CleanShutdown(); err != nil {
		t.Fatal(err)
	}
	// Evicting the page from NVM to SSD clears its slot header; nothing
	// takes the slot before the restart.
	loc, ok := m.table[gonePID]
	if !ok || loc.inDRAM() {
		t.Fatalf("page not on NVM: %v %v", loc, ok)
	}
	goneSlot := loc.nvmSlot()
	m.evictNVMSlot(goneSlot)
	if err := m.CleanRestart(); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.table[gonePID]; ok {
		t.Fatal("evicted page reappeared in the rebuilt table")
	}
	if loc, ok := m.table[keepPID]; !ok || loc.inDRAM() {
		t.Fatalf("kept page lost from NVM: %v %v", loc, ok)
	}
	if slot, ok := m.freeNVMSlot(); !ok || slot != goneSlot {
		t.Fatalf("first free slot after restart = %d (%v), want the emptied slot %d", slot, ok, goneSlot)
	}
	for pid, seed := range map[PageID]byte{keepPID: 1, gonePID: 2} {
		h := mustFix(t, m, pid, ModeFull)
		checkPattern(t, h, seed)
		m.Unfix(h)
	}
}

func TestMiniPromotionTransfersSwizzle(t *testing.T) {
	m := newTestManager(t, DRAMNVM, 8, withFeatures(true, true, true))
	parent := mustAlloc(t, m)
	child := mustAlloc(t, m)
	childPID := child.PID()
	fillPattern(child, 3)
	putRef(parent.Write(128, 8), 0, MakeRef(childPID))
	m.Unfix(child)
	m.Unfix(parent)
	if err := m.CleanShutdown(); err != nil {
		t.Fatal(err)
	}

	p2 := mustFix(t, m, parent.PID(), ModeFull)
	c2, err := m.FixChild(p2, 128, ModeCacheLine) // mini page, swizzled
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats().MiniAllocs == 0 {
		t.Fatal("child not loaded as a mini page")
	}
	// Overflow the mini page: promotion must move the swizzle to the
	// full frame so the parent's reference stays valid.
	for line := 0; line < 20; line++ {
		c2.Read(line*LineSize, 1)
	}
	if m.Stats().MiniPromotions != 1 {
		t.Fatalf("promotions = %d", m.Stats().MiniPromotions)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("after promotion: %v", err)
	}
	m.Unfix(c2)
	// Re-fixing through the parent must hit the swizzled full frame.
	m.ResetStats()
	c3, err := m.FixChild(p2, 128, ModeCacheLine)
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats().SwizzleHits != 1 {
		t.Fatalf("SwizzleHits = %d, want 1", m.Stats().SwizzleHits)
	}
	checkPattern(t, c3, 3)
	m.Unfix(c3)
	m.Unfix(p2)
}

func TestUserMetaEmpty(t *testing.T) {
	m := newTestManager(t, DRAMNVM, 4)
	if got := m.UserMeta(); len(got) != 0 {
		t.Fatalf("fresh UserMeta = %q", got)
	}
	if err := m.SetUserMeta(nil); err != nil {
		t.Fatal(err)
	}
	if got := m.UserMeta(); len(got) != 0 {
		t.Fatalf("UserMeta after SetUserMeta(nil) = %q", got)
	}
}

func TestStatsAccessors(t *testing.T) {
	m := newTestManager(t, ThreeTier, 4)
	if m.nvmSlots != 64 {
		t.Fatalf("nvmSlots = %d", m.nvmSlots)
	}
	if m.dramUsed != 0 {
		t.Fatalf("dramUsed = %d on fresh manager", m.dramUsed)
	}
	h := mustAlloc(t, m)
	if m.dramUsed == 0 {
		t.Fatal("dramUsed did not grow")
	}
	m.Unfix(h)
	m.ResetStats()
	if m.Stats() != (Stats{}) {
		t.Fatal("ResetStats left counters")
	}
}
