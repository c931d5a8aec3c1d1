package core

import (
	"math/rand"
	"testing"
)

// duelManager builds a ThreeTier manager with the given number of NVM slots
// and DRAM frames, for tests of the admission decision (nvmSlotFor).
func duelManager(t *testing.T, slots, frames int, opts ...func(*Config)) *Manager {
	t.Helper()
	return newTestManager(t, ThreeTier, frames, append([]func(*Config){
		withFeatures(true, true, false),
		func(c *Config) { c.NVMBytes = int64(slots) * slotSize },
	}, opts...)...)
}

// newPage allocates a page and evicts it: one load, one admission decision.
func newPage(t *testing.T, m *Manager, seed byte) PageID {
	t.Helper()
	h := mustAlloc(t, m)
	fillPattern(h, seed)
	m.Unfix(h)
	m.evictFrame(h.f)
	return h.PID()
}

// touch cycles the page through DRAM once: one load, and on the way out one
// admission decision if it has no NVM slot.
func touch(t *testing.T, m *Manager, pid PageID) {
	t.Helper()
	h := mustFix(t, m, pid, ModeFull)
	m.Unfix(h)
	m.evictFrame(h.f)
}

func onNVM(m *Manager, pid PageID) bool {
	loc, ok := m.table[pid]
	return ok && !loc.inDRAM()
}

// TestLoadCounts checks the per-page load counters against a model: one
// count per load, saturation at 255, every count halved once per
// nvmAgeEvery × nvmSlots loads, and a freed page id starting over.
func TestLoadCounts(t *testing.T) {
	m := duelManager(t, 64, 4)
	period := int(nvmAgeEvery * m.nvmSlots)
	if period > 1<<20 {
		t.Fatalf("counts are halved every %d loads: that is not aging", period)
	}
	rng := rand.New(rand.NewSource(1))
	model := make([]uint8, 9)
	saturated, halvings := false, 0
	for n := 1; n <= 5*period; n++ {
		pid := PageID(1) // most loads hit one page, so it saturates within a period
		if rng.Intn(10) >= 7 {
			pid = PageID(2 + rng.Intn(7))
		}
		m.noteLoad(pid)
		if model[pid] < 255 {
			model[pid]++
		}
		saturated = saturated || model[pid] == 255
		if n%period == 0 {
			halvings++
			for i := range model {
				model[i] /= 2
			}
		}
		for p, want := range model {
			var got uint8 // the array grows with the highest page id seen
			if p < len(m.loads) {
				got = m.loads[p]
			}
			if got != want {
				t.Fatalf("after %d loads: count of page %d = %d, model says %d", n, p, got, want)
			}
		}
	}
	if !saturated || halvings != 5 {
		t.Fatalf("stream never exercised the limits: saturated=%v halvings=%d", saturated, halvings)
	}
}

// TestAdmissionDuel pins the decision itself for every pairing of counts: a
// free slot admits whatever the counts are, a full NVM admits exactly when
// the candidate's count exceeds the clock victim's — never on a tie — and a
// lost duel leaves the victim where it was.
func TestAdmissionDuel(t *testing.T) {
	counts := []uint8{0, 1, 2, 3, 127, 254, 255}
	for _, cand := range counts {
		for _, vict := range counts {
			// The page ids are taken while the pages are fixed: an evicted
			// frame's struct is reused by the next page to enter DRAM.
			m := duelManager(t, 1, 4)
			v := mustAlloc(t, m)
			vpid := v.PID()
			m.Unfix(v)
			m.loads[vpid] = vict
			m.evictFrame(v.f)
			if !onNVM(m, vpid) {
				t.Fatalf("count %d: a free slot did not admit", vict)
			}
			c := mustAlloc(t, m)
			cpid := c.PID()
			m.Unfix(c)
			m.loads[cpid], m.loads[vpid] = cand, vict
			m.evictFrame(c.f)
			won := cand > vict
			if onNVM(m, cpid) != won || onNVM(m, vpid) == won {
				t.Fatalf("candidate %d against victim %d: candidate on NVM %v, victim on NVM %v, want %v and %v",
					cand, vict, onNVM(m, cpid), onNVM(m, vpid), won, !won)
			}
			want := [3]int64{1, 1, 0} // admissions (the free slot's), denials, NVM evictions
			if won {
				want = [3]int64{2, 0, 1}
			}
			if st := m.Stats(); [3]int64{st.NVMAdmissions, st.NVMDenials, st.NVMEvictions} != want {
				t.Fatalf("candidate %d against victim %d: %d admissions, %d denials, %d NVM evictions, want %v",
					cand, vict, st.NVMAdmissions, st.NVMDenials, st.NVMEvictions, want)
			}
		}
	}
}

// TestAlwaysAdmit: with the duel configured off a once-loaded page takes
// the slot of a page that could not be hotter.
func TestAlwaysAdmit(t *testing.T) {
	m := duelManager(t, 1, 4, func(c *Config) { c.AlwaysAdmit = true })
	v := newPage(t, m, 1)
	m.loads[v] = 255
	c := newPage(t, m, 2)
	if !onNVM(m, c) || onNVM(m, v) || m.Stats().NVMEvictions != 1 {
		t.Fatalf("always-admit kept the victim: candidate on NVM %v, victim on NVM %v", onNVM(m, c), onNVM(m, v))
	}
	h := mustFix(t, m, v, ModeFull)
	checkPattern(t, h, 1)
	m.Unfix(h)
}

// sweep reads every page once under DRAM pressure, the DRAM clock choosing
// what leaves, and empties DRAM at the end so that every page of the sweep
// has faced its admission decision.
func sweep(t *testing.T, m *Manager, pids []PageID) {
	t.Helper()
	for _, pid := range pids {
		m.Unfix(mustFix(t, m, pid, ModeFull))
	}
	if err := m.CleanShutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestScanResistance: one pass over four times as many cold pages as NVM
// has slots evicts no page that was loaded twice. The same pass under
// always-admit replaces them, so the test fails if the duel goes.
func TestScanResistance(t *testing.T) {
	for _, always := range []bool{false, true} {
		const slots = 8
		m := duelManager(t, slots, 4, func(c *Config) { c.AlwaysAdmit = always })
		var hot, cold []PageID
		for i := 0; i < slots; i++ {
			hot = append(hot, newPage(t, m, byte(i))) // takes a free slot
		}
		for _, pid := range hot {
			touch(t, m, pid) // loaded twice
		}
		for i := 0; i < 4*slots; i++ {
			cold = append(cold, newPage(t, m, byte(100+i)))
		}
		before := m.Stats().NVMEvictions
		sweep(t, m, cold)
		evicted := m.Stats().NVMEvictions - before
		if always {
			if evicted == 0 {
				t.Fatal("control: the sweep evicted nothing even under always-admit; the test proves nothing")
			}
			continue
		}
		if evicted != 0 {
			t.Fatalf("a one-pass sweep evicted %d NVM slots", evicted)
		}
		for i, pid := range hot {
			if !onNVM(m, pid) {
				t.Fatalf("hot page %d left NVM", pid)
			}
			h := mustFix(t, m, pid, ModeFull)
			checkPattern(t, h, byte(i))
			m.Unfix(h)
		}
	}
}

// TestHotSetShift: the counts age, so a new hot set takes NVM over from an
// old one whose counts had saturated. The bound is in loads per NVM slot and
// does not mention the aging period: raise the period to "never" and the old
// set keeps its 255s, which no newcomer can beat.
func TestHotSetShift(t *testing.T) {
	const slots = 16
	m := duelManager(t, slots, 4)
	var oldHot, newHot []PageID
	for i := 0; i < slots; i++ {
		oldHot = append(oldHot, newPage(t, m, byte(i)))
	}
	for i := 0; i < slots; i++ {
		newHot = append(newHot, newPage(t, m, byte(100+i))) // NVM is full of oldHot: denied
	}
	for round := 0; round < 300; round++ { // enough to saturate a counter that never ages
		for _, pid := range oldHot {
			touch(t, m, pid)
		}
	}
	for _, pid := range oldHot {
		if !onNVM(m, pid) {
			t.Fatalf("old hot page %d is not on NVM after warm-up", pid)
		}
	}
	resident := func() (n int) {
		for _, pid := range newHot {
			if onNVM(m, pid) {
				n++
			}
		}
		return n
	}
	const bound = 256 * slots
	loads := 0
	for resident()*10 < len(newHot)*9 {
		if loads >= bound {
			t.Fatalf("after %d loads of the new hot set only %d of its %d pages are on NVM", loads, resident(), len(newHot))
		}
		for _, pid := range newHot {
			touch(t, m, pid)
			loads++
		}
	}
	t.Logf("new hot set took NVM over after %d loads (%d per slot)", loads, loads/slots)
	for i, pid := range newHot {
		h := mustFix(t, m, pid, ModeFull)
		checkPattern(t, h, byte(100+i))
		m.Unfix(h)
	}
}

// TestRestartSeedsLoadCounts: the counts are volatile but the NVM cache is
// not. Pages the restart scan finds on NVM start from one load, so a single
// pass over cold pages right after a restart evicts none of them — counted
// as zero, each would lose its slot to the first page that came by.
func TestRestartSeedsLoadCounts(t *testing.T) {
	restarts := map[string]func(*Manager) error{
		"crash": (*Manager).CrashRestart,
		"clean": (*Manager).CleanRestart,
	}
	for name, restart := range restarts {
		t.Run(name, func(t *testing.T) {
			const slots = 8
			m := duelManager(t, slots, 4)
			var resident, cold []PageID
			for i := 0; i < slots; i++ {
				resident = append(resident, newPage(t, m, byte(i)))
			}
			for i := 0; i < 2*slots; i++ {
				cold = append(cold, newPage(t, m, byte(100+i)))
			}
			if err := restart(m); err != nil {
				t.Fatal(err)
			}
			m.ResetStats()
			sweep(t, m, cold)
			if st := m.Stats(); st.NVMEvictions != 0 || st.NVMAdmissions != 0 {
				t.Fatalf("a pass over cold pages after the restart evicted %d NVM slots and admitted %d pages", st.NVMEvictions, st.NVMAdmissions)
			}
			for i, pid := range resident {
				if !onNVM(m, pid) {
					t.Fatalf("page %d lost its NVM slot", pid)
				}
				h := mustFix(t, m, pid, ModeFull)
				checkPattern(t, h, byte(i))
				m.Unfix(h)
			}
		})
	}
}
