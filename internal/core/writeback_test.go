package core

import (
	"bytes"
	"math/rand"
	"testing"
)

// writeTraffic is everything the write-back path decides: how many
// requests and lines reach NVM, how many pages reach SSD, which pages
// move between the tiers, the hottest line's wear and the simulated time
// all of it cost.
type writeTraffic struct {
	FlushOps, LinesFlushed int64
	SSDPagesWritten        int64
	DRAMEvictions          int64
	NVMAdmissions          int64
	NVMDenials             int64
	NVMEvictions           int64
	MaxWear                uint32
	ClockNs                int64
}

// runWriteBackStream drives one seeded op stream through every way a page
// leaves DRAM: 48 pages allocated into 8 frames (past DRAM and, on
// ThreeTier's 16 slots, past NVM), Zipf-skewed reads and updates of mixed
// sizes, bounded FlushSome rounds, split-style ForceWrite pairs and two
// CleanRestarts. The write barrier stands in for the WAL:
// it persists one line into the log region, and walLines counts them. The
// page contents are checked against a shadow copy at the end.
func runWriteBackStream(t *testing.T, topo Topology, opts ...func(*Config)) (m *Manager, walLines int64) {
	t.Helper()
	const pages, ops = 48, 3000
	m = newTestManager(t, topo, 8, append([]func(*Config){func(c *Config) {
		if topo == ThreeTier {
			c.NVMBytes = 16 * slotSize
		}
	}}, opts...)...)
	walOff, _ := m.WALRegion()
	var walBuf [LineSize]byte
	m.SetWriteBarrier(func() {
		walLines++
		walBuf[0]++
		m.NVM().Persist(walBuf[:], walOff+(walLines%64)*LineSize)
	})

	rng := rand.New(rand.NewSource(21))
	shadow := map[PageID][]byte{}
	var live []PageID
	for i := 0; i < pages; i++ {
		h := mustAlloc(t, m)
		fillPattern(h, byte(i))
		shadow[h.PID()] = append([]byte(nil), h.ReadAll()...)
		live = append(live, h.PID())
		m.Unfix(h)
	}

	zipf := rand.NewZipf(rng, 1.2, 1, pages-1)
	cursor := 0
	burst := func(n int) {
		for i := 0; i < n; i++ {
			pid := live[int(zipf.Uint64())%len(live)]
			mode := ModeCacheLine
			if rng.Intn(8) == 0 {
				mode = ModeFull
			}
			size := 1 + rng.Intn(200)
			if rng.Intn(16) == 0 {
				size = 2000 // more lines than a mini page holds
			}
			off := rng.Intn(PageSize - size)
			h := mustFix(t, m, pid, mode)
			if rng.Intn(2) == 0 {
				if got := h.Read(off, size); !bytes.Equal(got, shadow[pid][off:off+size]) {
					t.Fatalf("op %d: page %d [%d,%d) differs from shadow", i, pid, off, off+size)
				}
			} else {
				w := h.Write(off, size)
				rng.Read(w)
				copy(shadow[pid][off:], w)
			}
			m.Unfix(h)

			switch {
			case i%250 == 249:
				cursor, _ = m.FlushSome(cursor, 4)
			case i%400 == 399:
				// A split: half of one page moves to a new one and both
				// are forced out before the operation continues.
				src := mustFix(t, m, pid, ModeFull)
				dst, err := m.Allocate()
				if err != nil {
					t.Fatalf("Allocate: %v", err)
				}
				s, d := src.WriteAll(), dst.WriteAll()
				copy(d, s[PageSize/2:])
				zeroBytes(s[PageSize/2:])
				shadow[pid] = append(shadow[pid][:0], s...)
				shadow[dst.PID()] = append([]byte(nil), d...)
				m.ForceWrite(dst)
				m.ForceWrite(src)
				m.Unfix(src)
				live = append(live, dst.PID())
				m.Unfix(dst)
			}
		}
	}
	burst(ops)
	if err := m.CleanRestart(); err != nil {
		t.Fatal(err)
	}
	burst(ops / 4)
	if err := m.CleanRestart(); err != nil {
		t.Fatal(err)
	}
	for _, pid := range live {
		h := mustFix(t, m, pid, ModeFull)
		if !bytes.Equal(h.ReadAll(), shadow[pid]) {
			t.Fatalf("page %d differs from shadow after restart", pid)
		}
		m.Unfix(h)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return m, walLines
}

func trafficOf(m *Manager) writeTraffic {
	ns, cs := m.NVM().Stats(), m.Stats()
	tr := writeTraffic{
		FlushOps:      ns.FlushOps,
		LinesFlushed:  ns.LinesFlushed,
		DRAMEvictions: cs.DRAMEvictions,
		NVMAdmissions: cs.NVMAdmissions,
		NVMDenials:    cs.NVMDenials,
		NVMEvictions:  cs.NVMEvictions,
		ClockNs:       m.Clock().Ns(),
	}
	if m.SSD() != nil {
		tr.SSDPagesWritten = m.SSD().Stats().PagesWritten
	}
	for _, w := range m.NVM().WearCounts() {
		if w > tr.MaxWear {
			tr.MaxWear = w
		}
	}
	return tr
}

var writeBackStreams = []struct {
	name string
	topo Topology
	opts func(*Config)
	// want was recorded at the commit before writeBack existed (ThreeTier:
	// see its row) and re-recorded on unchanged code when the stream
	// stopped freeing a page, the step the manager no longer has.
	want writeTraffic
	// The causes the topology's write-back path can reach, by device.
	lines, pages []WriteCause
}{
	{
		"DRAMSSD", DRAMSSD, func(*Config) {},
		writeTraffic{FlushOps: 1211, LinesFlushed: 1211, SSDPagesWritten: 1153, DRAMEvictions: 1806, MaxWear: 58, ClockNs: 407107500},
		[]WriteCause{causeSlotMeta},
		[]WriteCause{causeDRAMEvict, causeCkpt, causeSplitForce},
	},
	{
		"DRAMNVM page-grained", DRAMNVM, func(*Config) {},
		writeTraffic{FlushOps: 7031, LinesFlushed: 603132, DRAMEvictions: 1806, MaxWear: 2306, ClockNs: 183320380},
		[]WriteCause{causeDRAMEvict, causeCkpt, causeSplitForce, CauseJournal, causeSlotMeta},
		nil,
	},
	{
		"DRAMNVM cache-line", DRAMNVM, func(c *Config) { c.CacheLineGrained, c.DebugChecks = true, true },
		writeTraffic{FlushOps: 7671, LinesFlushed: 52541, DRAMEvictions: 1806, MaxWear: 2306, ClockNs: 31733730},
		[]WriteCause{causeDRAMEvict, causeCkpt, causeSplitForce, CauseJournal, causeSlotMeta},
		nil,
	},
	{
		// Also re-recorded when the admission set (LinesFlushed 79077, SSD
		// pages 527, 248 admissions, 232 NVM evictions, 192.4 ms) became
		// the admission duel: a policy change, not a moved device call.
		"ThreeTier cache-line+mini", ThreeTier, withFeatures(true, true, false),
		writeTraffic{FlushOps: 4686, LinesFlushed: 30508, SSDPagesWritten: 402, DRAMEvictions: 1494, NVMAdmissions: 55, NVMDenials: 632, NVMEvictions: 39, MaxWear: 1138, ClockNs: 152971530},
		[]WriteCause{causeDRAMEvict, causeCkpt, causeSplitForce, causeNVMAdmit, CauseJournal, causeSlotMeta},
		[]WriteCause{causeDRAMEvict, causeCkpt, causeSplitForce, causeNVMEvict},
	},
	{
		"DirectNVM", DirectNVM, func(*Config) {},
		writeTraffic{FlushOps: 3877, LinesFlushed: 25818, MaxWear: 58, ClockNs: 4612340},
		[]WriteCause{causeInPlace, causeSlotMeta},
		nil,
	},
}

// TestWriteBackTrafficPinned pins that folding the write-back sites into
// one function moved no device call: the same op stream produces the same
// NVM requests and lines, SSD pages, tier transitions, peak wear and
// simulated time as it did when ForceWrite, evictFrame and Unfix each
// carried their own copy of the decision.
func TestWriteBackTrafficPinned(t *testing.T) {
	for _, s := range writeBackStreams {
		t.Run(s.name, func(t *testing.T) {
			m, _ := runWriteBackStream(t, s.topo, s.opts)
			if got := trafficOf(m); got != s.want {
				t.Errorf("traffic changed:\n got %+v\nwant %+v", got, s.want)
			}
		})
	}
}

// TestWriteCauses pins the attribution: every line the manager flushes and
// every page it writes is charged to exactly one cause, so the causes plus
// the log's lines (the barrier's, here) are the device totals, and each
// topology charges the causes its write-back path can reach and no other.
func TestWriteCauses(t *testing.T) {
	for _, s := range writeBackStreams {
		t.Run(s.name, func(t *testing.T) {
			m, walLines := runWriteBackStream(t, s.topo, s.opts)
			st := m.Stats()
			check := func(what string, by [numWriteCauses]int64, other, device int64, want []WriteCause) {
				t.Helper()
				sum := other
				for c, n := range by {
					sum += n
					charged := false
					for _, w := range want {
						charged = charged || w == WriteCause(c)
					}
					if charged != (n > 0) {
						t.Errorf("%s charged to %v = %d, want charged: %v", what, WriteCause(c), n, charged)
					}
				}
				if sum != device {
					t.Errorf("%s: causes %v + %d other = %d, device counted %d", what, by, other, sum, device)
				}
			}
			check("NVM lines", st.NVMLinesWrittenBy, walLines, m.NVM().Stats().LinesFlushed, s.lines)
			var pages int64
			if m.SSD() != nil {
				pages = m.SSD().Stats().PagesWritten
			}
			check("SSD pages", st.SSDPagesWrittenBy, 0, pages, s.pages)
		})
	}
}
