package engine

import (
	"bytes"
	"encoding/binary"
	"testing"

	"nvmstore/internal/btree"
	"nvmstore/internal/core"
	"nvmstore/internal/fault"
)

// TestTornOverwriteWriteBackSkipsJournal tears, one flush at a time, the
// write-back of a leaf whose dirty lines hold only logged field updates —
// committed ones and one of a transaction still running — and restarts.
// The write-back runs without the undo journal, so nothing is undone at
// restart and no journal line is written at all; WAL redo alone must
// rebuild every committed field, and the undo record the write barrier
// logged for the running update must roll it back, from a slot whose
// lines are each of the old or the new image.
func TestTornOverwriteWriteBackSkipsJournal(t *testing.T) {
	for _, topo := range []core.Topology{core.ThreeTier, core.DRAMNVM} {
		t.Run(topo.String(), func(t *testing.T) { tornWriteBackSweep(t, topo, false) })
	}
}

// TestTornInsertWriteBackUndoneByJournal is the twin: the same leaf also
// takes a committed insert that shifts its rows, which redo cannot repair
// in a torn slot. That write-back keeps the journal, and every tear after
// the journal is armed is undone at restart.
func TestTornInsertWriteBackUndoneByJournal(t *testing.T) {
	for _, topo := range []core.Topology{core.ThreeTier, core.DRAMNVM} {
		t.Run(topo.String(), func(t *testing.T) { tornWriteBackSweep(t, topo, true) })
	}
}

const tornRowSize = 200

// tornLeaf is one run of the scenario, up to the leaf's write-back.
type tornLeaf struct {
	e        *Engine
	pid      core.PageID
	model    map[uint64][]byte // committed rows
	journal0 int64             // journal lines written before the updates
}

// setupTornLeaf loads and checkpoints a small tree, so its leaves own NVM
// slots, then commits field updates to rows of one leaf — with shift, also
// an insert at the front of that leaf — and leaves one more update
// uncommitted. The log is flushed, so what reaches NVM next is the
// leaf's write-back, behind its barrier: the running update's undo record.
func setupTornLeaf(t *testing.T, topo core.Topology, shift bool) *tornLeaf {
	t.Helper()
	e, err := Open(testConfig(topo))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := e.CreateTree(1, tornRowSize, btree.LayoutSorted)
	if err != nil {
		t.Fatal(err)
	}
	s := &tornLeaf{e: e, model: map[uint64][]byte{}}
	e.Begin()
	for k := uint64(0); k < 600; k += 2 {
		row := bytes.Repeat([]byte{byte(k)}, tornRowSize)
		binary.LittleEndian.PutUint64(row, k)
		if err := tr.Insert(k, row); err != nil {
			t.Fatal(err)
		}
		s.model[k] = row
	}
	if err := e.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if s.pid, err = tr.LeafFor(300); err != nil {
		t.Fatal(err)
	}
	var keys []uint64 // the leaf's rows, ascending
	for k := uint64(0); k < 600; k += 2 {
		if pid, err := tr.LeafFor(k); err != nil {
			t.Fatal(err)
		} else if pid == s.pid {
			keys = append(keys, k)
		}
	}
	if len(keys) < 8 {
		t.Fatalf("leaf %d holds %d rows", s.pid, len(keys))
	}
	s.journal0 = e.Manager().Stats().NVMLinesWrittenBy[core.CauseJournal]

	update := func(k uint64, off int, v byte) {
		t.Helper()
		val := bytes.Repeat([]byte{v}, 40)
		if found, err := tr.UpdateField(k, off, val); err != nil || !found {
			t.Fatalf("UpdateField(%d): %v, %v", k, found, err)
		}
	}
	for v, tx := range [][]int{{1, 3, 5}, {3, 6}, {0, 5, 7}} {
		e.Begin()
		for i, r := range tx {
			k, off := keys[r], (r*70+i*30)%(tornRowSize-40)
			update(k, off, byte(0xA0+v))
			copy(s.model[k][off:], bytes.Repeat([]byte{byte(0xA0 + v)}, 40))
		}
		if err := e.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if shift {
		e.Begin()
		k := keys[0] + 1
		row := bytes.Repeat([]byte{0x5A}, tornRowSize)
		if err := tr.Insert(k, row); err != nil {
			t.Fatal(err)
		}
		if err := e.Commit(); err != nil {
			t.Fatal(err)
		}
		s.model[k] = row
	}
	e.Begin()
	update(keys[4], 100, 0xEE) // never committed
	e.Log().Flush()
	return s
}

// writeBackLeaf forces the leaf out under the given fault plan.
func (s *tornLeaf) writeBackLeaf(t *testing.T, plan *fault.Plan) (fault.Injectors, bool) {
	t.Helper()
	inj := s.e.ArmFaults(plan, 0)
	m := s.e.Manager()
	h, err := m.Fix(core.MakeRef(s.pid), core.ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	crashed := func() (crashed bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := fault.AsCrash(r); !ok {
					panic(r)
				}
				crashed = true
			}
		}()
		m.ForceWrite(h)
		return false
	}()
	if !crashed {
		m.Unfix(h)
	}
	s.e.ArmFaults(nil, 0)
	return inj, crashed
}

func tornWriteBackSweep(t *testing.T, topo core.Topology, shift bool) {
	dry := setupTornLeaf(t, topo, shift)
	undos := dry.e.Log().Stats().Undos
	inj, _ := dry.writeBackLeaf(t, &fault.Plan{})
	flushes := inj.NVM.Opportunities(fault.NVMTornFlush)
	journalLines := dry.e.Manager().Stats().NVMLinesWrittenBy[core.CauseJournal] - dry.journal0
	if undos = dry.e.Log().Stats().Undos - undos; undos != 1 {
		t.Fatalf("the write barrier logged %d undo records, want the running update's 1", undos)
	}
	if shift != (journalLines > 0) {
		t.Fatalf("shift=%v: the write-back's %d flushes wrote %d journal lines", shift, flushes, journalLines)
	}
	if topo == core.ThreeTier && !shift && flushes < 2 {
		t.Fatalf("the write-back has %d flushes; nothing to tear between", flushes)
	}
	t.Logf("tearing each of %d flushes (%d journal lines)", flushes, journalLines)
	for point := int64(1); point <= flushes; point++ {
		s := setupTornLeaf(t, topo, shift)
		plan := &fault.Plan{Seed: uint64(point), Rules: []fault.Rule{{Kind: fault.NVMTornFlush, EveryN: point, Limit: 1}}}
		if _, crashed := s.writeBackLeaf(t, plan); !crashed {
			t.Fatalf("point %d: the write-back completed", point)
		}
		if _, err := s.e.CrashRestart(); err != nil {
			t.Fatalf("point %d: recovery: %v", point, err)
		}
		st := s.e.Manager().Stats()
		// The barrier flushes the log; the journal writes index and saved
		// lines, then arms its header: a tear after the fourth flush finds
		// it armed.
		var wantUndos int64
		if shift && point > 4 {
			wantUndos = 1
		}
		if st.JournalUndos != wantUndos {
			t.Fatalf("point %d of %d: JournalUndos = %d, want %d", point, flushes, st.JournalUndos, wantUndos)
		}
		if !shift && st.NVMLinesWrittenBy[core.CauseJournal] != s.journal0 {
			t.Fatalf("point %d: %d journal lines written", point, st.NVMLinesWrittenBy[core.CauseJournal]-s.journal0)
		}
		tr := s.e.Tree(1)
		buf := make([]byte, tornRowSize)
		for k, want := range s.model {
			if found, err := tr.Lookup(k, buf); err != nil || !found {
				t.Fatalf("point %d: key %d: found=%v, %v", point, k, found, err)
			}
			if !bytes.Equal(buf, want) {
				t.Fatalf("point %d: key %d reads %x, want %x", point, k, buf, want)
			}
		}
		if n, err := tr.Count(); err != nil || n != len(s.model) {
			t.Fatalf("point %d: %d rows (%v), want %d", point, n, err, len(s.model))
		}
	}
}
