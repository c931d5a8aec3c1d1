package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"nvmstore/internal/btree"
	"nvmstore/internal/core"
	"nvmstore/internal/fault"
	"nvmstore/internal/wal"
)

// The buffered architectures, whose pages of a running transaction can be
// stolen: written back before the commit.
var stealTopologies = []core.Topology{core.DRAMNVM, core.DRAMSSD, core.ThreeTier}

const stealRow = 200

// stealStore is a checkpointed tree of even keys and the model of its
// committed contents.
type stealStore struct {
	e     *Engine
	tr    *btree.Tree
	model map[uint64][]byte
}

// newStealStore loads rows even keys of stealRow bytes in transactions
// of 50 and checkpoints, so every leaf has a persistent home and the log
// is empty.
func newStealStore(t *testing.T, cfg core.Config, rows int) *stealStore {
	t.Helper()
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := e.CreateTree(1, stealRow, btree.LayoutSorted)
	if err != nil {
		t.Fatal(err)
	}
	s := &stealStore{e: e, tr: tr, model: map[uint64][]byte{}}
	for k := uint64(0); k < uint64(2*rows); k += 2 {
		if k%100 == 0 {
			e.Begin()
		}
		row := bytes.Repeat([]byte{byte(k)}, stealRow)
		binary.LittleEndian.PutUint64(row, k)
		if err := tr.Insert(k, row); err != nil {
			t.Fatal(err)
		}
		s.model[k] = row
		if k%100 == 98 || k == uint64(2*rows-2) {
			if err := e.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return s
}

var (
	stealField  = bytes.Repeat([]byte{0xEE}, 100)
	stealInsert = bytes.Repeat([]byte{0x5A}, stealRow)
)

// ops runs one op per key in a transaction the caller began: for an even
// key%4 == 0 an update of a 100-byte field, for key%4 == 2 a delete, for
// an odd key an insert. None of it touches the model.
func (s *stealStore) ops(t *testing.T, keys ...uint64) {
	t.Helper()
	for _, k := range keys {
		var err error
		switch k % 4 {
		case 0:
			_, err = s.tr.UpdateField(k, 40, stealField)
		case 2:
			_, err = s.tr.Delete(k)
		default:
			err = s.tr.Insert(k, stealInsert)
		}
		if err != nil {
			t.Fatalf("op on key %d: %v", k, err)
		}
	}
}

// commit applies what ops did to keys to the model.
func (s *stealStore) commit(keys ...uint64) {
	for _, k := range keys {
		switch k % 4 {
		case 0:
			row := append([]byte(nil), s.model[k]...)
			copy(row[40:], stealField)
			s.model[k] = row
		case 2:
			delete(s.model, k)
		default:
			s.model[k] = stealInsert
		}
	}
}

// restart crashes and recovers the engine.
func (s *stealStore) restart(t *testing.T) wal.RecoveryStats {
	t.Helper()
	st, err := s.e.CrashRestart()
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	s.tr = s.e.Tree(1)
	return st
}

// matches reports whether the tree holds exactly the model.
func (s *stealStore) matches(t *testing.T) bool {
	t.Helper()
	buf := make([]byte, stealRow)
	for k, want := range s.model {
		found, err := s.tr.Lookup(k, buf)
		if err != nil {
			t.Fatal(err)
		}
		if !found || !bytes.Equal(buf, want) {
			return false
		}
	}
	n, err := s.tr.Count()
	if err != nil {
		t.Fatal(err)
	}
	return n == len(s.model)
}

// crashed runs fn and reports whether it ended in an injected crash.
func crashed(fn func()) (c bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := fault.AsCrash(r); !ok {
				panic(r)
			}
			c = true
		}
	}()
	fn()
	return false
}

// TestStealMidTransactionRollsBack: the leaf of a transaction's first
// UpdateField is written back before the commit — by a checkpoint walk
// or a forced write — and the power fails. The write barrier must have
// logged the undo of every op before the steal, and only of those: the
// recovered tree equals the committed model.
func TestStealMidTransactionRollsBack(t *testing.T) {
	for _, topo := range stealTopologies {
		for _, steal := range []string{"FlushAll", "ForceWrite"} {
			t.Run(topo.String()+"/"+steal, func(t *testing.T) {
				s := newStealStore(t, testConfig(topo), 300)
				undos := s.e.Log().Stats().Undos
				s.e.Begin()
				s.ops(t, 100, 101, 102) // update, insert, delete
				if steal == "FlushAll" {
					s.e.Manager().FlushAll()
				} else {
					pid, err := s.tr.LeafFor(100)
					if err != nil {
						t.Fatal(err)
					}
					h, err := s.e.Manager().Fix(core.MakeRef(pid), core.ModeFull)
					if err != nil {
						t.Fatal(err)
					}
					s.e.Manager().ForceWrite(h)
					s.e.Manager().Unfix(h)
				}
				s.ops(t, 200, 203) // after the steal: nothing exposes them
				s.e.Log().Flush()
				if got := s.e.Log().Stats().Undos - undos; got != 3 {
					t.Fatalf("%d undo records, want 3: one per op before the steal", got)
				}
				st := s.restart(t)
				if st.Losers != 1 || st.Undone != 3 {
					t.Fatalf("recovery %+v, want 1 loser with 3 undone", st)
				}
				if !s.matches(t) {
					t.Fatal("the recovered tree differs from the committed model")
				}
			})
		}
	}
}

// TestPageImageLogsUndoFirst: a transaction updates a row of the last
// leaf, then appends rows past the last key until that leaf splits. Redo
// replays the split's page images whatever the outcome, and they hold the
// transaction's rows, so the undo of every op before the split must
// precede them in the log. With the images durable and no commit,
// recovery must still equal the model.
func TestPageImageLogsUndoFirst(t *testing.T) {
	for _, topo := range stealTopologies {
		t.Run(topo.String(), func(t *testing.T) {
			s := newStealStore(t, testConfig(topo), 300)
			leaf, err := s.tr.LeafFor(596)
			if err != nil {
				t.Fatal(err)
			}
			undos := s.e.Log().Stats().Undos
			s.e.Begin()
			s.ops(t, 596)
			ops := 1
			for k := uint64(601); ; k += 2 {
				s.ops(t, k)
				ops++
				if pid, err := s.tr.LeafFor(k); err != nil {
					t.Fatal(err)
				} else if pid != leaf {
					break // the leaf split
				}
			}
			// The split ran inside the last insert, before its record.
			if got := s.e.Log().Stats().Undos - undos; got != int64(ops-1) {
				t.Fatalf("%d undo records before the images, want %d", got, ops-1)
			}
			s.e.Log().Flush()
			st := s.restart(t)
			if st.Undone != ops-1 {
				t.Fatalf("recovery %+v, want %d undone", st, ops-1)
			}
			if !s.matches(t) {
				t.Fatal("the recovered tree differs from the committed model")
			}
		})
	}
}

// TestFailedEndLogsUndo: a commit or a rollback that fails at its first
// append leaves the transaction's changes in the pool with no end mark.
// Their undo images must reach the log then, for a later steal persists
// the changes; recovery rolls the transaction back.
func TestFailedEndLogsUndo(t *testing.T) {
	for _, topo := range stealTopologies {
		for _, end := range []string{"Commit", "Rollback"} {
			t.Run(topo.String()+"/"+end, func(t *testing.T) {
				s := newStealStore(t, testConfig(topo), 300)
				s.e.Begin()
				s.ops(t, 100, 101, 102)
				s.e.ArmFaults(&fault.Plan{Rules: []fault.Rule{{Kind: fault.WALAppendError, EveryN: 1, Limit: 1}}}, 0)
				var err error
				if end == "Commit" {
					err = s.e.Commit()
				} else {
					err = s.e.Rollback()
				}
				s.e.ArmFaults(nil, 0)
				if err == nil {
					t.Fatalf("%s survived its failed append", end)
				}
				s.e.Manager().FlushAll() // the changes reach persistent storage
				if st := s.restart(t); st.Undone != 3 {
					t.Fatalf("recovery %+v, want 3 undone", st)
				}
				if !s.matches(t) {
					t.Fatal("the recovered tree differs from the committed model")
				}
			})
		}
	}
}

// TestBarrierFlushTorn tears each WAL flush after the first op of a
// transaction — two steals' barriers and the commit — with several seeded
// tear points each. A torn barrier flush crashes before its write-back, so
// the transaction must vanish; a torn commit may land whole or not at all.
// Across the seeds the first barrier's tear must leave every prefix of its
// undo records durable.
func TestBarrierFlushTorn(t *testing.T) {
	const seeds = 24
	for _, topo := range stealTopologies {
		t.Run(topo.String(), func(t *testing.T) {
			for every := int64(1); every <= 3; every++ {
				prefixes := map[int]bool{}
				for seed := uint64(1); seed <= seeds; seed++ {
					s := newStealStore(t, testConfig(topo), 300)
					s.e.Begin()
					s.ops(t, 100, 101, 102, 104)
					s.e.Log().Flush() // the first barrier flushes only its undo records
					s.e.ArmFaults(&fault.Plan{Seed: seed, Rules: []fault.Rule{{Kind: fault.WALFlushCrash, EveryN: every, Limit: 1}}}, 0)
					if !crashed(func() {
						s.e.Manager().FlushAll()
						s.ops(t, 200)
						s.e.Manager().FlushAll()
						if err := s.e.Commit(); err != nil {
							t.Fatal(err)
						}
					}) {
						t.Fatalf("flush %d, seed %d: no crash", every, seed)
					}
					s.e.ArmFaults(nil, 0)
					st := s.restart(t)
					if every == 1 {
						prefixes[st.Records-4] = true
					}
					if !s.matches(t) {
						if every < 3 {
							t.Fatalf("flush %d, seed %d: the transaction survived a torn barrier", every, seed)
						}
						s.commit(100, 101, 102, 104, 200) // the commit may land
						if !s.matches(t) {
							t.Fatalf("flush %d, seed %d: the transaction landed in part", every, seed)
						}
					}
				}
				if every == 1 {
					for n := 0; n < 4; n++ {
						if !prefixes[n] {
							t.Fatalf("no seed left exactly %d of the 4 undo records durable (saw %v)", n, prefixes)
						}
					}
				}
			}
		})
	}
}

// TestCrashMidRollbackAfterSteal: a transaction updates rows on more
// leaves than DRAM holds, so its own evictions steal, and rolls back; the
// rollback's compensations evict too. The power fails at each NVM flush
// of the rollback in turn. Every crash must come back with the committed
// contents: the loser's undo images, compensations' included, are rolled
// back in reverse.
func TestCrashMidRollbackAfterSteal(t *testing.T) {
	for _, topo := range stealTopologies {
		t.Run(topo.String(), func(t *testing.T) {
			cfg := testConfig(topo)
			cfg.DRAMBytes = 8 * (core.PageSize + 2*core.LineSize)
			var keys []uint64
			for k := uint64(0); k < 4000; k += 161 {
				keys = append(keys, k) // one op per leaf: updates, deletes, inserts
			}
			run := func(plan *fault.Plan) (*stealStore, fault.Injectors, bool) {
				s := newStealStore(t, cfg, 2000)
				s.e.Begin()
				s.ops(t, keys...)
				if s.e.Log().Stats().Undos == 0 {
					t.Fatal("the transaction stole nothing")
				}
				inj := s.e.ArmFaults(plan, 0)
				c := crashed(func() {
					if err := s.e.Rollback(); err != nil {
						t.Fatal(err)
					}
				})
				s.e.ArmFaults(nil, 0)
				return s, inj, c
			}
			_, inj, _ := run(&fault.Plan{})
			flushes := inj.NVM.Opportunities(fault.NVMCrash)
			if flushes < 4 {
				t.Fatalf("the rollback flushed %d times; nothing to crash between", flushes)
			}
			t.Logf("crashing at each of %d flushes of the rollback", flushes)
			for point := int64(1); point <= flushes; point++ {
				s, _, c := run(&fault.Plan{Rules: []fault.Rule{{Kind: fault.NVMCrash, EveryN: point, Limit: 1}}})
				if !c {
					t.Fatalf("point %d: the rollback completed", point)
				}
				s.restart(t)
				if !s.matches(t) {
					t.Fatalf("point %d of %d: the recovered tree differs from the committed model", point, flushes)
				}
			}
		})
	}
}

// TestDirectUndoBeforeInPlaceStore: NVM Direct writes each change in
// place, a steal at every op, so logOp runs the write barrier before the
// tree stores: the op's undo record is durable before the bytes it
// covers. The power fails at each NVM flush of a 4-op transaction in
// turn, and every crash recovers the committed model. Run to the end, the
// transaction logs one undo record per op, and recovery undoes them all.
func TestDirectUndoBeforeInPlaceStore(t *testing.T) {
	keys := []uint64{100, 101, 102, 104}
	run := func(plan *fault.Plan) (*stealStore, fault.Injectors, int64, bool) {
		s := newStealStore(t, testConfig(core.DirectNVM), 300)
		undos := s.e.Log().Stats().Undos
		inj := s.e.ArmFaults(plan, 0)
		s.e.Begin()
		c := crashed(func() { s.ops(t, keys...) })
		s.e.ArmFaults(nil, 0)
		return s, inj, s.e.Log().Stats().Undos - undos, c
	}
	s, inj, undos, _ := run(&fault.Plan{})
	flushes := inj.NVM.Opportunities(fault.NVMCrash)
	if flushes != 12 {
		t.Fatalf("the transaction flushed %d times, want 12", flushes)
	}
	if undos != int64(len(keys)) {
		t.Fatalf("%d undo records for %d ops", undos, len(keys))
	}
	if st := s.restart(t); st.Losers != 1 || st.Undone != len(keys) || st.Redone != 0 {
		t.Fatalf("recovery %+v, want the %d in-place ops undone", st, len(keys))
	}
	if !s.matches(t) {
		t.Fatal("the recovered tree differs from the committed model")
	}
	for point := int64(1); point <= flushes; point++ {
		s, _, _, c := run(&fault.Plan{Rules: []fault.Rule{{Kind: fault.NVMCrash, EveryN: point, Limit: 1}}})
		if !c {
			t.Fatalf("point %d: the transaction completed", point)
		}
		s.restart(t)
		if !s.matches(t) {
			t.Fatalf("point %d of %d: the recovered tree differs from the committed model", point, flushes)
		}
	}
}

// TestAutocommitUpdateLogsRedoOnly pins what one autocommit 100-byte
// UpdateField logs on 3 Tier BM: one 128-byte folded record (8-byte
// prefix, kind, LSN, 1-byte tree id, 2-byte op and offset code, 8-byte
// key, 100 bytes of after image) standing for the update and its commit,
// and no undo record. Committed through Engine.Commit it fills exactly 2
// lines, each flushed once.
func TestAutocommitUpdateLogsRedoOnly(t *testing.T) {
	s := newStealStore(t, testConfig(core.ThreeTier), 300)
	log, dev := s.e.Log(), s.e.Manager().NVM()
	off, size := s.e.Manager().WALRegion()
	walWear := func() (sum int64) {
		for l := off / core.LineSize; l < (off+size)/core.LineSize; l++ {
			sum += int64(dev.Wear(l))
		}
		return sum
	}
	// The record, seen before its flush.
	before, st0 := log.Bytes(), log.Stats()
	s.e.Begin()
	s.ops(t, 100)
	if err := s.e.CommitNoFlush(); err != nil {
		t.Fatal(err)
	}
	if got := log.Bytes() - before; got != 128 {
		t.Fatalf("one autocommit UpdateField appended %d log bytes, want 128", got)
	}
	if st := log.Stats(); st.Records-st0.Records != 1 || st.Folded-st0.Folded != 1 || st.Undos != st0.Undos {
		t.Fatalf("stats %+v -> %+v, want 1 folded record and no undo", st0, st)
	}
	if _, err := s.e.FlushWAL(); err != nil {
		t.Fatal(err)
	}

	// The autocommit path itself: Commit appends and flushes it.
	before, st0, wear0 := log.Bytes(), log.Stats(), walWear()
	s.e.Begin()
	s.ops(t, 104)
	if err := s.e.Commit(); err != nil {
		t.Fatal(err)
	}
	if got, lines := log.Bytes()-before, walWear()-wear0; got != 128 || lines != 2 {
		t.Fatalf("an autocommit took %d log bytes in %d line flushes, want 128 in 2", got, lines)
	}
	if st := log.Stats(); st.Records-st0.Records != 1 || st.Undos != st0.Undos || st.Flushes-st0.Flushes != 1 {
		t.Fatalf("stats %+v -> %+v, want 1 record, no undo and 1 flush", st0, st)
	}
}

// TestSingleOpSteal: the page of a one-update transaction is stolen before
// its commit. The barrier writes the held update as a plain record ahead
// of its undo record; a crash then rolls the transaction back, and a
// commit after the steal is a plain mark that recovery honours.
func TestSingleOpSteal(t *testing.T) {
	for _, topo := range stealTopologies {
		for _, end := range []string{"crash", "commit then crash"} {
			t.Run(topo.String()+"/"+end, func(t *testing.T) {
				s := newStealStore(t, testConfig(topo), 300)
				st0 := s.e.Log().Stats()
				s.e.Begin()
				s.ops(t, 100)
				s.e.Manager().FlushAll()
				if st := s.e.Log().Stats(); st.Records-st0.Records != 2 || st.Undos-st0.Undos != 1 {
					t.Fatalf("stats %+v -> %+v, want the update and its undo record", st0, st)
				}
				want := wal.RecoveryStats{Records: 2, Losers: 1, Undone: 1}
				if end != "crash" {
					if err := s.e.Commit(); err != nil {
						t.Fatal(err)
					}
					if st := s.e.Log().Stats(); st.Folded != st0.Folded {
						t.Fatalf("a commit after the steal folded: %+v", st)
					}
					s.commit(100)
					want = wal.RecoveryStats{Records: 2, Committed: 1, Redone: 1}
				}
				if st := s.restart(t); st != want {
					t.Fatalf("recovery %+v, want %+v", st, want)
				}
				if !s.matches(t) {
					t.Fatal("the recovered tree differs from the committed model")
				}
			})
		}
	}
}

// TestUndoReservationFailsTheOp: each op reserves log room for its undo
// record. A transaction that fills the log fails at the op whose undo
// would not fit, though its redo record alone would; the steal that
// follows logs every undo inside the reservation, and recovery rolls the
// transaction back.
func TestUndoReservationFailsTheOp(t *testing.T) {
	for _, topo := range stealTopologies {
		t.Run(topo.String(), func(t *testing.T) {
			s := newStealStore(t, testConfig(topo), 300)
			log := s.e.Log()
			undos := log.Stats().Undos
			s.e.Begin()
			ops := 0
			for ; ; ops++ {
				_, err := s.tr.UpdateField(uint64(4*(ops%150)), 40, bytes.Repeat([]byte{byte(ops)}, 100))
				if err != nil {
					if !errors.Is(err, wal.ErrLogFull) {
						t.Fatal(err)
					}
					break
				}
			}
			if free := log.Capacity() - log.Bytes(); free < 153 {
				t.Fatalf("the log ran out (%d bytes free) before the reservation did", free)
			}
			s.e.Manager().FlushAll() // the steal: its barrier must not fail
			if got := log.Stats().Undos - undos; got != int64(ops) {
				t.Fatalf("%d undo records for %d ops", got, ops)
			}
			// The barrier's flush padded the log to a line boundary: the pad
			// is used room too.
			if log.Bytes()%core.LineSize != 0 || log.Bytes() > log.Capacity() {
				t.Fatalf("the log overran its region: %d of %d bytes", log.Bytes(), log.Capacity())
			}
			st := s.restart(t)
			if st.Undone != ops {
				t.Fatalf("recovery %+v, want %d undone", st, ops)
			}
			if !s.matches(t) {
				t.Fatal("the recovered tree differs from the committed model")
			}
		})
	}
}
