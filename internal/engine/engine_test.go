package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"nvmstore/internal/btree"
	"nvmstore/internal/core"
	"nvmstore/internal/fault"
)

const testPayload = 64

func testConfig(topo core.Topology) core.Config {
	cfg := DefaultConfig(topo, 16*(core.PageSize+2*core.LineSize),
		512*(core.PageSize+core.LineSize), 4096*core.PageSize)
	cfg.WALBytes = 1 << 18
	cfg.CPUCacheBytes = -1
	cfg.StrictPersistence = true
	if topo == core.MemOnly {
		cfg.DRAMBytes = 0
	}
	return cfg
}

func openEngine(t *testing.T, topo core.Topology) *Engine {
	t.Helper()
	e, err := Open(testConfig(topo))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return e
}

func pay(key uint64) []byte {
	p := make([]byte, testPayload)
	binary.LittleEndian.PutUint64(p, key*3+1)
	for i := 8; i < testPayload; i++ {
		p[i] = byte(key)
	}
	return p
}

func mustInsert(t *testing.T, e *Engine, tr *btree.Tree, keys ...uint64) {
	t.Helper()
	e.Begin()
	for _, k := range keys {
		if err := tr.Insert(k, pay(k)); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}
	if err := e.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
}

func checkKey(t *testing.T, tr *btree.Tree, key uint64, present bool) {
	t.Helper()
	buf := make([]byte, testPayload)
	found, err := tr.Lookup(key, buf)
	if err != nil {
		t.Fatalf("Lookup(%d): %v", key, err)
	}
	if found != present {
		t.Fatalf("Lookup(%d) found=%v, want %v", key, found, present)
	}
	if present && !bytes.Equal(buf, pay(key)) {
		t.Fatalf("Lookup(%d) wrong payload", key)
	}
}

func TestBasicTransaction(t *testing.T) {
	for _, topo := range []core.Topology{core.MemOnly, core.DRAMSSD, core.DRAMNVM, core.ThreeTier, core.DirectNVM} {
		t.Run(topo.String(), func(t *testing.T) {
			e := openEngine(t, topo)
			tr, err := e.CreateTree(1, testPayload, btree.LayoutSorted)
			if err != nil {
				t.Fatal(err)
			}
			mustInsert(t, e, tr, 1, 2, 3)
			checkKey(t, tr, 1, true)
			checkKey(t, tr, 2, true)
			checkKey(t, tr, 3, true)
			checkKey(t, tr, 4, false)
		})
	}
}

func TestModificationOutsideTxRejected(t *testing.T) {
	e := openEngine(t, core.DRAMNVM)
	tr, _ := e.CreateTree(1, testPayload, btree.LayoutSorted)
	if err := tr.Insert(1, pay(1)); !errors.Is(err, ErrNoTransaction) {
		t.Fatalf("err = %v, want ErrNoTransaction", err)
	}
}

func TestRollback(t *testing.T) {
	e := openEngine(t, core.DRAMNVM)
	tr, _ := e.CreateTree(1, testPayload, btree.LayoutSorted)
	mustInsert(t, e, tr, 10, 20)

	e.Begin()
	if err := tr.Insert(30, pay(30)); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Delete(10); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.UpdateField(20, 8, []byte{0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	if err := e.Rollback(); err != nil {
		t.Fatalf("Rollback: %v", err)
	}

	checkKey(t, tr, 30, false) // insert undone
	checkKey(t, tr, 10, true)  // delete undone
	checkKey(t, tr, 20, true)  // update undone
}

func TestCrashRecoveryCommittedSurvives(t *testing.T) {
	for _, topo := range []core.Topology{core.DRAMSSD, core.DRAMNVM, core.ThreeTier, core.DirectNVM} {
		t.Run(topo.String(), func(t *testing.T) {
			e := openEngine(t, topo)
			tr, _ := e.CreateTree(1, testPayload, btree.LayoutSorted)
			mustInsert(t, e, tr, 100, 200, 300)

			// An uncommitted transaction is in flight at the crash.
			e.Begin()
			if err := tr.Insert(400, pay(400)); err != nil {
				t.Fatal(err)
			}
			if _, err := tr.Delete(100); err != nil {
				t.Fatal(err)
			}
			e.Log().Flush() // records durable, commit record absent

			stats, err := e.CrashRestart()
			if err != nil {
				t.Fatalf("CrashRestart: %v", err)
			}
			// NVM Direct truncates the log on every commit, so recovery
			// only ever sees the in-flight loser there.
			if topo != core.DirectNVM && stats.Committed == 0 {
				t.Fatalf("recovery stats = %+v, expected committed work", stats)
			}
			if stats.Losers == 0 {
				t.Fatalf("recovery stats = %+v, expected a loser", stats)
			}
			tr = e.Tree(1)
			if tr == nil {
				t.Fatal("tree not recovered from catalog")
			}
			checkKey(t, tr, 100, true) // loser delete rolled back
			checkKey(t, tr, 200, true)
			checkKey(t, tr, 300, true)
			checkKey(t, tr, 400, false) // loser insert rolled back
		})
	}
}

// TestCrashRightAfterTruncationKeepsNewerValues: a crash right after a
// checkpoint leaves an empty log over a region that still holds the
// truncated generation's records. Recovery must keep counting LSNs up from
// there, or after the next commit and crash it would take those stale
// records for new ones and redo old values over the newer one.
func TestCrashRightAfterTruncationKeepsNewerValues(t *testing.T) {
	for _, topo := range []core.Topology{core.DRAMSSD, core.DRAMNVM, core.ThreeTier, core.DirectNVM} {
		t.Run(topo.String(), func(t *testing.T) {
			e := openEngine(t, topo)
			tr, _ := e.CreateTree(1, testPayload, btree.LayoutSorted)
			mustInsert(t, e, tr, 1)
			if err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			set := func(v byte) {
				t.Helper()
				e.Begin()
				if _, err := tr.UpdateField(1, 8, []byte{v}); err != nil {
					t.Fatal(err)
				}
				if err := e.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			for v := byte(1); v <= 4; v++ {
				set(v) // the generation the next checkpoint truncates
			}
			for i := 0; i < 2; i++ { // the second crash finds the log empty
				if _, err := e.CrashRestart(); err != nil {
					t.Fatal(err)
				}
			}
			tr = e.Tree(1)
			set(9)
			if _, err := e.CrashRestart(); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, testPayload)
			if found, err := e.Tree(1).Lookup(1, buf); err != nil || !found || buf[8] != 9 {
				t.Fatalf("after the crashes the field reads %d (found %v, err %v), want 9", buf[8], found, err)
			}
		})
	}
}

func TestCrashRecoveryUnflushedCommitLost(t *testing.T) {
	// A transaction whose commit record never reached NVM must vanish.
	e := openEngine(t, core.DRAMNVM)
	tr, _ := e.CreateTree(1, testPayload, btree.LayoutSorted)
	mustInsert(t, e, tr, 1)

	e.Begin()
	if err := tr.Insert(2, pay(2)); err != nil {
		t.Fatal(err)
	}
	// No commit, no flush: the update record is torn away by the crash.
	if _, err := e.CrashRestart(); err != nil {
		t.Fatal(err)
	}
	tr = e.Tree(1)
	checkKey(t, tr, 1, true)
	checkKey(t, tr, 2, false)
}

func TestCrashAfterEvictionStillRollsBack(t *testing.T) {
	// Dirty pages of an uncommitted transaction are stolen (evicted); the
	// write barrier must have flushed the undo records, so recovery can
	// still roll back.
	e := openEngine(t, core.DRAMNVM)
	tr, _ := e.CreateTree(1, testPayload, btree.LayoutSorted)
	mustInsert(t, e, tr, 5)

	e.Begin()
	if err := tr.Insert(6, pay(6)); err != nil {
		t.Fatal(err)
	}
	e.Manager().FlushAll() // steal: uncommitted content reaches NVM

	if _, err := e.CrashRestart(); err != nil {
		t.Fatal(err)
	}
	tr = e.Tree(1)
	checkKey(t, tr, 5, true)
	checkKey(t, tr, 6, false)
}

func TestMemOnlyCannotCrashRecover(t *testing.T) {
	e := openEngine(t, core.MemOnly)
	if _, err := e.CrashRestart(); err == nil {
		t.Fatal("main-memory crash recovery unexpectedly succeeded")
	}
}

func TestCleanRestartKeepsData(t *testing.T) {
	for _, topo := range []core.Topology{core.DRAMSSD, core.DRAMNVM, core.ThreeTier, core.DirectNVM} {
		t.Run(topo.String(), func(t *testing.T) {
			e := openEngine(t, topo)
			tr, _ := e.CreateTree(1, testPayload, btree.LayoutSorted)
			var keys []uint64
			for i := uint64(0); i < 500; i++ {
				keys = append(keys, i*7)
			}
			mustInsert(t, e, tr, keys...)
			if err := e.CleanRestart(); err != nil {
				t.Fatalf("CleanRestart: %v", err)
			}
			tr = e.Tree(1)
			for _, k := range keys {
				checkKey(t, tr, k, true)
			}
			cnt, err := tr.Count()
			if err != nil {
				t.Fatal(err)
			}
			if cnt != len(keys) {
				t.Fatalf("Count = %d, want %d", cnt, len(keys))
			}
		})
	}
}

func TestAutoCheckpointTruncatesLog(t *testing.T) {
	cfg := testConfig(core.DRAMNVM)
	cfg.WALBytes = 1 << 20 // minimal log: forces checkpoints
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := e.CreateTree(1, testPayload, btree.LayoutSorted)
	const n = 8000
	for i := uint64(0); i < n; i++ {
		e.Begin()
		if err := tr.Insert(i, pay(i)); err != nil {
			t.Fatalf("Insert(%d): %v", i, err)
		}
		if err := e.Commit(); err != nil {
			t.Fatalf("Commit(%d): %v", i, err)
		}
	}
	if e.Log().Stats().Truncates == 0 {
		t.Fatal("no checkpoint happened despite minimal log")
	}
	for i := uint64(0); i < n; i++ {
		checkKey(t, tr, i, true)
	}
}

// TestCheckpointCountsItsTruncation: a full checkpoint cuts the log through
// the same counted path as an incremental round, so CkptStats accounts for
// every byte the log ever dropped — what a bytes-logged-per-write metric
// (truncated bytes plus the change in fill) needs to stay non-negative.
func TestCheckpointCountsItsTruncation(t *testing.T) {
	for _, topo := range []core.Topology{core.MemOnly, core.DRAMSSD, core.DRAMNVM, core.ThreeTier} {
		t.Run(topo.String(), func(t *testing.T) {
			e := openEngine(t, topo)
			tr, _ := e.CreateTree(1, testPayload, btree.LayoutSorted)
			mustInsert(t, e, tr, 1, 2, 3)
			logged := e.Log().Bytes()
			if logged == 0 {
				t.Fatal("inserts logged nothing")
			}
			if err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if c := e.CkptStats(); c.Truncations != 1 || c.TruncatedBytes != logged {
				t.Fatalf("after Checkpoint: %d truncations of %d bytes, want 1 of %d", c.Truncations, c.TruncatedBytes, logged)
			}
			if e.Log().Bytes() != 0 || e.Manager().DirtyFrames() != 0 && topo != core.MemOnly {
				t.Fatalf("checkpoint left %d log bytes, %d dirty frames", e.Log().Bytes(), e.Manager().DirtyFrames())
			}
			// An empty log has nothing to cut and nothing to count.
			if err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if c := e.CkptStats(); c.Truncations != 1 {
				t.Fatalf("checkpoint of an empty log counted a truncation: %d", c.Truncations)
			}
		})
	}
}

func TestDirectTruncatesPerCommit(t *testing.T) {
	e := openEngine(t, core.DirectNVM)
	tr, _ := e.CreateTree(1, testPayload, btree.LayoutSorted)
	mustInsert(t, e, tr, 1)
	mustInsert(t, e, tr, 2)
	if got := e.Log().Stats().Truncates; got != 2 {
		t.Fatalf("truncates = %d, want 2 (one per commit)", got)
	}
	if e.Log().Bytes() != 0 {
		t.Fatalf("log not empty after direct commit: %d bytes", e.Log().Bytes())
	}
	if c := e.CkptStats(); c.Truncations != 2 || c.TruncatedBytes == 0 {
		t.Fatalf("CkptStats = %+v, want both per-commit truncations counted", c)
	}
}

func TestMultipleTreesAndCatalog(t *testing.T) {
	e := openEngine(t, core.ThreeTier)
	t1, err := e.CreateTree(1, 32, btree.LayoutSorted)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := e.CreateTree(2, 16, btree.LayoutHash)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateTree(1, 8, btree.LayoutSorted); err == nil {
		t.Fatal("duplicate tree id accepted")
	}
	e.Begin()
	if err := t1.Insert(1, make([]byte, 32)); err != nil {
		t.Fatal(err)
	}
	if err := t2.Insert(1, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(); err != nil {
		t.Fatal(err)
	}

	if err := e.CleanRestart(); err != nil {
		t.Fatal(err)
	}
	r1, r2 := e.Tree(1), e.Tree(2)
	if r1 == nil || r2 == nil {
		t.Fatal("trees lost across restart")
	}
	if r1.PayloadSize() != 32 || r2.PayloadSize() != 16 {
		t.Fatal("payload sizes lost across restart")
	}
	if r2.Layout() != btree.LayoutHash {
		t.Fatal("layout lost across restart")
	}
	c1, _ := r1.Count()
	c2, _ := r2.Count()
	if c1 != 1 || c2 != 1 {
		t.Fatalf("counts after restart = %d, %d", c1, c2)
	}
}

// TestReadOnlyCommitWritesNothing: on every architecture a read-only
// transaction's Commit is free — no log record or flush, no NVM access,
// no checkpoint round and no fault opportunity.
func TestReadOnlyCommitWritesNothing(t *testing.T) {
	for _, topo := range []core.Topology{core.MemOnly, core.DRAMSSD, core.DRAMNVM, core.ThreeTier, core.DirectNVM} {
		t.Run(topo.String(), func(t *testing.T) {
			e := openEngine(t, topo)
			tr, _ := e.CreateTree(1, testPayload, btree.LayoutSorted)
			mustInsert(t, e, tr, 9)
			inj := e.ArmFaults(&fault.Plan{}, 0)
			opportunities := func() (n [fault.CkptRound + 1]int64) {
				for k := range n {
					n[k] = inj.Opportunities(fault.Kind(k))
				}
				return n
			}

			e.Begin()
			checkKey(t, tr, 9, true)
			log, dev, ckpt, opp := e.Log().Stats(), e.Manager().NVM().Stats(), e.CkptStats(), opportunities()
			if err := e.Commit(); err != nil {
				t.Fatal(err)
			}
			if after := e.Log().Stats(); after != log {
				t.Errorf("read-only commit logged: %+v -> %+v", log, after)
			}
			if after := e.Manager().NVM().Stats(); after != dev {
				t.Errorf("read-only commit touched NVM: %+v -> %+v", dev, after)
			}
			if after := e.CkptStats(); after != ckpt {
				t.Errorf("read-only commit paced: %+v -> %+v", ckpt, after)
			}
			if after := opportunities(); after != opp {
				t.Errorf("read-only commit passed fault sites: %v -> %v", opp, after)
			}
		})
	}
}

// TestDirectGroupCommit: on NVM Direct a CommitNoFlush mark becomes
// durable at the next flush of the tail. Crashed before it, the insert is
// a loser, and recovery undoes the bytes the tree stored in place from the
// undo record the write barrier made durable before the store. An insert
// that FlushWAL made durable survives, and that flush's round cut the log.
func TestDirectGroupCommit(t *testing.T) {
	e := openEngine(t, core.DirectNVM)
	tr, _ := e.CreateTree(1, testPayload, btree.LayoutSorted)
	mustInsert(t, e, tr, 1, 2, 3)

	log := e.Log().Stats()
	e.Begin()
	if err := tr.Insert(4, pay(4)); err != nil {
		t.Fatal(err)
	}
	if err := e.CommitNoFlush(); err != nil {
		t.Fatal(err)
	}
	checkKey(t, tr, 4, true) // stored in place
	if after := e.Log().Stats(); after.Undos != log.Undos+1 || after.Flushes != log.Flushes+1 {
		t.Fatalf("log %+v -> %+v, want one undo record and only the barrier's flush", log, after)
	}
	st, err := e.CrashRestart()
	if err != nil {
		t.Fatal(err)
	}
	if st.Losers != 1 || st.Undone != 1 {
		t.Fatalf("recovery %+v, want the unflushed commit's in-place insert undone", st)
	}
	tr = e.Tree(1)
	checkKey(t, tr, 4, false)
	for k := uint64(1); k <= 3; k++ {
		checkKey(t, tr, k, true)
	}
	if n, err := tr.Count(); err != nil || n != 3 {
		t.Fatalf("Count = %d, %v after recovery, want 3", n, err)
	}

	ckpt := e.CkptStats()
	e.Begin()
	if err := tr.Insert(5, pay(5)); err != nil {
		t.Fatal(err)
	}
	if err := e.CommitNoFlush(); err != nil {
		t.Fatal(err)
	}
	if n, err := e.FlushWAL(); err != nil || n != 1 {
		t.Fatalf("FlushWAL = %d, %v, want the one commit", n, err)
	}
	if c := e.CkptStats(); c.Rounds != ckpt.Rounds+1 || c.Truncations != ckpt.Truncations+1 || e.Log().Bytes() != 0 {
		t.Fatalf("CkptStats %+v -> %+v with %d log bytes, want one round that cut the log", ckpt, c, e.Log().Bytes())
	}
	if _, err := e.CrashRestart(); err != nil {
		t.Fatal(err)
	}
	checkKey(t, e.Tree(1), 5, true)
}

func TestRecoveryAcrossManyTransactions(t *testing.T) {
	e := openEngine(t, core.ThreeTier)
	tr, _ := e.CreateTree(1, testPayload, btree.LayoutSorted)

	present := make(map[uint64]bool)
	for i := uint64(0); i < 300; i++ {
		e.Begin()
		if err := tr.Insert(i, pay(i)); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if err := e.Rollback(); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := e.Commit(); err != nil {
				t.Fatal(err)
			}
			present[i] = true
		}
	}
	if _, err := e.CrashRestart(); err != nil {
		t.Fatal(err)
	}
	tr = e.Tree(1)
	for i := uint64(0); i < 300; i++ {
		checkKey(t, tr, i, present[i])
	}
}

func TestCatalogCapacity(t *testing.T) {
	// The superblock holds 1 KB of catalog: 46 trees overflow it, and the
	// engine must surface the error instead of corrupting the catalog.
	e := openEngine(t, core.DRAMNVM)
	var err error
	created := 0
	for i := uint64(1); i <= 60; i++ {
		if _, err = e.CreateTree(i, 8, btree.LayoutSorted); err != nil {
			break
		}
		created++
	}
	if err == nil {
		t.Fatal("catalog accepted 60 trees in a 1 KB superblock")
	}
	if created < 40 {
		t.Fatalf("only %d trees fit, expected ~46", created)
	}
	// The engine keeps working with the trees that fit.
	tr := e.Tree(1)
	e.Begin()
	if err := tr.Insert(1, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointInsideTxRejected(t *testing.T) {
	e := openEngine(t, core.DRAMNVM)
	e.Begin()
	if err := e.Checkpoint(); err == nil {
		t.Fatal("checkpoint inside a transaction accepted")
	}
	if err := e.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestNestedBeginPanics(t *testing.T) {
	e := openEngine(t, core.DRAMNVM)
	e.Begin()
	defer func() {
		if recover() == nil {
			t.Fatal("nested Begin did not panic")
		}
	}()
	e.Begin()
}

func TestRollbackWithoutTx(t *testing.T) {
	e := openEngine(t, core.DRAMNVM)
	if err := e.Rollback(); !errors.Is(err, ErrNoTransaction) {
		t.Fatalf("err = %v", err)
	}
	if err := e.Commit(); !errors.Is(err, ErrNoTransaction) {
		t.Fatalf("err = %v", err)
	}
}

func TestAbortedTxSurvivesLaterCommitsOnSameKey(t *testing.T) {
	// Regression for the CLR bug the recovery fuzz found: an aborted
	// insert of key K followed by a committed insert of K must keep K
	// after crash recovery.
	e := openEngine(t, core.DRAMNVM)
	tr, _ := e.CreateTree(1, testPayload, btree.LayoutSorted)

	e.Begin()
	if err := tr.Insert(7, pay(99)); err != nil {
		t.Fatal(err)
	}
	if err := e.Rollback(); err != nil {
		t.Fatal(err)
	}
	mustInsert(t, e, tr, 7) // committed insert of the same key

	if _, err := e.CrashRestart(); err != nil {
		t.Fatal(err)
	}
	tr = e.Tree(1)
	checkKey(t, tr, 7, true)
}
