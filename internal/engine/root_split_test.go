package engine

import (
	"fmt"
	"testing"

	"nvmstore/internal/btree"
	"nvmstore/internal/core"
	"nvmstore/internal/fault"
)

// The topologies that recover from a crash: the buffered ones, whose splits
// are made durable by page images in the log, and NVM Direct, which
// force-writes them.
var recoverableTopologies = []core.Topology{core.DRAMSSD, core.DRAMNVM, core.ThreeTier, core.DirectNVM}

// insertEach inserts keys, each in a transaction of its own that commits.
func insertEach(t *testing.T, e *Engine, tr *btree.Tree, keys []uint64) {
	t.Helper()
	for _, k := range keys {
		e.Begin()
		if err := tr.Insert(k, shiftRow(k)); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
		if err := e.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

func ascending(from, to uint64) []uint64 {
	var keys []uint64
	for k := from; k < to; k++ {
		keys = append(keys, k)
	}
	return keys
}

// TestRootSplitRecoversWithoutCheckpoint: a fresh tree of 16-row leaves
// that grew a level since the last checkpoint recovers every committed
// key. On the buffered topologies none of its pages was written back, the
// catalog still names the old root, logical redo of the records before the
// split descends from it, and the root record in front of the split's page
// images moves the root at its LSN.
func TestRootSplitRecoversWithoutCheckpoint(t *testing.T) {
	for _, topo := range recoverableTopologies {
		for _, n := range []uint64{16, 17, 40} {
			t.Run(fmt.Sprintf("%s/%d", topo, n), func(t *testing.T) {
				e := openEngine(t, topo)
				tr, err := e.CreateTree(1, shiftPayload, btree.LayoutSorted)
				if err != nil {
					t.Fatal(err)
				}
				keys := ascending(0, n)
				insertEach(t, e, tr, keys)
				height := tr.Height()
				if _, err := e.CrashRestart(); err != nil {
					t.Fatalf("recovery: %v", err)
				}
				tr = e.Tree(1)
				if tr.Height() != height {
					t.Fatalf("height %d after recovery, want %d", tr.Height(), height)
				}
				verifyShiftCrash(t, "after recovery", tr, keys[:n-1], keys[n-1], true)
			})
		}
	}
}

// rootSplitSetup opens an engine on topo with a tree of 16 committed keys
// in one full root leaf, checkpointed.
func rootSplitSetup(t *testing.T, topo core.Topology) (*Engine, *btree.Tree, []uint64) {
	t.Helper()
	e := openEngine(t, topo)
	tr, err := e.CreateTree(1, shiftPayload, btree.LayoutSorted)
	if err != nil {
		t.Fatal(err)
	}
	keys := ascending(0, 16)
	insertEach(t, e, tr, keys)
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return e, tr, keys
}

// rootSplitFlushes runs the transaction whose insert of key 16 splits the
// root leaf of rootSplitSetup, with its commit and checkpoint, and returns
// how many NVM flushes it makes.
func rootSplitFlushes(t *testing.T, topo core.Topology) int64 {
	t.Helper()
	e, tr, _ := rootSplitSetup(t, topo)
	inj := e.ArmFaults(&fault.Plan{}, 0)
	var acked bool
	shiftTx(t, e, tr, 16, &acked)
	points := inj.NVM.Opportunities(fault.NVMCrash)
	if tr.Height() != 2 || points == 0 {
		t.Fatalf("height %d after the insert, %d NVM flushes: no root split to crash in", tr.Height(), points)
	}
	return points
}

// TestRootSplitSurvivesCrashes crashes at every NVM flush from the start of
// the transaction whose insert splits a full root leaf, through its commit
// and the checkpoint that writes the new root back and records it in the
// superblock, on a tree of 16 keys checkpointed before. Every acknowledged
// key must read back after CrashRestart, the in-flight one at most once.
// A catalog written at the split itself fails the sweep: after a crash
// before the commit's log flush, the recovered tree descends from a root
// page no surviving byte holds. So does an old root split before the new
// root is published: on NVM Direct, whose split reaches NVM as it is
// made, a crash before the root record is durable leaves the old root
// with keys 0–13 and loses 14 and 15.
func TestRootSplitSurvivesCrashes(t *testing.T) {
	for _, topo := range recoverableTopologies {
		t.Run(topo.String(), func(t *testing.T) {
			points := rootSplitFlushes(t, topo)
			crashEachFlush(t, points, 16, func() (*Engine, *btree.Tree, []uint64) { return rootSplitSetup(t, topo) })
			t.Logf("%d crash points", points)
		})
	}
}

// TestRootSplitSurvivesTornFlushes tears each NVM flush of
// TestRootSplitSurvivesCrashes' window instead, eight times, each with a
// different share of its lines reaching the medium. The split's page
// images and its root record must reach recovery all or none: a durable
// image of the old root leaf without one of the new right leaf loses the
// two keys the split moved there, 14 and 15.
func TestRootSplitSurvivesTornFlushes(t *testing.T) {
	for _, topo := range recoverableTopologies {
		t.Run(topo.String(), func(t *testing.T) {
			points := rootSplitFlushes(t, topo)
			tearEachFlush(t, points, 8, 16, func() (*Engine, *btree.Tree, []uint64) { return rootSplitSetup(t, topo) })
			t.Logf("%d flushes torn 8 ways each", points)
		})
	}
}

// TestRootSplitToHeightThreeRecovers grows a tree of 16-row leaves from
// height 2 to 3 — at the insert of key 14 269, when the root holds as many
// separators as it can (1 019) — between a checkpoint and a crash, with committed inserts on both sides of the split: recovery
// redoes the older ones from the height-2 root the catalog names and the
// younger ones from the new root.
func TestRootSplitToHeightThreeRecovers(t *testing.T) {
	const grows = 14269 // the key whose insert splits the height-2 root
	for _, topo := range recoverableTopologies {
		t.Run(topo.String(), func(t *testing.T) {
			cfg := testConfig(topo)
			cfg.NVMBytes = 2048 * (core.PageSize + core.LineSize) // Basic NVM BM and NVM Direct hold every page
			e, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := e.CreateTree(1, shiftPayload, btree.LayoutSorted)
			if err != nil {
				t.Fatal(err)
			}
			insertEach(t, e, tr, ascending(0, grows-5))
			if err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			insertEach(t, e, tr, ascending(grows-5, grows))
			if tr.Height() != 2 {
				t.Fatalf("height %d before key %d, want 2", tr.Height(), grows)
			}
			insertEach(t, e, tr, ascending(grows, grows+5))
			if tr.Height() != 3 {
				t.Fatalf("height %d after key %d, want 3", tr.Height(), grows)
			}
			if _, err := e.CrashRestart(); err != nil {
				t.Fatalf("recovery: %v", err)
			}
			tr = e.Tree(1)
			if tr.Height() != 3 {
				t.Fatalf("height %d after recovery, want 3", tr.Height())
			}
			keys := ascending(0, grows+5)
			verifyShiftCrash(t, "after recovery", tr, keys[:len(keys)-1], keys[len(keys)-1], true)
		})
	}
}

// TestTreeCreatedWhileARootChangeWaits: a tree created after another tree
// grew a level, with no log cut between, joins the catalog as the
// superblock holds it — the grown tree's old root — and both recover.
func TestTreeCreatedWhileARootChangeWaits(t *testing.T) {
	for _, topo := range recoverableTopologies {
		t.Run(topo.String(), func(t *testing.T) {
			e := openEngine(t, topo)
			grown, err := e.CreateTree(1, shiftPayload, btree.LayoutSorted)
			if err != nil {
				t.Fatal(err)
			}
			keys := ascending(0, 20)
			insertEach(t, e, grown, keys)
			fresh, err := e.CreateTree(2, shiftPayload, btree.LayoutSorted)
			if err != nil {
				t.Fatal(err)
			}
			insertEach(t, e, fresh, keys[:5])
			if _, err := e.CrashRestart(); err != nil {
				t.Fatalf("recovery: %v", err)
			}
			verifyShiftCrash(t, "after recovery", e.Tree(1), keys[:19], keys[19], true)
			verifyShiftCrash(t, "after recovery", e.Tree(2), keys[:4], keys[4], true)
		})
	}
}

// fullRootTxs are transactions that leave the root leaf of a checkpointed
// 15-key tree of 16-row leaves full without splitting it. inflight is the
// key each adds for good, and directPairs how many (transaction, recovery)
// crash pairs TestCrashInsideRecoveryKeepsAcknowledgedKeys reaches on NVM
// Direct, the floor it asserts there. On NVM Direct, which stores in place,
// redo of "present" meets key 15 already in the full leaf, and redo of
// "absent" re-inserts 100, which the leaf no longer holds, into a leaf full
// with 101, and grows the tree.
var fullRootTxs = []struct {
	name        string
	inflight    uint64
	directPairs int
	tx          func(tr *btree.Tree) error
}{
	{"present", 15, 11, func(tr *btree.Tree) error { return tr.Insert(15, shiftRow(15)) }},
	{"absent", 101, 60, func(tr *btree.Tree) error {
		if err := tr.Insert(100, shiftRow(100)); err != nil {
			return err
		}
		if _, err := tr.Delete(100); err != nil {
			return err
		}
		return tr.Insert(101, shiftRow(101))
	}},
}

// crashes runs f and reports whether it stopped at an injected crash.
func crashes(f func()) (crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := fault.AsCrash(r); !ok {
				panic(r)
			}
			crashed = true
		}
	}()
	f()
	return false
}

// TestCrashInsideRecoveryKeepsAcknowledgedKeys crashes a transaction of
// fullRootTxs at each NVM flush p of its window (the transaction, its
// commit and the checkpoint after it; p past the window crashes right
// after the checkpoint returns), then the recovery that follows at each of
// its own NVM flushes q, then recovers cleanly: every acknowledged key
// must read back, the in-flight one at most once. A recovery whose redo
// splits the root leaf must make the split durable before its closing
// checkpoint writes the cut old root back: on NVM Direct the split reaches
// NVM as it is made, so the grown root is published before it; on the
// buffered topologies the checkpoint inside the window can write the full
// leaf back before the log is cut, and recovery logs the pages its redo
// restructured before its own checkpoint (Engine.logRestructured).
// Otherwise a crash in between restarts from the old root, cut to keys
// 0–13, and loses key 14. For "present", an upsert that descends like an
// insert splits the full leaf before it finds key 15 there; "absent" grows
// the tree whatever the upsert does.
func TestCrashInsideRecoveryKeepsAcknowledgedKeys(t *testing.T) {
	setup := func(topo core.Topology) (*Engine, *btree.Tree, []uint64) {
		e := openEngine(t, topo)
		tr, err := e.CreateTree(1, shiftPayload, btree.LayoutSorted)
		if err != nil {
			t.Fatal(err)
		}
		keys := ascending(0, 15)
		insertEach(t, e, tr, keys)
		if err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		return e, tr, keys
	}
	crashAt := func(n int64) *fault.Plan {
		return &fault.Plan{Rules: []fault.Rule{{Kind: fault.NVMCrash, EveryN: n + 1, Limit: 1}}}
	}
	// restart recovers e under plan and reports whether recovery crashed
	// and how many NVM flushes it made.
	restart := func(e *Engine, plan *fault.Plan) (crashed bool, flushes int64) {
		inj := e.ArmFaults(plan, 0)
		crashed = crashes(func() {
			if _, err := e.CrashRestart(); err != nil {
				t.Fatalf("recovery: %v", err)
			}
		})
		return crashed, inj.NVM.Opportunities(fault.NVMCrash)
	}
	for _, topo := range recoverableTopologies {
		for _, c := range fullRootTxs {
			t.Run(topo.String()+"/"+c.name, func(t *testing.T) {
				// crashTx runs c.tx and a checkpoint on a fresh tree under
				// plan and returns the engine, ready to recover, and the
				// window's NVM flushes.
				crashTx := func(plan *fault.Plan) (e *Engine, keys []uint64, acked bool, flushes int64) {
					e, tr, keys := setup(topo)
					inj := e.ArmFaults(plan, 0)
					crashes(func() {
						e.Begin()
						if err := c.tx(tr); err != nil {
							t.Fatal(err)
						}
						if err := e.Commit(); err != nil {
							t.Fatal(err)
						}
						acked = true
						if err := e.Checkpoint(); err != nil {
							t.Fatal(err)
						}
					})
					return e, keys, acked, inj.NVM.Opportunities(fault.NVMCrash)
				}
				_, _, _, points := crashTx(&fault.Plan{})
				pairs := 0
				for p := int64(0); p <= points; p++ {
					e, keys, acked, _ := crashTx(crashAt(p))
					_, flushes := restart(e, &fault.Plan{})
					verifyShiftCrash(t, fmt.Sprintf("transaction crashed at %d", p), e.Tree(1), keys, c.inflight, acked)
					for q := int64(0); q < flushes; q++ {
						at := fmt.Sprintf("transaction crashed at %d, recovery at %d", p, q)
						e, keys, acked, _ := crashTx(crashAt(p))
						if crashed, _ := restart(e, crashAt(q)); !crashed {
							t.Fatalf("%s: recovery did not crash", at)
						}
						pairs++
						restart(e, nil)
						verifyShiftCrash(t, at, e.Tree(1), keys, c.inflight, acked)
					}
				}
				floor := 1
				if topo == core.DirectNVM {
					floor = c.directPairs
				}
				if pairs < floor {
					t.Fatalf("recovery crashed at %d pairs, want at least %d", pairs, floor)
				}
				t.Logf("%d transaction crash points, %d pairs with a crashed recovery", points, pairs)
			})
		}
	}
}

// TestRecoveryLogsWhatItsRedoRestructured: a recovery whose redo splits
// more pages than DRAM has frames logs every image, each page fixed only
// while its image is copied; one whose images would overrun the log goes
// on without them. Either way recovery finishes and every committed key
// reads back. The tree's leaves hold 15 of 16 rows at the checkpoint; a
// committed transaction fills each of the first splits leaves with a key
// it deletes again and then with another, and the pages are written back
// without a log cut, as by a checkpoint that crashed before its cut. Redo
// of each first insert then meets a full leaf and splits it.
func TestRecoveryLogsWhatItsRedoRestructured(t *testing.T) {
	const splits = 32 // 65 pages: more than 16 DRAM frames, and images past a 1 MB log
	for _, topo := range []core.Topology{core.DRAMSSD, core.DRAMNVM, core.ThreeTier} {
		for _, c := range []struct {
			name     string
			walBytes int64
			logged   bool
		}{{"fits", 1 << 22, true}, {"overruns", 1 << 20, false}} {
			t.Run(topo.String()+"/"+c.name, func(t *testing.T) {
				cfg := testConfig(topo)
				cfg.WALBytes = c.walBytes
				e, err := Open(cfg)
				if err != nil {
					t.Fatal(err)
				}
				tr, err := e.CreateTree(1, shiftPayload, btree.LayoutSorted)
				if err != nil {
					t.Fatal(err)
				}
				// Ascending keys split the rightmost leaf 14:2, so leaf i
				// holds 140i, 140i+10, ..., 140i+130.
				var keys []uint64
				for k := uint64(0); k < 14*(splits+2); k++ {
					keys = append(keys, 10*k)
				}
				insertEach(t, e, tr, keys)
				for i := uint64(0); i < splits; i++ {
					keys = append(keys, 140*i+1)
				}
				insertEach(t, e, tr, keys[len(keys)-splits:])
				if err := e.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				e.Begin()
				for i := uint64(0); i < splits; i++ {
					if err := tr.Insert(140*i+2, shiftRow(140*i+2)); err != nil {
						t.Fatal(err)
					}
					if _, err := tr.Delete(140*i + 2); err != nil {
						t.Fatal(err)
					}
					if err := tr.Insert(140*i+3, shiftRow(140*i+3)); err != nil {
						t.Fatal(err)
					}
					keys = append(keys, 140*i+3)
				}
				if err := e.Commit(); err != nil {
					t.Fatal(err)
				}
				e.Manager().FlushAll()
				commits := e.Log().Stats().Commits
				if _, err := e.CrashRestart(); err != nil {
					t.Fatalf("recovery: %v", err)
				}
				if n := len(e.restructured); n <= 16 {
					t.Fatalf("redo restructured %d pages, want more than the 16 DRAM frames", n)
				}
				if logged := e.Log().Stats().Commits > commits; logged != c.logged {
					t.Fatalf("recovery logged the %d pages: %v, want %v", len(e.restructured), logged, c.logged)
				}
				verifyShiftCrash(t, "after recovery", e.Tree(1), keys[:len(keys)-1], keys[len(keys)-1], true)
			})
		}
	}
}

// TestDirectGroupRootGrowthRedoesOnce: on NVM Direct a grown root is named
// in the catalog before the old root splits in place, so redo descends from
// the tree NVM holds. tx1 inserts key 15, the right end of a root leaf of
// 14 committed keys, and commits without a flush; tx2's first barrier makes
// that mark durable, and tx2 then grows the root, splitting the old one so
// that 15 moves right. A crash before the group's FlushWAL leaves tx1 a
// winner and tx2 a loser. Redo of tx1's insert from a catalog that still
// names the old root, which holds only the left half, would store a second
// 15 in the wrong leaf: Lookup through the new root would still find one,
// Scan and Count would list it twice.
func TestDirectGroupRootGrowthRedoesOnce(t *testing.T) {
	e := openEngine(t, core.DirectNVM)
	tr, err := e.CreateTree(1, shiftPayload, btree.LayoutSorted)
	if err != nil {
		t.Fatal(err)
	}
	keys := ascending(0, 14)
	insertEach(t, e, tr, keys)
	e.Begin()
	if err := tr.Insert(15, shiftRow(15)); err != nil {
		t.Fatal(err)
	}
	if err := e.CommitNoFlush(); err != nil {
		t.Fatal(err)
	}
	e.Begin()
	for k := uint64(16); tr.Height() == 1; k++ {
		if err := tr.Insert(k, shiftRow(k)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := e.CrashRestart()
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if st.Committed == 0 || st.Losers != 1 {
		t.Fatalf("recovery %+v, want tx1 redone and tx2 undone", st)
	}
	tr = e.Tree(1)
	var got []uint64
	if err := tr.Scan(0, 0, 0, 0, func(k uint64, _ []byte) bool {
		got = append(got, k)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := append(keys, 15)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Scan after recovery = %v, want %v", got, want)
	}
	if n, err := tr.Count(); err != nil || n != len(want) {
		t.Fatalf("Count = %d, %v after recovery, want %d", n, err, len(want))
	}
}
