package engine

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"nvmstore/internal/btree"
	"nvmstore/internal/core"
	"nvmstore/internal/fault"
)

// shiftPayload gives 16 entries a leaf, as on the wire stores.
const shiftPayload = 1000

func shiftRow(key uint64) []byte {
	p := make([]byte, shiftPayload)
	binary.LittleEndian.PutUint64(p, key*7+3)
	return p
}

// shiftSetup loads a two-leaf tree whose left leaf is full and whose
// right leaf, the rightmost, has room: ascending even keys 0..40 split
// the rightmost leaf 14:2 and fill the right page to [28..40]; 1 and 3
// then fill the left page. It returns the engine, the tree and the keys
// committed so far.
func shiftSetup(t *testing.T, topo core.Topology) (*Engine, *btree.Tree, []uint64) {
	t.Helper()
	e := openEngine(t, topo)
	tr, err := e.CreateTree(1, shiftPayload, btree.LayoutSorted)
	if err != nil {
		t.Fatal(err)
	}
	var keys []uint64
	for k := uint64(0); k <= 40; k += 2 {
		keys = append(keys, k)
	}
	keys = append(keys, 1, 3)
	insertEach(t, e, tr, keys)
	// Write the tree back and truncate the log, so that recovery starts
	// from the loaded tree.
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return e, tr, keys
}

// leafChain walks the live leaf chain and returns each leaf's keys.
func leafChain(t *testing.T, tr *btree.Tree) [][]uint64 {
	t.Helper()
	pid, err := tr.HeadLeaf()
	if err != nil {
		t.Fatal(err)
	}
	var chain [][]uint64
	for pid != core.InvalidPageID {
		var keys []uint64
		next, _, err := tr.VisitLeafAsOf(pid, math.MaxUint64, 0, 0, 0, func(k uint64, _ []byte) bool {
			keys = append(keys, k)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		chain = append(chain, keys)
		pid = next
	}
	return chain
}

// shiftTx inserts key in a transaction of its own, commits it and
// checkpoints, so that the window covers the shift's page images or
// force-writes, the commit's log flush and the write-back of every page
// the shift changed. It sets *acked once the commit has returned.
func shiftTx(t *testing.T, e *Engine, tr *btree.Tree, key uint64, acked *bool) {
	t.Helper()
	e.Begin()
	if err := tr.Insert(key, shiftRow(key)); err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(); err != nil {
		t.Fatal(err)
	}
	*acked = true
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

// TestRightmostShiftSurvivesCrashes crashes at every NVM flush from the
// start of a transaction whose insert shifts a full leaf's upper entries
// into the rightmost leaf, through its commit and the checkpoint that
// writes the changed pages back: on 3 Tier BM the shift is made durable by
// page images in the WAL, on NVM Direct by force-writing the pages. Key 25
// moves the left leaf's 26 into the rightmost leaf; key 27 lies between
// the leaves, moves nothing and only lowers the separator. After
// CrashRestart every acknowledged key must read back, Count must be the
// acknowledged keys (plus the in-flight one if it landed), and the leaf
// chain must hold every key once, in ascending order. A shift that logs
// no image of the sibling loses key 26. On NVM Direct the pages' stores
// go through device views, which a crash never reverts
// (nvm.Device.View), so there the points check the in-flight
// transaction's recovery, not the order of the force-writes.
func TestRightmostShiftSurvivesCrashes(t *testing.T) {
	for _, topo := range []core.Topology{core.ThreeTier, core.DirectNVM} {
		for _, c := range []struct{ key, head uint64 }{{25, 26}, {27, 27}} {
			key := c.key
			t.Run(fmt.Sprintf("%s/key%d", topo, key), func(t *testing.T) {
				// Dry run: the shift happens, and the window's flushes are
				// counted.
				e, tr, _ := shiftSetup(t, topo)
				before := leafChain(t, tr)
				inj := e.ArmFaults(&fault.Plan{}, 0)
				var acked bool
				shiftTx(t, e, tr, key, &acked)
				points := inj.NVM.Opportunities(fault.NVMCrash)
				after := leafChain(t, tr)
				if len(before) != 2 || len(before[0]) != 16 || len(after) != 2 || after[1][0] != c.head {
					t.Fatalf("no shift: leaves %v before, %v after", before, after)
				}
				if points == 0 {
					t.Fatal("the window made no NVM flush")
				}
				crashEachFlush(t, points, key, func() (*Engine, *btree.Tree, []uint64) { return shiftSetup(t, topo) })
				t.Logf("%d crash points", points)
			})
		}
	}
}

// crashEachFlush runs shiftTx(key) on a fresh setup() once for each of the
// window's points NVM flushes, crashing before that flush, then recovers
// and checks tree 1 with verifyShiftCrash.
func crashEachFlush(t *testing.T, points int64, key uint64, setup func() (*Engine, *btree.Tree, []uint64)) {
	t.Helper()
	for p := int64(0); p < points; p++ {
		plan := &fault.Plan{Rules: []fault.Rule{{Kind: fault.NVMCrash, EveryN: p + 1, Limit: 1}}}
		crashAt(t, fmt.Sprintf("point %d", p), plan, key, setup)
	}
}

// tearEachFlush is crashEachFlush with each flush torn instead, once for
// each seed from 1 to seeds: the seed sets how many of the flush's lines
// reach the medium before the crash.
func tearEachFlush(t *testing.T, points int64, seeds uint64, key uint64, setup func() (*Engine, *btree.Tree, []uint64)) {
	t.Helper()
	for p := int64(0); p < points; p++ {
		for seed := uint64(1); seed <= seeds; seed++ {
			plan := &fault.Plan{Seed: seed, Rules: []fault.Rule{{Kind: fault.NVMTornFlush, EveryN: p + 1, Limit: 1}}}
			crashAt(t, fmt.Sprintf("flush %d torn with seed %d", p, seed), plan, key, setup)
		}
	}
}

// crashAt runs shiftTx(key) on a fresh setup() under plan, recovers, and
// checks tree 1 with verifyShiftCrash.
func crashAt(t *testing.T, at string, plan *fault.Plan, key uint64, setup func() (*Engine, *btree.Tree, []uint64)) {
	t.Helper()
	e, tr, keys := setup()
	e.ArmFaults(plan, 0)
	acked := false
	crashes(func() { shiftTx(t, e, tr, key, &acked) })
	e.ArmFaults(nil, 0)
	if _, err := e.CrashRestart(); err != nil {
		t.Fatalf("%s: recovery: %v", at, err)
	}
	verifyShiftCrash(t, at, e.Tree(1), keys, key, acked)
}

func verifyShiftCrash(t *testing.T, at string, tr *btree.Tree, keys []uint64, inflight uint64, acked bool) {
	t.Helper()
	buf := make([]byte, shiftPayload)
	want := len(keys)
	if acked {
		keys = append(keys, inflight)
		want++
	}
	for _, k := range keys {
		found, err := tr.Lookup(k, buf)
		if err != nil || !found || binary.LittleEndian.Uint64(buf) != k*7+3 {
			t.Fatalf("%s: acknowledged key %d: found %v, err %v", at, k, found, err)
		}
	}
	n, err := tr.Count()
	if err != nil {
		t.Fatal(err)
	}
	landed, err := tr.Lookup(inflight, buf)
	if err != nil {
		t.Fatal(err)
	}
	if landed && !acked {
		want++
	}
	if n != want {
		t.Fatalf("%s: Count %d, want %d (in-flight key %d landed: %v)", at, n, want, inflight, landed)
	}
	chain := leafChain(t, tr)
	seen, last := 0, int64(-1)
	for _, leaf := range chain {
		for _, k := range leaf {
			if int64(k) <= last {
				t.Fatalf("%s: leaf chain %v not strictly ascending", at, chain)
			}
			last = int64(k)
			seen++
		}
	}
	if seen != want {
		t.Fatalf("%s: leaf chain holds %d keys, want %d: %v", at, seen, want, chain)
	}
}
