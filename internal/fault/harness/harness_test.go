package harness

import (
	"sort"
	"testing"

	"nvmstore/internal/fault"
)

// TestCrashScheduleSweep is the recovery regression suite: it sweeps
// scheduled single-shot faults across every storage tier and requires
// zero invariant violations — no acknowledged
// write lost, no aborted write resurfaced, structural invariants intact
// after every recovery.
func TestCrashScheduleSweep(t *testing.T) {
	cfg := Config{Seed: 7}
	if testing.Verbose() {
		cfg.Logf = t.Logf
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("harness: %v", err)
	}
	logOpportunities(t, rep.Opportunities)
	t.Logf("points=%d crashes=%d violations=%d", rep.Points, rep.Crashes, len(rep.Violations))
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if rep.Points < 100 {
		t.Fatalf("swept %d fault points, want >= 100", rep.Points)
	}
	if rep.Crashes == 0 {
		t.Fatal("no scheduled point crashed the store; the sweep exercised nothing")
	}
}

// logOpportunities logs a sweep's opportunity counts in kind order, so
// that two -v runs diff line for line.
func logOpportunities(t *testing.T, opp map[fault.Kind]int64) {
	t.Helper()
	kinds := make([]fault.Kind, 0, len(opp))
	for k := range opp {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, k := range kinds {
		t.Logf("%s: %d opportunities", k, opp[k])
	}
}

// TestGroupCommitCrashSweep sweeps the same schedule with the workload
// running the group-commit protocol (commit without flush, shared
// log-tail flush every few transactions), including the wal.group crash
// point between a batch's commit records and its coalesced flush. The
// invariant it adds over TestCrashScheduleSweep: transactions committed
// but not yet group-flushed may be lost at a crash, but only as an
// all-or-nothing suffix — survivors form a prefix in commit order, and
// nothing acknowledged by a completed flush is ever lost.
func TestGroupCommitCrashSweep(t *testing.T) {
	cfg := Config{Seed: 11, GroupCommit: true}
	if testing.Verbose() {
		cfg.Logf = t.Logf
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("harness: %v", err)
	}
	if rep.Opportunities[fault.WALGroupCrash] == 0 {
		t.Fatal("the group-commit workload produced no wal.group opportunities; the new flush point was not exercised")
	}
	logOpportunities(t, rep.Opportunities)
	t.Logf("points=%d crashes=%d violations=%d", rep.Points, rep.Crashes, len(rep.Violations))
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if rep.Crashes == 0 {
		t.Fatal("no scheduled point crashed the store; the sweep exercised nothing")
	}
}

// TestCkptRoundCrashSweep concentrates the sweep on the ckpt.round
// site: a crash at the start of every scheduled incremental-checkpoint
// round, where some dirty pages are written back and others are not and
// the WAL has not been truncated. The invariant is the fuzzy
// checkpoint's whole claim: recovery from the intact log must
// reconstruct every acknowledged transaction exactly, no matter which
// round the crash interrupts.
func TestCkptRoundCrashSweep(t *testing.T) {
	cfg := Config{Seed: 13, Txs: 240, Kinds: []fault.Kind{fault.CkptRound}}
	if testing.Verbose() {
		cfg.Logf = t.Logf
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("harness: %v", err)
	}
	if rep.Opportunities[fault.CkptRound] == 0 {
		t.Fatal("the workload ran no incremental-checkpoint rounds; the ckpt.round site was not exercised")
	}
	t.Logf("ckpt.round: %d opportunities, points=%d crashes=%d violations=%d",
		rep.Opportunities[fault.CkptRound], rep.Points, rep.Crashes, len(rep.Violations))
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if rep.Crashes == 0 {
		t.Fatal("no scheduled ckpt.round point crashed the store; the sweep exercised nothing")
	}
}

// TestSweepDeterminism pins that a sweep is a pure function of its
// seed: same seed, same opportunity counts and crash tally.
func TestSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	small := Config{Seed: 3, PointsPerKind: 2, Txs: 30,
		Kinds: []fault.Kind{fault.NVMCrash, fault.WALFlushCrash}}
	a, err := Run(small)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(small)
	if err != nil {
		t.Fatal(err)
	}
	if a.Points != b.Points || a.Crashes != b.Crashes || len(a.Violations) != len(b.Violations) {
		t.Fatalf("non-deterministic sweep: %+v vs %+v", a, b)
	}
	for k, n := range a.Opportunities {
		if b.Opportunities[k] != n {
			t.Fatalf("opportunity count for %s drifted: %d vs %d", k, n, b.Opportunities[k])
		}
	}
}
