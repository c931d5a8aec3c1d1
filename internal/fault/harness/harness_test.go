package harness

import (
	"sort"
	"testing"

	"nvmstore"
	"nvmstore/internal/fault"
)

// sweptArchs are the architectures the sweeps run on, each with its point
// count per sweep — crash-schedule, group-commit, checkpoint-round — as
// its floor; 0 means the sweep does not run there. Config.arch says why
// Main Memory is missing.
var sweptArchs = []struct {
	arch   nvmstore.Architecture
	points [3]int
}{
	{nvmstore.ThreeTier, [3]int{135, 133, 20}},
	{nvmstore.SSDBuffer, [3]int{135, 145, 20}},
	{nvmstore.BasicNVMBuffer, [3]int{95, 105, 20}},
	{nvmstore.NVMDirect, [3]int{100, 120, 20}},
}

// The sweeps, indexes into sweptArchs' points.
const (
	crashSchedule = iota
	groupCommit
	ckptRound
)

// sweepEach runs cfg's sweep on every architecture that has a floor for
// it and requires zero violations, at least the floor's points, and at
// least one crash. check, when set, inspects the report first.
func sweepEach(t *testing.T, sweep int, cfg Config, check func(t *testing.T, rep Report)) {
	for _, a := range sweptArchs {
		floor := a.points[sweep]
		if floor == 0 {
			continue
		}
		t.Run(a.arch.String(), func(t *testing.T) {
			cfg := cfg
			cfg.arch = a.arch
			if testing.Verbose() {
				cfg.Logf = t.Logf
			}
			rep, err := Run(cfg)
			if err != nil {
				t.Fatalf("harness: %v", err)
			}
			if check != nil {
				check(t, rep)
			}
			logOpportunities(t, rep.Opportunities)
			t.Logf("points=%d crashes=%d violations=%d", rep.Points, rep.Crashes, len(rep.Violations))
			for _, v := range rep.Violations {
				t.Errorf("violation: %s", v)
			}
			if rep.Points < floor {
				t.Fatalf("swept %d fault points, want >= %d", rep.Points, floor)
			}
			if rep.Crashes == 0 {
				t.Fatal("no scheduled point crashed the store; the sweep exercised nothing")
			}
		})
	}
}

// TestCrashScheduleSweep is the recovery regression suite: it sweeps
// scheduled single-shot faults across every storage tier and requires
// zero invariant violations — no acknowledged
// write lost, no aborted write resurfaced, structural invariants intact
// after every recovery.
func TestCrashScheduleSweep(t *testing.T) {
	sweepEach(t, crashSchedule, Config{Seed: 7}, nil)
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
	sweepEach(t, groupCommit, Config{Seed: 11, GroupCommit: true}, func(t *testing.T, rep Report) {
		if rep.Opportunities[fault.WALGroupCrash] == 0 {
			t.Fatal("the group-commit workload produced no wal.group opportunities; the new flush point was not exercised")
		}
	})
}

// TestCkptRoundCrashSweep concentrates the sweep on the ckpt.round
// site: a crash at the start of every scheduled incremental-checkpoint
// round, where some dirty pages are written back and others are not and
// the WAL has not been truncated. The invariant is the fuzzy
// checkpoint's whole claim: recovery from the intact log must
// reconstruct every acknowledged transaction exactly, no matter which
// round the crash interrupts.
func TestCkptRoundCrashSweep(t *testing.T) {
	sweepEach(t, ckptRound, Config{Seed: 13, Txs: 240, Kinds: []fault.Kind{fault.CkptRound}}, func(t *testing.T, rep Report) {
		if rep.Opportunities[fault.CkptRound] == 0 {
			t.Fatal("the workload ran no incremental-checkpoint rounds; the ckpt.round site was not exercised")
		}
	})
}

// TestSweepDeterminism pins that a sweep is a pure function of its
// seed, on every swept architecture: same seed, same opportunity counts
// and crash tally.
func TestSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, arch := range sweptArchs {
		t.Run(arch.arch.String(), func(t *testing.T) {
			small := Config{Seed: 3, PointsPerKind: 2, Txs: 30,
				Kinds: []fault.Kind{fault.NVMCrash, fault.WALFlushCrash}, arch: arch.arch}
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
		})
	}
}
