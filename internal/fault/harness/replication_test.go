package harness

import (
	"fmt"
	"testing"
)

// TestReplicationCrashPromoteSweep is the replication regression suite:
// >= 100 scheduled crash, torn-batch, and promote points against a live
// primary→replica pair, requiring zero acknowledged-write losses — the
// replica converges to the primary after every injected apply crash and
// every severed or torn feed, and a promoted replica serves the full
// acked prefix while the fenced primary rejects writes with the
// classified error.
func TestReplicationCrashPromoteSweep(t *testing.T) {
	cfg := ReplicationConfig{Seed: 13}
	if testing.Short() {
		cfg.CrashPoints, cfg.NetPoints, cfg.PromotePoints = 4, 8, 6
	}
	if testing.Verbose() {
		cfg.Logf = t.Logf
	}
	rep, err := RunReplication(cfg)
	if err != nil {
		t.Fatalf("harness: %v", err)
	}
	t.Logf("points=%d crashes=%d violations=%d", rep.Points, rep.Crashes, len(rep.Violations))
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if !testing.Short() && rep.Points < 100 {
		t.Fatalf("swept %d replication points, want >= 100", rep.Points)
	}
	if rep.Crashes == 0 {
		t.Fatal("no scheduled point crashed the replica; the sweep exercised nothing")
	}
}

// TestReplicationSweepDeterminism pins that the replication sweep is a
// pure function of its seed: two runs with the same config produce the
// same schedule, crash tally, and (empty) violation list.
func TestReplicationSweepDeterminism(t *testing.T) {
	cfg := ReplicationConfig{Seed: 17, CrashPoints: 3, NetPoints: 4, PromotePoints: 3}
	var got [2]string
	for i := range got {
		rep, err := RunReplication(cfg)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		got[i] = fmt.Sprintf("points=%d crashes=%d violations=%v opp=%v",
			rep.Points, rep.Crashes, rep.Violations, rep.Opportunities)
	}
	if got[0] != got[1] {
		t.Fatalf("sweep not deterministic:\n run 1: %s\n run 2: %s", got[0], got[1])
	}
}
