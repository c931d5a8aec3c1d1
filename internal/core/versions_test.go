package core

import "testing"

// TestWideningsKeptOnlyForOlderSnapshots: a leaf's widening is recorded
// only while a snapshot older than it is open, reported to exactly the
// snapshots it postdates, dropped once no such snapshot is open, and
// cleared by Reset.
func TestWideningsKeptOnlyForOlderSnapshots(t *testing.T) {
	v := newVersions()
	v.BeginTx()
	v.NoteWidened(5)
	if len(v.widened) != 0 {
		t.Fatalf("a widening with no snapshot open was recorded: %v", v.widened)
	}

	id1, s1 := v.BeginSnapshot()
	v.NoteWidened(5) // same stamp as the snapshot: not after it
	if len(v.widened) != 0 {
		t.Fatalf("a widening no snapshot predates was recorded: %v", v.widened)
	}
	v.BeginTx()
	v.NoteWidened(5)
	id2, s2 := v.BeginSnapshot()
	v.BeginTx()
	v.NoteWidened(7)
	for _, c := range []struct {
		pid  PageID
		asOf uint64
		want bool
	}{{5, s1, true}, {5, s2, false}, {7, s1, true}, {7, s2, true}, {6, s1, false}} {
		if got := v.WidenedAfter(c.pid, c.asOf); got != c.want {
			t.Errorf("WidenedAfter(%d, %d) = %v, want %v", c.pid, c.asOf, got, c.want)
		}
	}

	v.EndSnapshot(id1) // page 5's widening predates the one left open
	if _, ok := v.widened[5]; ok || !v.WidenedAfter(7, s2) {
		t.Fatalf("after closing the oldest snapshot: %v", v.widened)
	}
	v.EndSnapshot(id2)
	if len(v.widened) != 0 {
		t.Fatalf("widenings outlived every snapshot: %v", v.widened)
	}

	v.BeginSnapshot()
	v.BeginTx()
	v.NoteWidened(9)
	v.Reset()
	if len(v.widened) != 0 {
		t.Fatalf("Reset kept widenings: %v", v.widened)
	}
}
