package ycsb

import (
	"bytes"
	"testing"

	"nvmstore/internal/btree"
	"nvmstore/internal/core"
	"nvmstore/internal/engine"
)

func loadWorkload(t *testing.T, topo core.Topology, rows int) *Workload {
	t.Helper()
	return loadWorkloadLayout(t, topo, rows, btree.LayoutSorted)
}

func loadWorkloadLayout(t *testing.T, topo core.Topology, rows int, layout btree.LeafLayout) *Workload {
	t.Helper()
	cfg := engine.DefaultConfig(topo,
		64*(core.PageSize+2*core.LineSize),
		4096*(core.PageSize+core.LineSize),
		16384*core.PageSize)
	cfg.WALBytes = 1 << 20
	cfg.CPUCacheBytes = -1
	e, err := engine.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := Load(e, rows, layout, 0.66, Partition{})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestLoadAndLookup(t *testing.T) {
	w := loadWorkload(t, core.ThreeTier, 2000)
	if got, _ := w.Table().Count(); got != 2000 {
		t.Fatalf("loaded %d rows, want 2000", got)
	}
	for i := 0; i < 500; i++ {
		if err := w.Lookup(); err != nil {
			t.Fatalf("lookup %d: %v", i, err)
		}
	}
	if w.Ops != 500 {
		t.Fatalf("Ops = %d, want 500", w.Ops)
	}
}

func TestRowContentDeterministic(t *testing.T) {
	w := loadWorkload(t, core.MemOnly, 100)
	buf := make([]byte, RowSize)
	found, err := w.Table().Lookup(42, buf)
	if err != nil || !found {
		t.Fatalf("Lookup(42) = %v, %v", found, err)
	}
	want := make([]byte, RowSize)
	FillRow(42, want)
	if !bytes.Equal(buf, want) {
		t.Fatal("row 42 content does not match FillRow")
	}
}

func TestUpdatePersists(t *testing.T) {
	w := loadWorkload(t, core.DRAMNVM, 500)
	for i := 0; i < 200; i++ {
		if err := w.Update(); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	// Row count unchanged; content may differ from initial fill.
	if got, _ := w.Table().Count(); got != 500 {
		t.Fatalf("count after updates = %d", got)
	}
}

func TestScan(t *testing.T) {
	w := loadWorkload(t, core.DRAMNVM, 1000)
	for i := 0; i < 50; i++ {
		if err := w.Scan(); err != nil {
			t.Fatalf("scan %d: %v", i, err)
		}
	}
}

func TestMixedRatio(t *testing.T) {
	w := loadWorkload(t, core.MemOnly, 500)
	logBefore := w.e.Log().Stats().Records
	for i := 0; i < 400; i++ {
		if err := w.Mixed(50); err != nil {
			t.Fatal(err)
		}
	}
	updates := w.e.Log().Stats().Records - logBefore
	// Each update is a one-update transaction, one folded record; lookups
	// log nothing. Expect roughly half of 400.
	if updates < 100 || updates > 300 {
		t.Fatalf("log records for 50%% mix = %d, want ~200", updates)
	}
}

func TestRowsForDataSizeLeavesHeadroom(t *testing.T) {
	// A loaded row takes 1645 bytes. RowsForDataSize deliberately leaves a
	// few percent of headroom for inner pages, so the round trip comes
	// back slightly under.
	n := RowsForDataSize(12345 * 1645)
	if n < 11500 || n > 12345 {
		t.Fatalf("RowsForDataSize(12345 rows' bytes) = %d, want slightly under 12345", n)
	}
}

func TestStandardPresets(t *testing.T) {
	for _, p := range []Preset{PresetA, PresetB, PresetC, PresetD, PresetE} {
		t.Run(string(p), func(t *testing.T) {
			w := loadWorkload(t, core.ThreeTier, 800)
			for i := 0; i < 300; i++ {
				if err := w.Run(p); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			}
			if w.Ops != 300 {
				t.Fatalf("Ops = %d", w.Ops)
			}
			cnt, err := w.Table().Count()
			if err != nil {
				t.Fatal(err)
			}
			switch p {
			case PresetD, PresetE:
				if cnt <= 800 {
					t.Fatalf("insert preset %c grew nothing: %d rows", p, cnt)
				}
			default:
				if cnt != 800 {
					t.Fatalf("preset %c changed row count: %d", p, cnt)
				}
			}
		})
	}
}

func TestUnknownPreset(t *testing.T) {
	w := loadWorkload(t, core.MemOnly, 50)
	if err := w.Run(Preset('Z')); err == nil {
		t.Fatal("unknown preset accepted")
	}
}
