package bench

import (
	"strings"
	"testing"
	"time"

	"nvmstore/internal/btree"
	"nvmstore/internal/core"
	"nvmstore/internal/ycsb"
)

// tinyOptions makes every experiment run in seconds for testing.
func tinyOptions() Options {
	return Options{
		Scale:  1 << 20, // 1 MB per "paper gigabyte"
		Ops:    400,
		Warmup: 400,
		Quick:  true,
	}
}

// TestAllExperimentsRun executes every experiment at tiny scale and checks
// the output is well-formed: each has at least two series, every series
// has matching X/Y lengths and positive throughput.
func TestAllExperimentsRun(t *testing.T) {
	for _, exp := range Experiments() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			res, err := exp.Run(tinyOptions())
			if err != nil {
				t.Fatalf("%s: %v", exp.ID, err)
			}
			if res.ID != exp.ID {
				t.Errorf("result id %q, want %q", res.ID, exp.ID)
			}
			if len(res.Series) < 2 {
				t.Fatalf("%s produced %d series", exp.ID, len(res.Series))
			}
			for _, s := range res.Series {
				if len(s.X) != len(s.Y) {
					t.Fatalf("%s series %q: %d X vs %d Y", exp.ID, s.Name, len(s.X), len(s.Y))
				}
				if len(s.Y) == 0 {
					// TPC-C grows during the run; at this tiny scale the
					// main-memory system legitimately runs out of DRAM
					// even at one warehouse.
					if exp.ID == "fig9" && s.Name == "Main Memory" {
						continue
					}
					t.Fatalf("%s series %q empty", exp.ID, s.Name)
				}
				for i, y := range s.Y {
					if y <= 0 {
						t.Fatalf("%s series %q point %d: non-positive value %f", exp.ID, s.Name, i, y)
					}
				}
			}
			var sb strings.Builder
			res.Format(&sb)
			if !strings.Contains(sb.String(), exp.ID) {
				t.Fatalf("formatted output missing id")
			}
		})
	}
}

// TestFig8Shape checks the load-bearing qualitative claims of Figure 8 at
// small scale: in the DRAM area the main-memory system wins; in the NVM
// area the three-tier BM beats NVM Direct, which beats the basic
// page-grained BM; the main-memory line vanishes past DRAM capacity and
// the NVM-bound systems vanish past NVM capacity.
func TestFig8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test is minutes-long at meaningful scale")
	}
	o := Options{Scale: 4 << 20, Ops: 40000, Warmup: 40000}
	res, err := Fig8(o)
	if err != nil {
		t.Fatal(err)
	}
	get := func(name string) Series {
		for _, s := range res.Series {
			if s.Name == name {
				return s
			}
		}
		t.Fatalf("series %q missing", name)
		return Series{}
	}
	at := func(s Series, x float64) (float64, bool) {
		for i := range s.X {
			if s.X[i] == x {
				return s.Y[i], true
			}
		}
		return 0, false
	}
	mem := get("Main Memory")
	tier := get("3 Tier BM")
	basic := get("Basic NVM BM")
	direct := get("NVM Direct")
	ssd := get("SSD BM")

	// DRAM area (1 unit): main memory is fastest. The four systems that
	// buffer in DRAM hold all the data there and differ only in host CPU
	// overhead, which a loaded box cannot order reliably; what is
	// deterministic is that none of them touches a device in the measured
	// window — no NVM line or page loads, no SSD reads, equal simulated
	// time — while NVM Direct, reading NVM in place, pays device time.
	for _, s := range []Series{tier, basic, direct, ssd} {
		if _, ok := at(s, 1); !ok {
			t.Fatalf("%s missing point at 1 unit", s.Name)
		}
	}
	var memSim time.Duration
	for _, topo := range fiveSystems {
		e, err := buildEngine(o, topo, 2*o.Scale, 10*o.Scale, 50*o.Scale, nil)
		if err != nil {
			t.Fatal(err)
		}
		rows := ycsb.RowsForDataSize(o.Scale)
		w, err := ycsb.Load(e, rows, btree.LayoutSorted)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < max(o.Warmup, rows); i++ {
			if err := w.Lookup(); err != nil {
				t.Fatal(err)
			}
		}
		before := e.Manager().Stats()
		m, err := measureN(e.Clock(), o.Ops, w.Lookup)
		if err != nil {
			t.Fatal(err)
		}
		after := e.Manager().Stats()
		switch topo {
		case core.MemOnly:
			memSim = m.Sim
		case core.DirectNVM:
			if m.Sim <= memSim {
				t.Errorf("at 1 unit %v charged %v of device time, Main Memory %v: in-place NVM reads cost nothing", topo, m.Sim, memSim)
			}
			continue
		}
		if lines, pages, ssdLoads := after.LinesLoaded-before.LinesLoaded, after.NVMPageLoads-before.NVMPageLoads, after.SSDLoads-before.SSDLoads; lines+pages+ssdLoads != 0 {
			t.Errorf("at 1 unit %v loaded %d NVM lines, %d NVM pages and %d SSD pages with all data in DRAM", topo, lines, pages, ssdLoads)
		}
		if m.Sim != memSim {
			t.Errorf("at 1 unit %v charged %v of device time, Main Memory %v", topo, m.Sim, memSim)
		}
	}
	// Main memory vanishes beyond DRAM.
	if _, ok := at(mem, 6); ok {
		t.Error("Main Memory produced a point beyond DRAM capacity")
	}
	// NVM area (6 units): 3-tier > direct > basic.
	tierY, _ := at(tier, 6)
	directY, _ := at(direct, 6)
	basicY, _ := at(basic, 6)
	if !(tierY > directY) {
		t.Errorf("NVM area: 3 Tier (%.0f) should beat NVM Direct (%.0f)", tierY, directY)
	}
	if !(directY > basicY) {
		t.Errorf("NVM area: NVM Direct (%.0f) should beat Basic NVM BM (%.0f)", directY, basicY)
	}
	// NVM-bound systems vanish beyond NVM capacity; 3-tier and SSD BM survive.
	if _, ok := at(direct, 14); ok {
		t.Error("NVM Direct produced a point beyond NVM capacity")
	}
	if _, ok := at(basic, 14); ok {
		t.Error("Basic NVM BM produced a point beyond NVM capacity")
	}
	tier14, ok := at(tier, 14)
	if !ok {
		t.Fatal("3 Tier BM missing beyond NVM capacity")
	}
	ssd14, ok := at(ssd, 14)
	if !ok {
		t.Fatal("SSD BM missing beyond NVM capacity")
	}
	if !(tier14 > ssd14) {
		t.Errorf("SSD area: 3 Tier (%.0f) should beat SSD BM (%.0f)", tier14, ssd14)
	}
}

func TestLookupRegistry(t *testing.T) {
	if _, err := Lookup(Experiments(), "fig8"); err != nil {
		t.Fatal(err)
	}
	if _, err := Lookup(Experiments(), "nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestRenderers(t *testing.T) {
	res := Result{
		ID: "figX", Title: "t", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Name: "a", X: []float64{1, 2, 3}, Y: []float64{10, 100, 1000}},
			{Name: "b", X: []float64{1, 3}, Y: []float64{5, 50}},
		},
	}
	var csv strings.Builder
	res.FormatCSV(&csv)
	if !strings.Contains(csv.String(), `figX,"a",2,100`) {
		t.Fatalf("csv output missing row:\n%s", csv.String())
	}
	if got := strings.Count(csv.String(), "\n"); got != 6 {
		t.Fatalf("csv rows = %d, want 6 (header + 5 points)", got)
	}
	var chart strings.Builder
	res.Chart(&chart, 40, 10)
	out := chart.String()
	if !strings.Contains(out, "o") || !strings.Contains(out, "+") {
		t.Fatalf("chart missing series marks:\n%s", out)
	}
	if !strings.Contains(out, "o=a") || !strings.Contains(out, "+=b") {
		t.Fatalf("chart missing legend:\n%s", out)
	}
	// Degenerate input must not panic.
	empty := Result{ID: "e", Series: []Series{{Name: "z"}}}
	var sb strings.Builder
	empty.Chart(&sb, 40, 10)
	if !strings.Contains(sb.String(), "no plottable data") {
		t.Fatal("empty chart not handled")
	}
}
