package bench

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"
)

// update rewrites the golden values of the experiments TestClaims runs:
// go test ./internal/bench -run TestClaims -update
var update = flag.Bool("update", false, "rewrite "+goldenPath+" from this run's values")

// goldenPath holds every experiment's Result.Values at tinyOptions' scale.
const goldenPath = "testdata/values.json"

// tinyOptions makes every experiment run in seconds for testing.
func tinyOptions() Options {
	return Options{
		Scale:  1 << 20, // 1 MB per "paper gigabyte"
		Ops:    400,
		Warmup: 400,
		Quick:  true,
	}
}

// TestClaims runs every experiment once at tiny scale. Each experiment's
// subtest checks that its Values equal the golden ones in goldenPath and
// that the output is well-formed — at least two series, matching X/Y
// lengths, positive values — and its "claims" subtest that every claim of
// the experiment's table rows holds, apart from rows whose failure a
// ROADMAP item owns (Claim.Known), which it logs.
func TestClaims(t *testing.T) {
	golden := readGolden(t)
	ids := map[string]bool{}
	for _, exp := range Experiments() {
		ids[exp.ID] = true
		t.Run(exp.ID, func(t *testing.T) {
			res, err := exp.Run(tinyOptions())
			if err != nil {
				t.Fatalf("%s: %v", exp.ID, err)
			}
			if *update {
				golden[exp.ID] = res.Values
			} else {
				for _, moved := range diffValues(golden[exp.ID], res.Values) {
					t.Errorf("%s value %s", exp.ID, moved)
				}
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
			vs := res.Claims()
			if len(vs) == 0 {
				return
			}
			t.Run("claims", func(t *testing.T) {
				for _, v := range vs {
					switch {
					case v.OK:
						t.Logf("✓ %s — %s", v.Text, v.Detail)
					case v.Known != "":
						t.Logf("✗ (known, %s) %s — %s", v.Known, v.Text, v.Detail)
					default:
						t.Errorf("✗ %s — %s", v.Text, v.Detail)
					}
				}
			})
		})
	}
	for _, c := range claims {
		if !ids[c.ID] {
			t.Errorf("claim %q names no experiment %q", c.Text, c.ID)
		}
	}
	if *update {
		writeGolden(t, golden)
	}
}

// readGolden loads the checked-in values, keyed by experiment id.
func readGolden(t *testing.T) map[string]map[string]float64 {
	golden := map[string]map[string]float64{}
	b, err := os.ReadFile(goldenPath)
	if err == nil {
		err = json.Unmarshal(b, &golden)
	}
	if err != nil {
		t.Fatalf("%s: %v (regenerate with -update)", goldenPath, err)
	}
	return golden
}

// writeGolden writes the values of every experiment that recorded some.
func writeGolden(t *testing.T, golden map[string]map[string]float64) {
	maps.DeleteFunc(golden, func(_ string, vs map[string]float64) bool { return len(vs) == 0 })
	b, err := json.MarshalIndent(golden, "", "  ")
	if err == nil {
		err = os.WriteFile(goldenPath, append(b, '\n'), 0o644)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// diffValues names, in key order, each value that differs between the
// golden set and a run: its old and new value, or that one side lacks it.
// The counts repeat exactly, so any difference is a change of behaviour.
func diffValues(old, got map[string]float64) []string {
	keys := make([]string, 0, len(old)+len(got))
	for k := range old {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := old[k]; !ok {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	var out []string
	for _, k := range keys {
		o, inOld := old[k]
		g, inGot := got[k]
		switch {
		case !inGot:
			out = append(out, fmt.Sprintf("%q: %v, now not recorded", k, o))
		case !inOld:
			out = append(out, fmt.Sprintf("%q: %v, not in %s", k, g, goldenPath))
		case o != g:
			out = append(out, fmt.Sprintf("%q moved: %v → %v", k, o, g))
		}
	}
	return out
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
