package bench

import (
	"fmt"
	"io"
	"slices"
	"strings"
)

// Claim is one counted claim of the paper's evaluation: the experiment
// that regenerates its figure, the claim in the paper's words, and a
// check over the counts the experiment records in Result.Values. Device
// loads, read requests, line writes, simulated device time and restart
// work are counts of a seeded run on simulated devices over a fixed
// number of operations, so a claim's verdict does not depend on the
// host's speed; timed claims (Fig. 12's and Fig. 13's crossovers, repl's
// scaling) stay prose in EXPERIMENTS.md.
type Claim struct {
	ID   string // experiment id, e.g. "fig10"
	Text string
	// Check reports whether the claim holds on the counts read through
	// c, and the numbers it decided on.
	Check func(c *counts) (ok bool, detail string)
	// Known, when set, names the ROADMAP item that owns a failure of
	// this claim the reproduction already reports. The row prints ✗
	// without failing TestClaims.
	Known string
}

// Verdict is one claim checked against one result.
type Verdict struct {
	Claim
	OK     bool
	Detail string
}

// counts reads a result's Values for a claim's check and remembers the
// names it asked for that the result lacks: a claim over a missing
// count fails.
type counts struct {
	r       Result
	missing []string
}

// get returns the count of the given name (see key).
func (c *counts) get(series, count string) float64 { return c.value(key(series, count)) }

// at returns the count taken at x (see keyAt).
func (c *counts) at(series, count string, x float64) float64 {
	return c.value(keyAt(series, count, x))
}

func (c *counts) value(name string) float64 {
	v, ok := c.r.Values[name]
	if !ok {
		c.missing = append(c.missing, name)
	}
	return v
}

// xs returns the sweep points of the named series, empty if it has none.
func (c *counts) xs(series string) []float64 {
	for _, s := range c.r.Series {
		if s.Name == series {
			return s.X
		}
	}
	return nil
}

// Claims checks every claim of the result's experiment, in table order.
func (r Result) Claims() []Verdict {
	var out []Verdict
	for _, cl := range claims {
		if cl.ID != r.ID {
			continue
		}
		c := &counts{r: r}
		ok, detail := cl.Check(c)
		if len(c.missing) > 0 {
			ok, detail = false, "missing "+strings.Join(c.missing, ", ")
		}
		out = append(out, Verdict{Claim: cl, OK: ok, Detail: detail})
	}
	return out
}

// FormatClaims prints one line per verdict: ✓ or ✗, the experiment, the
// claim and the numbers behind the verdict.
func FormatClaims(w io.Writer, vs []Verdict) {
	for _, v := range vs {
		mark := "✓"
		if !v.OK {
			mark = "✗"
			if v.Known != "" {
				mark += " (known, " + v.Known + ")"
			}
		}
		fmt.Fprintf(w, "claim %s %s: %s — %s\n", mark, v.ID, v.Text, v.Detail)
	}
	if len(vs) > 0 {
		fmt.Fprintln(w)
	}
}

// The series names the claims read: the architectures' String names
// and the experiments' own lines.
const (
	mainMemory = "Main Memory"
	threeTier  = "3 Tier BM"
	basicNVM   = "Basic NVM BM"
	nvmDirect  = "NVM Direct"
	ssdBM      = "SSD BM"
	fpTree     = "FPTree"
	hashLeaves = "3 Tier BM \\w hashing"
	duel       = "Admission duel"
	always     = "Always admit"
)

// every reports whether ok holds at each x, and the details joined.
func every(xs []float64, ok func(x float64) (bool, string)) (bool, string) {
	all := len(xs) > 0
	var parts []string
	for _, x := range xs {
		good, d := ok(x)
		all = all && good
		parts = append(parts, d)
	}
	return all, strings.Join(parts, "; ")
}

// lastX returns the largest sweep point of a series, 0 if it has none.
func lastX(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Max(xs)
}

// claims is the table of the paper's counted claims, in paper order. It
// is the only place a figure's claim is checked: nvmbench prints each
// row after its experiment, and TestClaims runs every experiment once
// and requires every row without a Known item to hold.
var claims = []Claim{
	{ID: "fig8", Text: "in the DRAM area (1 unit) the systems that buffer in DRAM load nothing from a device and charge Main Memory's device time; NVM Direct, reading NVM in place, charges more",
		Check: func(c *counts) (bool, string) {
			mm := c.at(mainMemory, "sim-ns/op", 1)
			ok := c.at(nvmDirect, "sim-ns/op", 1) > mm
			detail := fmt.Sprintf("MM %.0f sim-ns/op, ND %.0f", mm, c.at(nvmDirect, "sim-ns/op", 1))
			for _, s := range []string{threeTier, basicNVM, ssdBM} {
				loads, sim := c.at(s, "device loads", 1), c.at(s, "sim-ns/op", 1)
				ok = ok && loads == 0 && sim == mm
				detail += fmt.Sprintf(", %s %.0f loads %.0f sim-ns/op", s, loads, sim)
			}
			return ok, detail
		}},
	{ID: "fig8", Text: "in the NVM area (6 units) 3 Tier BM < NVM Direct < Basic NVM BM in device time per lookup",
		Check: func(c *counts) (bool, string) {
			t, d, b := c.at(threeTier, "sim-ns/op", 6), c.at(nvmDirect, "sim-ns/op", 6), c.at(basicNVM, "sim-ns/op", 6)
			return t < d && d < b, fmt.Sprintf("3T %.0f < ND %.0f < BN %.0f sim-ns/op", t, d, b)
		}},
	{ID: "fig8", Text: "past NVM (14 units) 3 Tier BM's device time per lookup is below SSD BM's",
		Check: func(c *counts) (bool, string) {
			t, s := c.at(threeTier, "sim-ns/op", 14), c.at(ssdBM, "sim-ns/op", 14)
			return t < s, fmt.Sprintf("3T %.0f < SB %.0f sim-ns/op (%.1fx)", t, s, s/t)
		}},
	{ID: "fig8", Text: "Main Memory ends at DRAM (2 units), Basic NVM BM and NVM Direct at NVM (10); 3 Tier BM and SSD BM run past NVM",
		Check: func(c *counts) (bool, string) {
			mm, b, d := lastX(c.xs(mainMemory)), lastX(c.xs(basicNVM)), lastX(c.xs(nvmDirect))
			t, s := lastX(c.xs(threeTier)), lastX(c.xs(ssdBM))
			return mm > 0 && mm <= 2 && b > 0 && b <= 10 && d > 0 && d <= 10 && t > 10 && s > 10,
				fmt.Sprintf("last points: MM %g, BN %g, ND %g, 3T %g, SB %g", mm, b, d, t, s)
		}},
	{ID: "fig10", Text: "cache-line-grained pages load ≥ 25× fewer NVM lines than the basic NVM BM",
		Check: func(c *counts) (bool, string) {
			f := c.get(basicNVM, "NVM lines loaded") / c.get("+ Cache-line pages", "NVM lines loaded")
			return f >= 25, fmt.Sprintf("%.1fx", f)
		}},
	{ID: "fig10", Text: "mini pages load ≥ 50× fewer NVM lines than the basic NVM BM",
		Check: func(c *counts) (bool, string) {
			f := c.get(basicNVM, "NVM lines loaded") / c.get("+ Mini pages", "NVM lines loaded")
			return f >= 50, fmt.Sprintf("%.1fx", f)
		}},
	{ID: "fig10", Text: "mini pages load fewer lines than cache-line pages, in no more read requests per line",
		Check: func(c *counts) (bool, string) {
			cl, clReq := c.get("+ Cache-line pages", "NVM lines loaded"), c.get("+ Cache-line pages", "read requests")
			mini, miniReq := c.get("+ Mini pages", "NVM lines loaded"), c.get("+ Mini pages", "read requests")
			return mini < cl && miniReq*cl <= clReq*mini,
				fmt.Sprintf("%.0f < %.0f lines, %.3f <= %.3f requests/line", mini, cl, miniReq/mini, clReq/cl)
		}},
	{ID: "fig10", Text: "pointer swizzling bypasses the page table: ≥ 95% of the DRAM fixes follow a swizzled reference",
		Check: func(c *counts) (bool, string) {
			const sw = "+ Pointer swizzling"
			hits, table := c.get(sw, "swizzle hits"), c.get(sw, "table hits")
			f := hits / (hits + table)
			return f >= 0.95, fmt.Sprintf("%.0f of %.0f DRAM fixes (%.1f%%); mini pages alone: %.0f table lookups",
				hits, hits+table, 100*f, c.get("+ Mini pages", "table hits"))
		}},
	{ID: "fig11", Text: "with hash leaves the three-tier BM is competitive with the FPTree at reduced DRAM: device time per lookup within 5% of FPTree's at 40% and 10%",
		Known: "item 12",
		Check: func(c *counts) (bool, string) {
			ft := c.get(fpTree, "sim-ns/op")
			return every([]float64{40, 10}, func(x float64) (bool, string) {
				h := c.at(hashLeaves, "sim-ns/op", x)
				return h <= 1.05*ft, fmt.Sprintf("%g%%: %.0f vs FPTree %.0f sim-ns/op (%+.0f%%)", x, h, ft, 100*(h/ft-1))
			})
		}},
	{ID: "fig13", Text: "3 Tier BM's device time per lookup is below Basic NVM BM's at every DRAM size under 100%",
		Check: func(c *counts) (bool, string) {
			xs := slices.DeleteFunc(slices.Clone(c.xs(threeTier)), func(x float64) bool { return x >= 100 })
			return every(xs, func(x float64) (bool, string) {
				t, b := c.at(threeTier, "sim-ns/op", x), c.at(basicNVM, "sim-ns/op", x)
				return t < b, fmt.Sprintf("%g%%: %.0f < %.0f", x, t, b)
			})
		}},
	{ID: "fig13", Text: "3 Tier BM's device time per lookup falls as the DRAM buffer grows",
		Check: func(c *counts) (bool, string) {
			xs := c.xs(threeTier)
			ok := len(xs) > 1
			var parts []string
			for i, x := range xs {
				v := c.at(threeTier, "sim-ns/op", x)
				if i > 0 && v >= c.at(threeTier, "sim-ns/op", xs[i-1]) {
					ok = false
				}
				parts = append(parts, fmt.Sprintf("%g%%: %.0f", x, v))
			}
			return ok, strings.Join(parts, ", ")
		}},
	{ID: "fig16", Text: "buffer management reduces the wear: 3 Tier BM writes fewer NVM lines in total than NVM Direct",
		Check: func(c *counts) (bool, string) {
			t, d := c.get(threeTier, "line writes"), c.get(nvmDirect, "line writes")
			return t < d, fmt.Sprintf("%.0f < %.0f line writes (%.2fx)", t, d, t/d)
		}},
	{ID: "fig16", Text: "and levels it: 3 Tier BM's hottest cache line is written at most 3 times",
		Check: func(c *counts) (bool, string) {
			t := c.get(threeTier, "peak writes/line")
			return t <= 3, fmt.Sprintf("3T %.0f, ND %.0f writes on the hottest line", t, c.get(nvmDirect, "peak writes/line"))
		}},
	{ID: "fig17", Text: "NVM Direct restarts instantly: its restart costs no more device time than any other system's",
		Check: func(c *counts) (bool, string) {
			d := c.get(nvmDirect, "restart sim-ns")
			ok := true
			detail := fmt.Sprintf("ND %.0f ns", d)
			for _, s := range []string{threeTier, basicNVM, ssdBM, fpTree} {
				v := c.get(s, "restart sim-ns")
				ok = ok && d <= v
				detail += fmt.Sprintf(", %s %.0f", s, v)
			}
			return ok, detail
		}},
	{ID: "fig17", Text: "3 Tier BM rebuilds its mapping table at restart: more restart work than Basic NVM BM, less than the FPTree's leaf scan",
		Check: func(c *counts) (bool, string) {
			t, b, f := c.get(threeTier, "restart sim-ns"), c.get(basicNVM, "restart sim-ns"), c.get(fpTree, "restart sim-ns")
			return b < t && t < f, fmt.Sprintf("BN %.0f < 3T %.0f < FPTree %.0f restart sim-ns", b, t, f)
		}},
	{ID: "ablation", Text: "pages evicted once must not pollute NVM: at every scan share the duel admits no more pages than always-admit",
		Check: func(c *counts) (bool, string) {
			return every(c.xs(duel), func(x float64) (bool, string) {
				d, a := c.at(duel, "NVM admissions", x), c.at(always, "NVM admissions", x)
				return d <= a, fmt.Sprintf("%g%%: %.0f <= %.0f", x, d, a)
			})
		}},
	{ID: "ablation", Text: "at every scan share the duel reads no more SSD pages than always-admit",
		Known: "item 11",
		Check: func(c *counts) (bool, string) {
			return every(c.xs(duel), func(x float64) (bool, string) {
				d, a := c.at(duel, "SSD reads", x), c.at(always, "SSD reads", x)
				return d <= a, fmt.Sprintf("%g%%: %.0f <= %.0f", x, d, a)
			})
		}},
	{ID: "ablation", Text: "at every scan share the duel copies under half the admission lines always-admit copies",
		Check: func(c *counts) (bool, string) {
			return every(c.xs(duel), func(x float64) (bool, string) {
				d, a := c.at(duel, "NVM lines nvm-admit", x), c.at(always, "NVM lines nvm-admit", x)
				return 2*d < a, fmt.Sprintf("%g%%: %.0f < %.0f / 2", x, d, a)
			})
		}},
}
