package bench

import (
	"fmt"

	"nvmstore/internal/btree"
	"nvmstore/internal/core"
	"nvmstore/internal/ycsb"
	"nvmstore/internal/zipfian"
)

// AblationAdmission isolates the NVM admission decision of §4.2. The paper's
// rationale: pages that are evicted from DRAM once and never return must
// not pollute the NVM cache. This experiment mixes Zipf point lookups with a
// growing share of scan transactions — each scan drags a swath of cold
// pages through DRAM exactly once — and compares the admission duel (a page
// enters a full NVM only if it came back through DRAM more often than the
// slot it would evict, core.Manager.nvmSlotFor) against an always-admit
// policy. Without the duel, scan-touched cold pages evict warm pages from
// NVM; the notes record the NVM churn behind the throughput difference.
func AblationAdmission(o Options) (Result, error) {
	o.applyDefaults()
	scanShares := []int{0, 2, 10}
	if o.Quick {
		scanShares = []int{0, 10}
	}
	res := Result{
		ID:     "ablation",
		Title:  "NVM admission ablation (YCSB lookups + scans, data=10, DRAM=2, NVM=4 units)",
		XLabel: "scan[%]",
		YLabel: "tx/s",
	}
	rows := ycsb.RowsForDataSize(10 * o.Scale)
	policies := []struct {
		name        string
		alwaysAdmit bool
	}{
		{"Admission duel", false}, // the default
		{"Always admit", true},
	}
	for _, pol := range policies {
		s := Series{Name: pol.name}
		for _, share := range scanShares {
			// NVM deliberately smaller than the data so admission
			// decisions matter.
			e, err := buildEngine(o, core.ThreeTier, 2*o.Scale, 4*o.Scale, 50*o.Scale, func(c *core.Config) {
				c.AlwaysAdmit = pol.alwaysAdmit
			})
			if err != nil {
				return res, err
			}
			w, err := ycsb.Load(e, rows, btree.LayoutSorted)
			if err != nil {
				return res, fmt.Errorf("ablation %s: %w", pol.name, err)
			}
			o.reseed(w)
			mix := zipfian.New(100, zipfian.Theta1, 77)
			op := func() error {
				if int(mix.Uint64n(100)) < share {
					return w.ScanRange(200)
				}
				return w.Lookup()
			}
			warm := o.Warmup
			if warm < rows {
				warm = rows
			}
			for i := 0; i < warm; i++ {
				if err := op(); err != nil {
					return res, err
				}
			}
			writes := openWriteWindow(e.Manager())
			m, err := measure(e.Clock(), o.Ops, op)
			if err != nil {
				return res, err
			}
			st := e.Manager().Stats()
			s.X = append(s.X, float64(share))
			s.Y = append(s.Y, m.PerSecond())
			res.Notes = append(res.Notes, fmt.Sprintf("%-14s scans %2d%%: %8.0f tx/s, NVM admissions %7d, denials %7d, NVM evictions %7d, SSD reads %7d",
				pol.name, share, m.PerSecond(), st.NVMAdmissions, st.NVMDenials, st.NVMEvictions, e.Manager().SSD().Stats().PagesRead))
			res.Notes = append(res.Notes, fmt.Sprintf("%-14s scans %2d%%: %s", pol.name, share, writes.note()))
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}
