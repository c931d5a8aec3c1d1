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
			w, err := ycsb.Load(e, rows, btree.LayoutSorted, 0.66, ycsb.Partition{})
			if err != nil {
				return res, fmt.Errorf("ablation %s: %w", pol.name, err)
			}
			o.reseed(w)
			mix := zipfian.New(100, 77)
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
			// The counts are taken over the window's first o.Ops
			// operations, the same number for both policies.
			writes := openWriteWindow(e.Manager())
			var st core.Stats
			var split string
			m, err := measureCounted(e.Clock(), o.Ops, op, func(Measurement) {
				st, split = e.Manager().Stats(), writes.note()
			})
			if err != nil {
				return res, err
			}
			x := float64(share)
			s.X = append(s.X, x)
			s.Y = append(s.Y, m.PerSecond())
			res.Notes = append(res.Notes, fmt.Sprintf("%-14s scans %2d%%: %8.0f tx/s; first %d ops: NVM admissions %7d, denials %7d, NVM evictions %7d, SSD reads %7d",
				pol.name, share, m.PerSecond(), o.Ops, st.NVMAdmissions, st.NVMDenials, st.NVMEvictions, st.SSDLoads))
			res.Notes = append(res.Notes, fmt.Sprintf("%-14s scans %2d%%: first %d ops: %s", pol.name, share, o.Ops, split))
			res.set(keyAt(pol.name, "NVM admissions", x), float64(st.NVMAdmissions))
			res.set(keyAt(pol.name, "SSD reads", x), float64(st.SSDLoads))
			res.set(keyAt(pol.name, "NVM lines nvm-admit", x), float64(linesWrittenBy(st, "nvm-admit")))
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// linesWrittenBy returns the NVM lines st charges to the write cause of
// the given name (core.WriteCause.String).
func linesWrittenBy(st core.Stats, cause string) int64 {
	for c, n := range st.NVMLinesWrittenBy {
		if core.WriteCause(c).String() == cause {
			return n
		}
	}
	return 0
}
