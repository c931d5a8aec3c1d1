package ycsb

import (
	"fmt"
	"testing"

	"nvmstore/internal/btree"
	"nvmstore/internal/core"
)

// readCounts is what one kind of read moves on the devices: the buffer
// manager's cache-line loads and their requests, the NVM lines the device
// served, and the simulated device time.
type readCounts struct {
	linesLoaded, loadRequests, nvmLinesRead, simNs int64
}

// TestReadPathCounters pins, exactly, the device traffic of every kind of
// read — range, random-length and full scans, a count, lookups and field
// updates — on the two architectures whose leaves are read cache line by
// cache line, 3 Tier BM (through DRAM, mini pages included) and NVM Direct
// (in place), with sorted and hash leaves. The experiments' golden values
// do not cover these paths leaf by leaf, so a change that reorders a
// leaf's reads, or reads one more line, fails here: re-record only with a
// reason.
func TestReadPathCounters(t *testing.T) {
	want := map[string]readCounts{
		"3 Tier BM/sorted/ScanRange":  {3712, 1783, 3712, 949370},
		"3 Tier BM/sorted/Scan":       {1904, 888, 1904, 474480},
		"3 Tier BM/sorted/FullScan":   {11328, 5137, 11328, 2754230},
		"3 Tier BM/sorted/Count":      {697, 442, 697, 228650},
		"3 Tier BM/sorted/Lookup":     {377, 162, 377, 87450},
		"3 Tier BM/sorted/Update":     {286, 125, 286, 173330},
		"3 Tier BM/hash/ScanRange":    {47360, 185, 47360, 1507750},
		"3 Tier BM/hash/Scan":         {23040, 90, 23040, 733500},
		"3 Tier BM/hash/FullScan":     {139264, 544, 139264, 4433600},
		"3 Tier BM/hash/Count":        {73472, 287, 73472, 2339050},
		"3 Tier BM/hash/Lookup":       {677, 246, 677, 135930},
		"3 Tier BM/hash/Update":       {289, 162, 289, 190810},
		"NVM Direct/sorted/ScanRange": {0, 0, 7507, 2382510},
		"NVM Direct/sorted/Scan":      {0, 0, 3568, 1160780},
		"NVM Direct/sorted/FullScan":  {0, 0, 14832, 4596000},
		"NVM Direct/sorted/Count":     {0, 0, 2416, 1208000},
		"NVM Direct/sorted/Lookup":    {0, 0, 3520, 1618530},
		"NVM Direct/sorted/Update":    {0, 0, 3055, 1960980},
		"NVM Direct/hash/ScanRange":   {0, 0, 80321, 3683800},
		"NVM Direct/hash/Scan":        {0, 0, 38847, 1796620},
		"NVM Direct/hash/FullScan":    {0, 0, 157024, 7138740},
		"NVM Direct/hash/Count":       {0, 0, 73513, 2479400},
		"NVM Direct/hash/Lookup":      {0, 0, 3020, 1374640},
		"NVM Direct/hash/Update":      {0, 0, 2526, 1695760},
	}
	for _, topo := range []core.Topology{core.ThreeTier, core.DirectNVM} {
		for _, layout := range []btree.LeafLayout{btree.LayoutSorted, btree.LayoutHash} {
			w := loadWorkloadLayout(t, topo, 2000, layout)
			m := w.e.Manager()
			ops := []struct {
				name string
				n    int
				op   func() error
			}{
				{"ScanRange", 20, func() error { return w.ScanRange(100) }},
				{"Scan", 20, w.Scan},
				{"FullScan", 2, w.FullScan},
				{"Count", 1, func() error { _, err := w.Table().Count(); return err }},
				{"Lookup", 200, w.Lookup},
				{"Update", 200, w.Update},
			}
			for _, o := range ops {
				name := fmt.Sprintf("%v/%s/%s", topo, map[btree.LeafLayout]string{btree.LayoutSorted: "sorted", btree.LayoutHash: "hash"}[layout], o.name)
				st0, lines0, ns0 := m.Stats(), m.NVM().Stats().LinesRead, w.e.Clock().Ns()
				for i := 0; i < o.n; i++ {
					if err := o.op(); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
				st := m.Stats()
				got := readCounts{
					linesLoaded:  st.LinesLoaded - st0.LinesLoaded,
					loadRequests: st.LineLoadRequests - st0.LineLoadRequests,
					nvmLinesRead: m.NVM().Stats().LinesRead - lines0,
					simNs:        w.e.Clock().Ns() - ns0,
				}
				if got != want[name] {
					t.Errorf("%q: {%d, %d, %d, %d}, want %+v", name, got.linesLoaded, got.loadRequests, got.nvmLinesRead, got.simNs, want[name])
				}
			}
		}
	}
}
