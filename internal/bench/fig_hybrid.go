package bench

import (
	"encoding/binary"
	"fmt"
	"time"

	"nvmstore/internal/btree"
	"nvmstore/internal/core"
	"nvmstore/internal/engine"
	"nvmstore/internal/fptree"
	"nvmstore/internal/nvm"
	"nvmstore/internal/shard"
	"nvmstore/internal/simclock"
	"nvmstore/internal/zipfian"
)

// uniformKeys returns a deterministic stream of uniform keys in [0, n).
func uniformKeys(seed uint64, n int) func() uint64 {
	s := shard.Stream(seed)
	return func() uint64 { return s.Next() % uint64(n) }
}

// kvTable is the §5.5 experiment table: n 8-byte key/value pairs in one
// tree, bulk-loaded ascending.
func kvTable(e *engine.Engine, n int, layout btree.LeafLayout) (*btree.Tree, error) {
	t, err := e.CreateTree(1, 8, layout)
	if err != nil {
		return nil, err
	}
	err = t.BulkLoad(n,
		func(i int) uint64 { return uint64(i) },
		func(i int, dst []byte) { binary.LittleEndian.PutUint64(dst, uint64(i)^0xABCD) },
		0.66)
	if err != nil {
		return nil, err
	}
	return t, e.Checkpoint()
}

// fpTable is kvTable's FPTree on an NVM device of its own, charging clk:
// n pairs bulk-loaded ascending, and a lookup of nextKey's keys.
func fpTable(o Options, clk *simclock.Clock, n int, nextKey func() uint64) (*nvm.Device, *fptree.Tree, func() error, error) {
	devSize := int64(n/fptree.LeafEntries+16) * 2048
	devCfg := nvm.DefaultConfig(devSize)
	devCfg.CPUCacheBytes = cpuCacheFor(o)
	dev := nvm.New(devCfg, clk)
	ft, err := fptree.New(dev, 0, devSize)
	if err == nil {
		err = ft.BulkLoad(n,
			func(i int) uint64 { return uint64(i) },
			func(i int) uint64 { return uint64(i) ^ 0xABCD },
			0.66)
	}
	return dev, ft, func() error {
		if _, ok := ft.Lookup(nextKey()); !ok {
			return fmt.Errorf("bench: fptree key missing")
		}
		return nil
	}, err
}

// kvLookupOp returns a lookup closure over the table with the given key
// stream.
func kvLookupOp(e *engine.Engine, t *btree.Tree, nextKey func() uint64) func() error {
	buf := make([]byte, 8)
	return func() error {
		key := nextKey()
		e.Begin()
		found, err := t.LookupField(key, 0, 8, buf)
		if err != nil {
			return err
		}
		if !found {
			return fmt.Errorf("bench: key %d missing", key)
		}
		return e.Commit()
	}
}

// Fig11 regenerates Figure 11: uniformly distributed point lookups on a
// tree of 8-byte pairs, comparing the three-tier buffer manager (sorted
// leaves), its hash-leaf variant, and the FPTree while the DRAM buffer
// shrinks from 100% to 10% of the data. A Zipf series reproduces the
// skewed-workload observation in the §5.5 text.
func Fig11(o Options) (Result, error) {
	o.applyDefaults()
	n := int(5 * o.Scale / 2 / 24) // tree of ~2.5 units
	// The DRAM axis is "percentage of pages that fit into DRAM": size the
	// 100% point by the actual page representation (673 pairs per 16 kB
	// leaf at the 0.66 fill factor, plus frames, inners, and slack).
	pages := int64(n)/673 + int64(n)/673/672 + 8
	// 15% slack: the 100% point must sit clearly above the eviction
	// boundary, or run-to-run noise flips it between an all-DRAM and a
	// constantly-evicting regime.
	dataBytes := pages * (core.PageSize + 2*core.LineSize) * 23 / 20
	ratios := []int{100, 80, 60, 40, 20, 10}
	if o.Quick {
		ratios = []int{100, 40, 10}
	}
	res := Result{
		ID:     "fig11",
		Title:  fmt.Sprintf("Hybrid DRAM-NVM structures (uniform lookups, %d 8-byte pairs)", n),
		XLabel: "dram[%ofdata]",
		YLabel: "op/s",
	}

	type variant struct {
		name   string
		layout btree.LeafLayout
		zipf   bool
	}
	variants := []variant{
		{"3 Tier BM \\w hashing", btree.LayoutHash, false},
		{"3 Tier BM", btree.LayoutSorted, false},
		{"3 Tier BM (Zipf)", btree.LayoutSorted, true},
	}
	for _, v := range variants {
		s := Series{Name: v.name}
		for _, ratio := range ratios {
			dram := dataBytes * int64(ratio) / 100
			if dram < 8*core.PageSize {
				dram = 8 * core.PageSize
			}
			e, err := buildEngine(o, core.ThreeTier, dram, 4*o.Scale, 8*o.Scale, nil)
			if err != nil {
				return res, err
			}
			t, err := kvTable(e, n, v.layout)
			if err != nil {
				return res, fmt.Errorf("fig11 %s: %w", v.name, err)
			}
			nextKey := uniformKeys(7, n)
			if v.zipf {
				nextKey = zipfian.New(uint64(n), 11).NextScrambled
			}
			op := kvLookupOp(e, t, nextKey)
			warm := o.Warmup
			if warm < n/4 {
				warm = n / 4
			}
			for i := 0; i < warm; i++ {
				if err := op(); err != nil {
					return res, err
				}
			}
			var first Measurement
			m, err := measureCounted(e.Clock(), o.Ops, op, func(f Measurement) { first = f })
			if err != nil {
				return res, err
			}
			s.X = append(s.X, float64(ratio))
			s.Y = append(s.Y, m.PerSecond())
			res.set(keyAt(s.Name, "sim-ns/op", float64(ratio)), first.SimPerOp())
		}
		res.Series = append(res.Series, s)
	}

	// FPTree: its DRAM use is the inner structure only, independent of
	// the buffer-space axis, so its line is flat.
	clk := &simclock.Clock{}
	_, _, ftOp, err := fpTable(o, clk, n, uniformKeys(7, n))
	if err != nil {
		return res, err
	}
	for i := 0; i < o.Warmup; i++ {
		if err := ftOp(); err != nil {
			return res, err
		}
	}
	var first Measurement
	m, err := measureCounted(clk, o.Ops, ftOp, func(f Measurement) { first = f })
	if err != nil {
		return res, err
	}
	ftSeries := Series{Name: "FPTree"}
	res.set(key(ftSeries.Name, "sim-ns/op"), first.SimPerOp())
	for _, ratio := range ratios {
		ftSeries.X = append(ftSeries.X, float64(ratio))
		ftSeries.Y = append(ftSeries.Y, m.PerSecond())
	}
	res.Series = append(res.Series, ftSeries)
	return res, nil
}

// Fig17 regenerates Figure 17 (appendix A.5): throughput ramp-up after a
// clean restart for all five systems, with uniform lookups on 8-byte pairs
// that fit entirely into the buffer pool. The x axis is combined time
// after the restart; the first sample includes each system's recovery work
// (mapping-table scan for the three-tier design, full leaf scan for the
// FPTree, cold SSD reads for the traditional buffer manager).
func Fig17(o Options) (Result, error) {
	o.applyDefaults()
	n := int(o.Scale / 24) // 1 unit of data: fits DRAM (2 units)
	res := Result{
		ID:     "fig17",
		Title:  fmt.Sprintf("Restart ramp-up (uniform lookups, %d 8-byte pairs)", n),
		XLabel: "t[ms]",
		YLabel: "op/s",
	}
	bucket := o.Ops / 5
	if bucket < 200 {
		bucket = 200
	}
	const maxBuckets = 60

	ramp := func(name string, clk *simclock.Clock, op func() error, restart func() error) error {
		warm := o.Warmup
		if warm < n/4 {
			warm = n / 4
		}
		for i := 0; i < warm; i++ {
			if err := op(); err != nil {
				return err
			}
		}
		peakM, err := measure(clk, o.Ops, op)
		if err != nil {
			return err
		}
		peak := peakM.PerSecond()

		restartStart := time.Now()
		simStart := clk.Ns()
		if err := restart(); err != nil {
			return err
		}
		restartSim := clk.Ns() - simStart
		restartCost := time.Since(restartStart) + time.Duration(restartSim)
		elapsed := restartCost
		res.set(key(name, "restart sim-ns"), float64(restartSim))

		s := Series{Name: name}
		for b := 0; b < maxBuckets; b++ {
			m, err := measureN(clk, bucket, op)
			if err != nil {
				return err
			}
			elapsed += m.Wall + m.Sim
			s.X = append(s.X, float64(elapsed.Milliseconds()))
			s.Y = append(s.Y, m.PerSecond())
			// Stop near peak: with lazily promoted mini pages the last few
			// percent take long (the paper notes the same slow tail).
			if m.PerSecond() >= 0.9*peak {
				break
			}
		}
		res.Series = append(res.Series, s)
		res.Notes = append(res.Notes, fmt.Sprintf("%-14s peak %.0f op/s, restart itself took %v (the §4.4 table scan for the three-tier design, the leaf scan for the FPTree)",
			name, peak, restartCost.Round(time.Microsecond)))
		return nil
	}

	for _, topo := range []core.Topology{core.ThreeTier, core.DRAMNVM, core.DRAMSSD, core.DirectNVM} {
		dram := 2 * o.Scale
		if topo == core.DirectNVM {
			dram = 0
		}
		e, err := buildEngine(o, topo, dram, 10*o.Scale, 50*o.Scale, nil)
		if err != nil {
			return res, err
		}
		t, err := kvTable(e, n, btree.LayoutSorted)
		if err != nil {
			return res, fmt.Errorf("fig17 %v: %w", topo, err)
		}
		op := kvLookupOp(e, t, uniformKeys(3, n))
		err = ramp(topo.String(), e.Clock(), op, func() error {
			if err := e.CleanRestart(); err != nil {
				return err
			}
			t = e.Tree(1)
			return nil
		})
		if err != nil {
			return res, fmt.Errorf("fig17 %v: %w", topo, err)
		}
	}

	// FPTree: restart rebuilds the DRAM inner structure by scanning all
	// leaves.
	clk := &simclock.Clock{}
	dev, ft, ftOp, err := fpTable(o, clk, n, uniformKeys(3, n))
	if err != nil {
		return res, err
	}
	err = ramp("FPTree", clk, ftOp, func() error {
		dev.DropCPUCache()
		return ft.Rebuild()
	})
	if err != nil {
		return res, fmt.Errorf("fig17 fptree: %w", err)
	}
	return res, nil
}
