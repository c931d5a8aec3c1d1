package bench

import (
	"fmt"
	"sort"
	"time"

	"nvmstore/internal/btree"
	"nvmstore/internal/core"
	"nvmstore/internal/engine"
	"nvmstore/internal/ycsb"
)

// Fig12 regenerates Figure 12: YCSB-RO throughput under NVM latencies from
// 165 ns to 1800 ns (data=10, DRAM=2, NVM=10 units) for the three
// NVM-based systems. The crossover where the buffer-managed systems
// overtake NVM Direct is the paper's headline.
func Fig12(o Options) (Result, error) {
	o.applyDefaults()
	latencies := []int64{165, 300, 500, 800, 1200, 1800}
	if o.Quick {
		latencies = []int64{165, 500, 1800}
	}
	res := Result{
		ID:     "fig12",
		Title:  "NVM latency sweep (YCSB-RO, data=10, DRAM=2, NVM=10 units)",
		XLabel: "latency[ns]",
		YLabel: "tx/s",
	}
	rows := ycsb.RowsForDataSize(10 * o.Scale)
	for _, topo := range threeSystems {
		e, err := buildEngine(o, topo, 2*o.Scale, 10*o.Scale, 50*o.Scale, nil)
		if err != nil {
			return res, err
		}
		w, err := ycsb.Load(e, rows, btree.LayoutSorted, 0.66, ycsb.Partition{})
		if err != nil {
			return res, fmt.Errorf("fig12 %v: %w", topo, err)
		}
		o.reseed(w)
		// Reach cache steady state before the sweep starts.
		for i := 0; i < rows; i++ {
			if err := w.Lookup(); err != nil {
				return res, err
			}
		}
		s := Series{Name: topo.String()}
		for _, lat := range latencies {
			d := time.Duration(lat) * time.Nanosecond
			e.Manager().NVM().SetReadLatency(d)
			e.Manager().NVM().SetWriteLatency(d)
			for i := 0; i < o.Warmup/2; i++ {
				if err := w.Lookup(); err != nil {
					return res, err
				}
			}
			m, err := measure(e.Clock(), o.Ops, w.Lookup)
			if err != nil {
				return res, err
			}
			s.X = append(s.X, float64(lat))
			s.Y = append(s.Y, m.PerSecond())
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// Fig13 regenerates Figure 13: YCSB-RO throughput as the DRAM buffer grows
// from 1% to 100% of the fixed 10-unit NVM capacity.
func Fig13(o Options) (Result, error) {
	o.applyDefaults()
	ratios := []int{1, 5, 10, 20, 40, 60, 80, 100}
	if o.Quick {
		ratios = []int{1, 20, 100}
	}
	res := Result{
		ID:     "fig13",
		Title:  "DRAM buffer size sweep (YCSB-RO, data=10, NVM=10 units)",
		XLabel: "dram[%ofNVM]",
		YLabel: "tx/s",
	}
	rows := ycsb.RowsForDataSize(10 * o.Scale)
	for _, topo := range threeSystems {
		s := Series{Name: topo.String()}
		for _, ratio := range ratios {
			dram := 10 * o.Scale * int64(ratio) / 100
			if topo == core.DirectNVM {
				dram = 0
			}
			e, err := buildEngine(o, topo, dram, 10*o.Scale, 50*o.Scale, nil)
			if err != nil {
				return res, err
			}
			m, err := ycsbPoint(o, e, rows, (*ycsb.Workload).Lookup)
			if err != nil {
				return res, fmt.Errorf("fig13 %v %d%%: %w", topo, ratio, err)
			}
			s.X = append(s.X, float64(ratio))
			s.Y = append(s.Y, m.PerSecond())
			if topo == core.DirectNVM {
				// Flat by construction: one point suffices, replicate.
				for _, r2 := range ratios[1:] {
					s.X = append(s.X, float64(r2))
					s.Y = append(s.Y, m.PerSecond())
				}
				break
			}
			res.set(keyAt(s.Name, "sim-ns/op", float64(ratio)), m.first.SimPerOp())
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// Fig14 regenerates Figure 14 (appendix A.2): YCSB-RO for growing data
// sizes with NVM sized to match the data and DRAM a fifth of NVM. NVM
// Direct degrades as the CPU cache covers an ever smaller fraction.
func Fig14(o Options) (Result, error) {
	o.applyDefaults()
	sizes := []int64{10, 20, 40, 60, 80}
	if o.Quick {
		sizes = []int64{10, 40}
	}
	res := Result{
		ID:     "fig14",
		Title:  "Large workloads (YCSB-RO, NVM=data, DRAM=NVM/5)",
		XLabel: "data[units]",
		YLabel: "tx/s",
	}
	for _, topo := range threeSystems {
		s := Series{Name: topo.String()}
		for _, size := range sizes {
			nvmB := size * o.Scale * 11 / 10 // headroom over data
			e, err := buildEngine(o, topo, nvmB/5, nvmB, 2*nvmB, nil)
			if err != nil {
				return res, err
			}
			rows := ycsb.RowsForDataSize(size * o.Scale)
			m, err := ycsbPoint(o, e, rows, (*ycsb.Workload).Lookup)
			if err != nil {
				return res, fmt.Errorf("fig14 %v size %d: %w", topo, size, err)
			}
			s.X = append(s.X, float64(size))
			s.Y = append(s.Y, m.PerSecond())
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// Fig15 regenerates Figure 15 (appendix A.3): YCSB-R/W throughput as the
// update fraction grows from 0% to 100% (data=10, DRAM=2, NVM=10 units).
func Fig15(o Options) (Result, error) {
	o.applyDefaults()
	ratios := []int{0, 20, 40, 60, 80, 100}
	if o.Quick {
		ratios = []int{0, 60, 100}
	}
	res := Result{
		ID:     "fig15",
		Title:  "Update ratio sweep (YCSB-R/W, data=10, DRAM=2, NVM=10 units)",
		XLabel: "write[%]",
		YLabel: "tx/s",
	}
	rows := ycsb.RowsForDataSize(10 * o.Scale)
	for _, topo := range threeSystems {
		e, err := buildEngine(o, topo, 2*o.Scale, 10*o.Scale, 50*o.Scale, nil)
		if err != nil {
			return res, err
		}
		w, err := ycsb.Load(e, rows, btree.LayoutSorted, 0.66, ycsb.Partition{})
		if err != nil {
			return res, fmt.Errorf("fig15 %v: %w", topo, err)
		}
		o.reseed(w)
		// Reach cache steady state before the sweep starts.
		for i := 0; i < rows; i++ {
			if err := w.Lookup(); err != nil {
				return res, err
			}
		}
		s := Series{Name: topo.String()}
		for _, pct := range ratios {
			for i := 0; i < o.Warmup/2; i++ {
				if err := w.Mixed(pct); err != nil {
					return res, err
				}
			}
			m, err := measure(e.Clock(), o.Ops, func() error { return w.Mixed(pct) })
			if err != nil {
				return res, err
			}
			s.X = append(s.X, float64(pct))
			s.Y = append(s.Y, m.PerSecond())
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// Fig16 regenerates Figure 16 (appendix A.4): NVM endurance. A write-only
// YCSB run on the three-tier buffer manager and the NVM Direct engine; the
// per-cache-line write counters are sorted descending and reported at
// log-spaced ranks, together with the total write volume. Buffer
// management both reduces and levels the wear.
func Fig16(o Options) (Result, error) {
	o.applyDefaults()
	rows := ycsb.RowsForDataSize(10 * o.Scale)
	ops := o.Ops * 2
	res := Result{
		ID:     "fig16",
		Title:  "NVM wear (write-only YCSB, data=10, DRAM=2, NVM=10 units)",
		XLabel: "rank",
		YLabel: "writes",
	}
	for _, topo := range []core.Topology{core.ThreeTier, core.DirectNVM} {
		var e *engine.Engine
		var err error
		if topo == core.ThreeTier {
			e, err = buildEngine(o, topo, 2*o.Scale, 10*o.Scale, 50*o.Scale, nil)
		} else {
			e, err = buildEngine(o, topo, 0, 10*o.Scale, 0, nil)
		}
		if err != nil {
			return res, err
		}
		w, err := ycsb.Load(e, rows, btree.LayoutSorted, 0.66, ycsb.Partition{})
		if err != nil {
			return res, fmt.Errorf("fig16 %v: %w", topo, err)
		}
		o.reseed(w)
		for i := 0; i < o.Warmup; i++ {
			if err := w.Update(); err != nil {
				return res, err
			}
		}
		dev := e.Manager().NVM()
		dev.ResetWear()
		writes := openWriteWindow(e.Manager())
		for i := 0; i < ops; i++ {
			if err := w.Update(); err != nil {
				return res, err
			}
		}
		counts := dev.WearCounts()
		nonzero := make([]int, 0, len(counts))
		total := int64(0)
		for _, c := range counts {
			if c > 0 {
				nonzero = append(nonzero, int(c))
				total += int64(c)
			}
		}
		sort.Sort(sort.Reverse(sort.IntSlice(nonzero)))
		s := Series{Name: topo.String()}
		for rank := 1; rank <= len(nonzero); rank *= 4 {
			s.X = append(s.X, float64(rank))
			s.Y = append(s.Y, float64(nonzero[rank-1]))
		}
		res.Series = append(res.Series, s)
		res.Notes = append(res.Notes, fmt.Sprintf("%-12s total NVM line writes: %d, lines touched: %d, max per line: %d",
			topo.String(), total, len(nonzero), nonzero[0]))
		res.Notes = append(res.Notes, fmt.Sprintf("%-12s %s", topo.String(), writes.note()))
		res.set(key(s.Name, "line writes"), float64(total))
		res.set(key(s.Name, "peak writes/line"), float64(nonzero[0]))
	}
	return res, nil
}
