// Command nvmstore runs workloads against a chosen storage architecture
// and reports throughput and device traffic.
//
// Usage:
//
//	nvmstore ycsb  -arch 3tier -rows 50000 -preset C -ops 100000
//	nvmstore tpcc  -arch direct -warehouses 4 -tx 20000
//	nvmstore archs
//
// Unlike cmd/nvmbench, which regenerates the paper's figures, this tool is
// for ad-hoc exploration: pick an architecture, a workload, and capacities,
// and see what the storage layer does.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"nvmstore/internal/btree"
	"nvmstore/internal/core"
	"nvmstore/internal/engine"
	"nvmstore/internal/tpcc"
	"nvmstore/internal/ycsb"
)

var archNames = map[string]core.Topology{
	"3tier":  core.ThreeTier,
	"mem":    core.MemOnly,
	"direct": core.DirectNVM,
	"basic":  core.DRAMNVM,
	"ssd":    core.DRAMSSD,
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "ycsb":
		runYCSB(os.Args[2:])
	case "tpcc":
		runTPCC(os.Args[2:])
	case "archs":
		for name, topo := range archNames {
			fmt.Printf("  %-8s %s\n", name, topo)
		}
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: nvmstore <command> [flags]

commands:
  ycsb    run a YCSB preset workload (flags: -arch -rows -preset -ops -dram -nvm -ssd)
  tpcc    run the TPC-C mix (flags: -arch -warehouses -tx -dram -nvm -ssd)
  archs   list storage architectures`)
	os.Exit(2)
}

// capacityFlags registers the shared device-capacity flags (in MB).
func capacityFlags(fs *flag.FlagSet) (arch *string, dram, nvmMB, ssdMB *int64) {
	arch = fs.String("arch", "3tier", "architecture: 3tier, mem, direct, basic, ssd")
	dram = fs.Int64("dram", 64, "DRAM buffer pool in MB (0 = unlimited)")
	nvmMB = fs.Int64("nvm", 320, "NVM capacity in MB")
	ssdMB = fs.Int64("ssd", 1600, "SSD capacity in MB")
	return
}

func openEngine(arch string, dram, nvmMB, ssdMB int64) *engine.Engine {
	topo, ok := archNames[arch]
	if !ok {
		fmt.Fprintf(os.Stderr, "nvmstore: unknown architecture %q (see `nvmstore archs`)\n", arch)
		os.Exit(2)
	}
	cfg := engine.DefaultConfig(topo, dram<<20, nvmMB<<20, ssdMB<<20)
	e, err := engine.Open(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nvmstore:", err)
		os.Exit(1)
	}
	return e
}

func report(e *engine.Engine, ops int, wall, sim time.Duration) {
	total := wall + sim
	fmt.Printf("\n%d transactions in %v wall + %v simulated device time\n", ops, wall.Round(time.Millisecond), sim.Round(time.Millisecond))
	fmt.Printf("throughput: %.0f tx/s (combined time)\n", float64(ops)/total.Seconds())
	st := e.Manager().Stats()
	fmt.Printf("buffer: %d fixes (%d swizzled), %d DRAM evictions, %d NVM admissions, %d NVM denials, %d NVM evictions\n",
		st.Fixes, st.SwizzleHits, st.DRAMEvictions, st.NVMAdmissions, st.NVMDenials, st.NVMEvictions)
	nd := e.Manager().NVM().Stats()
	fmt.Printf("NVM: %d lines read (%d charged), %d lines flushed, total line writes %d\n",
		nd.LinesRead, nd.LinesReadCharged, nd.LinesFlushed, e.Manager().NVM().TotalWrites())
	if ssd := e.Manager().SSD(); ssd != nil {
		sd := ssd.Stats()
		fmt.Printf("SSD: %d pages read, %d pages written\n", sd.PagesRead, sd.PagesWritten)
	}
	ld := e.Log().Stats()
	fmt.Printf("log: %d records, %d commits, %d flushes, %d truncations\n", ld.Records, ld.Commits, ld.Flushes, ld.Truncates)
}

func runYCSB(args []string) {
	fs := flag.NewFlagSet("ycsb", flag.ExitOnError)
	arch, dram, nvmMB, ssdMB := capacityFlags(fs)
	rows := fs.Int("rows", 50000, "rows to load (1 kB each)")
	preset := fs.String("preset", "C", "YCSB workload preset: A, B, C, D, or E")
	ops := fs.Int("ops", 100000, "transactions to run")
	_ = fs.Parse(args)

	e := openEngine(*arch, *dram, *nvmMB, *ssdMB)
	fmt.Printf("loading %d YCSB rows into %s...\n", *rows, e.Topology())
	w, err := ycsb.Load(e, *rows, btree.LayoutSorted)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nvmstore: load:", err)
		os.Exit(1)
	}
	p := ycsb.Preset((*preset)[0])
	e.Manager().ResetStats()
	e.Manager().NVM().ResetStats()
	start := time.Now()
	simStart := e.Clock().Ns()
	for i := 0; i < *ops; i++ {
		if err := w.Run(p); err != nil {
			fmt.Fprintln(os.Stderr, "nvmstore:", err)
			os.Exit(1)
		}
	}
	report(e, *ops, time.Since(start), time.Duration(e.Clock().Ns()-simStart))
}

func runTPCC(args []string) {
	fs := flag.NewFlagSet("tpcc", flag.ExitOnError)
	arch, dram, nvmMB, ssdMB := capacityFlags(fs)
	warehouses := fs.Int("warehouses", 2, "TPC-C scale factor")
	items := fs.Int("items", 10000, "item table size")
	customers := fs.Int("customers", 300, "customers per district")
	txCount := fs.Int("tx", 20000, "transactions to run")
	_ = fs.Parse(args)

	e := openEngine(*arch, *dram, *nvmMB, *ssdMB)
	fmt.Printf("loading TPC-C with %d warehouses into %s...\n", *warehouses, e.Topology())
	w, err := tpcc.New(e, tpcc.Config{
		Warehouses:               *warehouses,
		Items:                    *items,
		CustomersPerDistrict:     *customers,
		InitialOrdersPerDistrict: *customers,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "nvmstore: load:", err)
		os.Exit(1)
	}
	e.Manager().ResetStats()
	e.Manager().NVM().ResetStats()
	start := time.Now()
	simStart := e.Clock().Ns()
	for i := 0; i < *txCount; i++ {
		if err := w.NextTransaction(); err != nil {
			fmt.Fprintln(os.Stderr, "nvmstore:", err)
			os.Exit(1)
		}
	}
	wall := time.Since(start)
	sim := time.Duration(e.Clock().Ns() - simStart)
	st := w.Stats()
	fmt.Printf("mix: %d new-order (%d rolled back), %d payment, %d order-status, %d delivery, %d stock-level\n",
		st.NewOrder, st.NewOrderRbk, st.Payment, st.OrderStatus, st.Delivery, st.StockLevel)
	if err := w.VerifyConsistency(); err != nil {
		fmt.Fprintln(os.Stderr, "nvmstore: CONSISTENCY VIOLATION:", err)
		os.Exit(1)
	}
	fmt.Println("consistency check: ok")
	report(e, *txCount, wall, sim)
}
