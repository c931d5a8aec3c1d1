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
// and see what the storage layer does. Exit codes: 2 for usage errors, 1
// for runtime errors, 0 on success.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"nvmstore/internal/btree"
	"nvmstore/internal/core"
	"nvmstore/internal/engine"
	"nvmstore/internal/tpcc"
	"nvmstore/internal/ycsb"
)

const usage = `usage: nvmstore <command> [flags]

commands:
  ycsb    run a YCSB preset workload (flags: -arch -rows -preset -ops -dram -nvm -ssd)
  tpcc    run the TPC-C mix (flags: -arch -warehouses -tx -dram -nvm -ssd)
  archs   list storage architectures
`

// usageError is an error in the command line, reported with exit code 2.
type usageError struct{ error }

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one command line and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		args = []string{""}
	}
	var err error
	switch args[0] {
	case "ycsb":
		err = runYCSB(args[1:], stdout)
	case "tpcc":
		err = runTPCC(args[1:], stdout)
	case "archs":
		for _, t := range core.Topologies() {
			fmt.Fprintf(stdout, "  %-8s %s\n", t.Name(), t)
		}
	default:
		fmt.Fprint(stderr, usage)
		return 2
	}
	if err == nil {
		return 0
	}
	fmt.Fprintln(stderr, "nvmstore:", err)
	if errors.As(err, new(usageError)) {
		return 2
	}
	return 1
}

// capacityFlags registers the shared device-capacity flags (in MB).
func capacityFlags(fs *flag.FlagSet) (arch *string, dram, nvmMB, ssdMB *int64) {
	arch = fs.String("arch", "3tier", "architecture: 3tier, mem, direct, basic, ssd")
	dram = fs.Int64("dram", 64, "DRAM buffer pool in MB (0 = unlimited)")
	nvmMB = fs.Int64("nvm", 320, "NVM capacity in MB")
	ssdMB = fs.Int64("ssd", 1600, "SSD capacity in MB")
	return
}

func openEngine(arch string, dram, nvmMB, ssdMB int64) (*engine.Engine, error) {
	topo, err := core.ParseTopology(arch)
	if err != nil {
		return nil, usageError{err}
	}
	return engine.Open(engine.DefaultConfig(topo, dram<<20, nvmMB<<20, ssdMB<<20))
}

func report(w io.Writer, e *engine.Engine, ops int, wall, sim time.Duration) {
	total := wall + sim
	fmt.Fprintf(w, "\n%d transactions in %v wall + %v simulated device time\n", ops, wall.Round(time.Millisecond), sim.Round(time.Millisecond))
	fmt.Fprintf(w, "throughput: %.0f tx/s (combined time)\n", float64(ops)/total.Seconds())
	st := e.Manager().Stats()
	fmt.Fprintf(w, "buffer: %d fixes (%d swizzled), %d DRAM evictions, %d NVM admissions, %d NVM denials, %d NVM evictions\n",
		st.Fixes, st.SwizzleHits, st.DRAMEvictions, st.NVMAdmissions, st.NVMDenials, st.NVMEvictions)
	nd := e.Manager().NVM().Stats()
	fmt.Fprintf(w, "NVM: %d lines read (%d charged), %d lines flushed, total line writes %d\n",
		nd.LinesRead, nd.LinesReadCharged, nd.LinesFlushed, e.Manager().NVM().TotalWrites())
	if ssd := e.Manager().SSD(); ssd != nil {
		sd := ssd.Stats()
		fmt.Fprintf(w, "SSD: %d pages read, %d pages written\n", sd.PagesRead, sd.PagesWritten)
	}
	ld := e.Log().Stats()
	fmt.Fprintf(w, "log: %d records, %d commits, %d flushes, %d truncations\n", ld.Records, ld.Commits, ld.Flushes, ld.Truncates)
}

func runYCSB(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ycsb", flag.ExitOnError)
	arch, dram, nvmMB, ssdMB := capacityFlags(fs)
	rows := fs.Int("rows", 50000, "rows to load (1 kB each)")
	preset := fs.String("preset", "C", "YCSB workload preset: A, B, C, D, or E")
	ops := fs.Int("ops", 100000, "transactions to run")
	_ = fs.Parse(args)
	// Checked before the load, which takes far longer than the check.
	if len(*preset) != 1 || !strings.Contains("ABCDE", *preset) {
		return usageError{fmt.Errorf("unknown YCSB preset %q: want one of A, B, C, D, E", *preset)}
	}
	p := ycsb.Preset((*preset)[0])

	e, err := openEngine(*arch, *dram, *nvmMB, *ssdMB)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "loading %d YCSB rows into %s...\n", *rows, e.Topology())
	w, err := ycsb.Load(e, *rows, btree.LayoutSorted, 0.66, ycsb.Partition{})
	if err != nil {
		return fmt.Errorf("load: %w", err)
	}
	e.Manager().ResetStats()
	e.Manager().NVM().ResetStats()
	start := time.Now()
	simStart := e.Clock().Ns()
	for i := 0; i < *ops; i++ {
		if err := w.Run(p); err != nil {
			return err
		}
	}
	report(stdout, e, *ops, time.Since(start), time.Duration(e.Clock().Ns()-simStart))
	return nil
}

func runTPCC(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tpcc", flag.ExitOnError)
	arch, dram, nvmMB, ssdMB := capacityFlags(fs)
	warehouses := fs.Int("warehouses", 2, "TPC-C scale factor")
	items := fs.Int("items", 10000, "item table size")
	customers := fs.Int("customers", 300, "customers per district")
	txCount := fs.Int("tx", 20000, "transactions to run")
	_ = fs.Parse(args)

	e, err := openEngine(*arch, *dram, *nvmMB, *ssdMB)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "loading TPC-C with %d warehouses into %s...\n", *warehouses, e.Topology())
	w, err := tpcc.New(e, tpcc.Config{
		Warehouses:               *warehouses,
		Items:                    *items,
		CustomersPerDistrict:     *customers,
		InitialOrdersPerDistrict: *customers,
	})
	if err != nil {
		return fmt.Errorf("load: %w", err)
	}
	e.Manager().ResetStats()
	e.Manager().NVM().ResetStats()
	start := time.Now()
	simStart := e.Clock().Ns()
	for i := 0; i < *txCount; i++ {
		if err := w.NextTransaction(); err != nil {
			return err
		}
	}
	wall := time.Since(start)
	sim := time.Duration(e.Clock().Ns() - simStart)
	st := w.Stats()
	fmt.Fprintf(stdout, "mix: %d new-order (%d rolled back), %d payment, %d order-status, %d delivery, %d stock-level\n",
		st.NewOrder, st.NewOrderRbk, st.Payment, st.OrderStatus, st.Delivery, st.StockLevel)
	if err := w.VerifyConsistency(); err != nil {
		return fmt.Errorf("CONSISTENCY VIOLATION: %w", err)
	}
	fmt.Fprintln(stdout, "consistency check: ok")
	report(stdout, e, *txCount, wall, sim)
	return nil
}
