// Benchmarks regenerating the paper's tables and figures, one testing.B
// benchmark per experiment, plus per-architecture micro-benchmarks of the
// core operations.
//
// The experiment benchmarks run the corresponding internal/bench runner at
// a reduced scale and report each system line's throughput as a custom
// metric (sanitized series name + "/s"), so `go test -bench=.` produces a
// compact reproduction of the whole evaluation. For the full-size sweeps
// and readable tables, use `go run ./cmd/nvmbench -experiment all`.
//
// This file lives in the external test package so it can import
// internal/bench, which itself imports nvmstore for the sharded-store
// experiments.
package nvmstore_test

import (
	"strings"
	"testing"

	"nvmstore"
	"nvmstore/internal/bench"
	"nvmstore/internal/btree"
	"nvmstore/internal/core"
	"nvmstore/internal/engine"
	"nvmstore/internal/tpcc"
	"nvmstore/internal/ycsb"
)

// benchOptions keeps experiment benchmarks in the seconds range; nvmbench
// runs the full-size versions.
func benchOptions() bench.Options {
	return bench.Options{
		Scale:  4 << 20,
		Ops:    4000,
		Warmup: 8000,
		Quick:  true,
	}
}

func metricName(series string) string {
	s := strings.NewReplacer(" ", "_", "\\w", "w", "+", "", "(", "", ")", "").Replace(series)
	return strings.Trim(s, "_") + "/s"
}

// runExperiment executes one paper experiment per benchmark iteration and
// reports the last point of every series.
func runExperiment(b *testing.B, id string) {
	exp, err := bench.Lookup(bench.Experiments(), id)
	if err != nil {
		b.Fatal(err)
	}
	var last bench.Result
	for i := 0; i < b.N; i++ {
		res, err := exp.Run(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, s := range last.Series {
		if len(s.Y) > 0 {
			b.ReportMetric(s.Y[len(s.Y)-1], metricName(s.Name))
		}
	}
}

func BenchmarkFig8YCSBDataSizes(b *testing.B)     { runExperiment(b, "fig8") }
func BenchmarkFig9TPCCWarehouses(b *testing.B)    { runExperiment(b, "fig9") }
func BenchmarkFig10DrillDown(b *testing.B)        { runExperiment(b, "fig10") }
func BenchmarkScanOverheadTable(b *testing.B)     { runExperiment(b, "scan") }
func BenchmarkFig11HybridStructures(b *testing.B) { runExperiment(b, "fig11") }
func BenchmarkFig12NVMLatency(b *testing.B)       { runExperiment(b, "fig12") }
func BenchmarkFig13DRAMRatio(b *testing.B)        { runExperiment(b, "fig13") }
func BenchmarkFig14LargeWorkloads(b *testing.B)   { runExperiment(b, "fig14") }
func BenchmarkFig15UpdateRatio(b *testing.B)      { runExperiment(b, "fig15") }
func BenchmarkFig16NVMWear(b *testing.B)          { runExperiment(b, "fig16") }
func BenchmarkFig17RestartRampUp(b *testing.B)    { runExperiment(b, "fig17") }

// Micro-benchmarks: single-operation cost per architecture. Reported ns/op
// is CPU wall time only; the sim/op metric adds the simulated device time
// charged per operation.

func microEngine(b *testing.B, topo core.Topology) (*engine.Engine, *ycsb.Workload) {
	b.Helper()
	const unit = 4 << 20
	cfg := engine.DefaultConfig(topo, 2*unit, 10*unit, 50*unit)
	cfg.WALBytes = 4 << 20
	e, err := engine.Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	w, err := ycsb.Load(e, ycsb.RowsForDataSize(6*unit), btree.LayoutSorted, 0.66, ycsb.Partition{})
	if err != nil {
		b.Fatal(err)
	}
	// The three-tier design needs many eviction cycles before the NVM
	// cache holds the hot pages: admission is a duel of load counts.
	for i := 0; i < 40000; i++ {
		if err := w.Lookup(); err != nil {
			b.Fatal(err)
		}
	}
	return e, w
}

func benchOp(b *testing.B, topo core.Topology, op func(*ycsb.Workload) error) {
	e, w := microEngine(b, topo)
	b.ResetTimer()
	simStart := e.Clock().Ns()
	for i := 0; i < b.N; i++ {
		if err := op(w); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(e.Clock().Ns()-simStart)/float64(b.N), "sim-ns/op")
}

func BenchmarkLookupMainMemory(b *testing.B) {
	// Main memory cannot hold 6 units; use 1 unit of data instead.
	const unit = 4 << 20
	cfg := engine.DefaultConfig(core.MemOnly, 0, 0, 0)
	cfg.WALBytes = 4 << 20
	e, err := engine.Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	w, err := ycsb.Load(e, ycsb.RowsForDataSize(unit), btree.LayoutSorted, 0.66, ycsb.Partition{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Lookup(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLookupThreeTier(b *testing.B) { benchOp(b, core.ThreeTier, (*ycsb.Workload).Lookup) }
func BenchmarkLookupBasicNVM(b *testing.B)  { benchOp(b, core.DRAMNVM, (*ycsb.Workload).Lookup) }
func BenchmarkLookupNVMDirect(b *testing.B) { benchOp(b, core.DirectNVM, (*ycsb.Workload).Lookup) }
func BenchmarkLookupSSDBuffer(b *testing.B) { benchOp(b, core.DRAMSSD, (*ycsb.Workload).Lookup) }

func BenchmarkUpdateThreeTier(b *testing.B) { benchOp(b, core.ThreeTier, (*ycsb.Workload).Update) }
func BenchmarkUpdateNVMDirect(b *testing.B) { benchOp(b, core.DirectNVM, (*ycsb.Workload).Update) }

func BenchmarkScanThreeTier(b *testing.B) {
	benchOp(b, core.ThreeTier, func(w *ycsb.Workload) error { return w.ScanRange(100) })
}

// BenchmarkScan50 measures a 50-row ShardedTable.Scan of the benchmark's
// wire_scan table (30 000 rows of 1000 B over 2 shards, DRAM-resident,
// loaded in key order) — the call a wire SCAN executes. leaves/scan is the
// number of leaf pages read per scan (Read.SnapshotReads).
func BenchmarkScan50(b *testing.B) {
	const (
		shards  = 2
		rows    = 30_000
		rowSize = 1000
		limit   = 50
	)
	s, err := nvmstore.OpenSharded(shards, nvmstore.Options{
		Architecture: nvmstore.ThreeTier,
		DRAMBytes:    128 << 20, NVMBytes: 320 << 20, SSDBytes: 1600 << 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	table, err := s.CreateTable(1, rowSize)
	if err != nil {
		b.Fatal(err)
	}
	const chunk = 1000
	row := make([]byte, rowSize)
	for k := uint64(0); k < rows; k += chunk {
		// Each shard commits its keys of the chunk under one Batch: one
		// transaction per row, one WAL flush per shard.
		for sh := 0; sh < shards; sh++ {
			if err := s.Batch(sh, func(st *nvmstore.Store) error {
				tab := st.Table(1)
				for key := k; key < k+chunk; key++ {
					if s.ShardFor(key) != sh {
						continue
					}
					if err := st.UpdateNoFlush(func() error { return tab.Put(key, row) }); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				b.Fatal(err)
			}
		}
		// Every batch starts from a clean pool and an empty log.
		if err := s.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
	start := func(i int) uint64 { return uint64(i) * 7919 % (rows - limit) }
	emitted := 0
	count := func(uint64, []byte) bool { emitted++; return true }

	b.ReportAllocs()
	b.ResetTimer()
	base := s.Metrics().Read.SnapshotReads
	for i := 0; i < b.N; i++ {
		if err := table.Scan(start(i), limit, 0, rowSize, count); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if emitted != limit*b.N {
		b.Fatalf("%d scans emitted %d rows", b.N, emitted)
	}
	b.ReportMetric(float64(s.Metrics().Read.SnapshotReads-base)/float64(b.N), "leaves/scan")
}

// BenchmarkTPCCThreeTier measures the TPC-C mix on the paper's three-tier
// configuration.
func BenchmarkTPCCThreeTier(b *testing.B) {
	const unit = 4 << 20
	cfg := engine.DefaultConfig(core.ThreeTier, 2*unit, 10*unit, 50*unit)
	cfg.WALBytes = 8 << 20
	e, err := engine.Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	w, err := tpcc.New(e, tpcc.Config{
		Warehouses: 5, Items: 300, CustomersPerDistrict: 20, InitialOrdersPerDistrict: 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 8000; i++ {
		if err := w.NextTransaction(); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	simStart := e.Clock().Ns()
	for i := 0; i < b.N; i++ {
		if err := w.NextTransaction(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(e.Clock().Ns()-simStart)/float64(b.N), "sim-ns/op")
}

// BenchmarkRestartScan measures the §4.4 mapping-table reconstruction: a
// clean restart of a three-tier store whose NVM cache is full. The paper
// reports reading the page identifiers of 100 GB of NVM in just under a
// second; the sim-ns/op metric is the simulated scan cost at this scale.
func BenchmarkRestartScan(b *testing.B) {
	const unit = 16 << 20
	cfg := engine.DefaultConfig(core.ThreeTier, 2*unit, 10*unit, 50*unit)
	e, err := engine.Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	w, err := ycsb.Load(e, ycsb.RowsForDataSize(8*unit), btree.LayoutSorted, 0.66, ycsb.Partition{})
	if err != nil {
		b.Fatal(err)
	}
	_ = w
	b.ResetTimer()
	simStart := e.Clock().Ns()
	for i := 0; i < b.N; i++ {
		if err := e.CleanRestart(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(e.Clock().Ns()-simStart)/float64(b.N), "sim-ns/op")
}

// BenchmarkCrashRecovery measures WAL replay: transactions are run, the
// power fails, and recovery repeats history. Reported per recovered
// transaction.
func BenchmarkCrashRecovery(b *testing.B) {
	const unit = 4 << 20
	const txs = 2000
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := engine.DefaultConfig(core.ThreeTier, 2*unit, 10*unit, 50*unit)
		cfg.StrictPersistence = true
		e, err := engine.Open(cfg)
		if err != nil {
			b.Fatal(err)
		}
		w, err := ycsb.Load(e, ycsb.RowsForDataSize(unit), btree.LayoutSorted, 0.66, ycsb.Partition{})
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < txs; j++ {
			if err := w.Update(); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		stats, err := e.CrashRestart()
		if err != nil {
			b.Fatal(err)
		}
		if stats.Committed == 0 {
			b.Fatal("nothing recovered")
		}
	}
	b.ReportMetric(float64(txs), "tx-replayed/op")
}
