// Package bench regenerates every table and figure of the paper's
// evaluation (§5 and the appendix). One function per experiment builds the
// storage engines, loads the workload, and produces a Result whose series
// correspond to the lines of the original figure.
//
// Capacities follow the paper's proportions — DRAM : NVM : SSD =
// 2 : 10 : 50 — scaled down by Options.Scale (bytes per "paper gigabyte"),
// so the crossover points fall in the same places relative to the capacity
// lines. Throughput is computed over combined time: measured CPU wall time
// plus the simulated device time accumulated by the engine's clock (see
// internal/simclock). Absolute numbers therefore differ from the paper's
// testbed, but who wins, by what factor, and where the cliffs fall is
// preserved; EXPERIMENTS.md records the comparison.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"nvmstore/internal/core"
	"nvmstore/internal/engine"
	"nvmstore/internal/fault"
	"nvmstore/internal/obs"
	"nvmstore/internal/simclock"
	"nvmstore/internal/ycsb"
)

// Options scales and sizes the experiments.
type Options struct {
	// Scale is the number of bytes representing one of the paper's
	// gigabytes (default 16 MB). DRAM/NVM/SSD capacities and data sizes
	// scale with it.
	Scale int64
	// Ops is the number of measured operations (or transactions) per
	// data point (default 30000).
	Ops int
	// Warmup is the number of operations executed before measuring, to
	// populate the caches (default: Ops).
	Warmup int
	// Quick shrinks sweeps to fewer points for smoke runs.
	Quick bool
	// Threads is the maximum shard count the multi-threaded experiments
	// sweep to (default 4). Each thread is an independent shard-per-core
	// engine instance, per Appendix A.1.
	Threads int
	// Seed, when nonzero, replaces the default base seed of the YCSB
	// random streams (nvmbench -seed), so repeated runs can draw
	// different — but individually reproducible — key sequences.
	Seed uint64
	// Obs, when non-nil, installs a latency recorder into every engine
	// the experiments build. Merged histograms land in Result.Latency.
	// Recording costs a few percent of throughput — leave nil for clean
	// performance runs.
	Obs *ObsSink
	// Faults, when non-nil, is armed on every engine the experiments
	// build (nvmbench -faults), degrading any experiment with the given
	// injection plan. Each engine gets its own injection site, so the
	// plan's probability rules apply independently per engine. Crash
	// kinds (nvm.torn, nvm.crash, wal.flush) panic the run by design —
	// throughput experiments want transient and stall kinds.
	Faults *fault.Plan
}

func (o *Options) applyDefaults() {
	if o.Scale == 0 {
		o.Scale = 16 << 20
	}
	if o.Ops == 0 {
		o.Ops = 30000
	}
	if o.Warmup == 0 {
		o.Warmup = o.Ops
	}
	if o.Threads == 0 {
		o.Threads = 4
	}
}

// Series is one line of a figure: Y[i] measured at X[i]. A NaN-free,
// possibly shorter series than the sweep means the system could not run
// the larger points (capacity limits), exactly like lines vanishing in the
// paper's figures.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Result is one regenerated table or figure.
type Result struct {
	ID     string // experiment id, e.g. "fig8"
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  []string
	// Values are the counts the experiment's claims (claims.go) rest on:
	// device loads and read requests, NVM admissions and the lines they
	// copy, line writes and peak writes per line, simulated device time
	// per operation, restart work. Each is taken over a fixed number of
	// operations, so it repeats exactly, and named by key or keyAt.
	Values map[string]float64
	// FileTag, when set, replaces ID in output file names. Experiments
	// whose results depend on an option outside the sweep (figA1 and
	// -threads) set it so repeated runs do not overwrite each other.
	FileTag string
	// Latency is the merged per-operation latency table recorded when
	// the run had Options.Obs installed; nil otherwise.
	Latency []obs.Row
	// Attribution is the tail-latency stage decomposition of the run's
	// sampled request timelines, recorded when the run traced requests
	// (remote mode with TraceSample); nil otherwise.
	Attribution *obs.Attribution
}

// Format writes the result as an aligned text table with one column per
// series, using the union of all X values as rows.
func (r Result) Format(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	xs := map[float64]bool{}
	for _, s := range r.Series {
		for _, x := range s.X {
			xs[x] = true
		}
	}
	sorted := make([]float64, 0, len(xs))
	for x := range xs {
		sorted = append(sorted, x)
	}
	sort.Float64s(sorted)

	header := []string{r.XLabel}
	for _, s := range r.Series {
		header = append(header, s.Name)
	}
	rows := [][]string{header}
	for _, x := range sorted {
		row := []string{trimFloat(x)}
		for _, s := range r.Series {
			cell := "-"
			for i := range s.X {
				if s.X[i] == x {
					cell = trimFloat(s.Y[i])
					break
				}
			}
			row = append(row, cell)
		}
		rows = append(rows, row)
	}
	widths := make([]int, len(header))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, row := range rows {
		for i, cell := range row {
			fmt.Fprintf(w, "%-*s", widths[i]+2, cell)
		}
		fmt.Fprintln(w)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
	r.FormatLatency(w)
}

// set records one of the result's named counts.
func (r *Result) set(name string, v float64) {
	if r.Values == nil {
		r.Values = make(map[string]float64)
	}
	r.Values[name] = v
}

// key names a count of a series, e.g. "3 Tier BM: line writes".
func key(series, count string) string { return series + ": " + count }

// keyAt names a count of a series taken at one point of the sweep, e.g.
// "NVM Direct: sim-ns/op @6".
func keyAt(series, count string, x float64) string {
	return key(series, count) + " @" + trimFloat(x)
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.4g", v)
	return strings.TrimSuffix(s, ".0")
}

// Measurement is one throughput sample.
type Measurement struct {
	Ops  int64
	Wall time.Duration
	Sim  time.Duration
}

// PerSecond returns operations per second of combined (wall + simulated
// device) time.
func (m Measurement) PerSecond() float64 {
	total := m.Wall + m.Sim
	if total <= 0 {
		return 0
	}
	return float64(m.Ops) / total.Seconds()
}

// SimPerOp returns the simulated device time per operation in ns.
func (m Measurement) SimPerOp() float64 {
	if m.Ops == 0 {
		return 0
	}
	return float64(m.Sim.Nanoseconds()) / float64(m.Ops)
}

// minMeasure is the minimum combined time a throughput sample must cover:
// short wall-clock windows are dominated by scheduler and GC noise.
const minMeasure = 100 * time.Millisecond

// measure samples throughput of op against the engine clock clk: it runs
// at least n operations and keeps going (up to 32x) until the combined
// wall + simulated time covers minMeasure. A garbage collection runs first
// so that allocation debt from loading does not land inside the window.
func measure(clk *simclock.Clock, n int, op func() error) (Measurement, error) {
	return measureCounted(clk, n, op, nil)
}

// measureCounted is measure that calls counted, when not nil, after the
// window's first n operations, with their sample. They are a fixed count,
// so what counted reads there — their simulated device time, the counters
// they moved — repeats exactly, where the window's length follows the wall
// clock. counted runs between two timed chunks, outside the sample.
func measureCounted(clk *simclock.Clock, n int, op func() error, counted func(first Measurement)) (Measurement, error) {
	runtime.GC()
	var total Measurement
	chunk := n
	for rounds := 0; ; rounds++ {
		m, err := measureN(clk, chunk, op)
		if err != nil {
			return Measurement{}, err
		}
		if rounds == 0 && counted != nil {
			counted(m)
		}
		total.Ops += m.Ops
		total.Wall += m.Wall
		total.Sim += m.Sim
		if total.Wall+total.Sim >= minMeasure || total.Ops >= 32*int64(n) {
			return total, nil
		}
		chunk *= 2
	}
}

// measureN runs op exactly n times — the fixed-size sampling the restart
// ramp-up buckets need.
func measureN(clk *simclock.Clock, n int, op func() error) (Measurement, error) {
	simStart := clk.Ns()
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := op(); err != nil {
			return Measurement{}, err
		}
	}
	return Measurement{
		Ops:  int64(n),
		Wall: time.Since(start),
		Sim:  time.Duration(clk.Ns() - simStart),
	}, nil
}

// writeWindow attributes the device writes of a measurement window to the
// buffer manager's write causes. What the NVM device counted beyond them is
// the write-ahead log, which shares the device.
type writeWindow struct {
	m              *core.Manager
	lines0, pages0 int64
}

// openWriteWindow starts a window on m, zeroing the manager's counters.
func openWriteWindow(m *core.Manager) writeWindow {
	m.ResetStats()
	w := writeWindow{m: m, lines0: m.NVM().Stats().LinesFlushed}
	if m.SSD() != nil {
		w.pages0 = m.SSD().Stats().PagesWritten
	}
	return w
}

// note renders the split as sums, "NVM lines N = wal a + cause b + ...",
// leaving out causes that wrote nothing.
func (w writeWindow) note() string {
	st := w.m.Stats()
	lines := w.m.NVM().Stats().LinesFlushed - w.lines0
	var pages int64
	if w.m.SSD() != nil {
		pages = w.m.SSD().Stats().PagesWritten - w.pages0
	}
	wal := lines
	var nvmParts, ssdParts []string
	for c, n := range st.NVMLinesWrittenBy {
		wal -= n
		if n > 0 {
			nvmParts = append(nvmParts, fmt.Sprintf("%v %d", core.WriteCause(c), n))
		}
		if n := st.SSDPagesWrittenBy[c]; n > 0 {
			ssdParts = append(ssdParts, fmt.Sprintf("%v %d", core.WriteCause(c), n))
		}
	}
	out := fmt.Sprintf("NVM lines %d = wal %d", lines, wal)
	if len(nvmParts) > 0 {
		out += " + " + strings.Join(nvmParts, " + ")
	}
	out += fmt.Sprintf("; SSD pages %d", pages)
	if len(ssdParts) > 0 {
		out += " = " + strings.Join(ssdParts, " + ")
	}
	return out
}

// faultSite hands every faulted engine a distinct injection site, so
// probability draws decorrelate across the engines built in one
// process while each engine's stream stays reproducible.
var faultSite atomic.Uint64

// buildEngine opens an engine with the paper's per-architecture feature
// defaults and the given capacities, applying any extra config mutation.
// The simulated CPU cache scales with the experiment: the paper's testbed
// has a 20 MB L3 against gigabytes of data, i.e. 2% of one capacity unit.
func buildEngine(o Options, topo core.Topology, dram, nvmBytes, ssdBytes int64, mutate func(*core.Config)) (*engine.Engine, error) {
	cfg := engine.DefaultConfig(topo, dram, nvmBytes, ssdBytes)
	cfg.DebugChecks = debugChecks
	// A log region large enough that no checkpoint falls into a
	// measurement window: the paper's throughput figures do not include
	// checkpoint stalls.
	cfg.WALBytes = 96 << 20
	cfg.CPUCacheBytes = cpuCacheFor(o)
	if o.Obs != nil {
		cfg.Recorder = o.Obs.newCollector()
	}
	if mutate != nil {
		mutate(&cfg)
	}
	e, err := engine.Open(cfg)
	if err != nil {
		return nil, err
	}
	if o.Faults != nil {
		e.ArmFaults(o.Faults, faultSite.Add(1))
	}
	return e, nil
}

// cpuCacheFor returns the scaled simulated-L3 size: 1/16 of a unit, at
// least 256 kB. The paper's regime is that the L3 comfortably holds the
// Zipf hot set (20 MB against a ~4 MB hot set at 10 GB of data); because
// the hot set shrinks sublinearly with the data, a strictly proportional
// L3 would be too small at laptop scale, so the simulation preserves the
// L3-covers-hot-set relation rather than the raw byte ratio.
func cpuCacheFor(o Options) int64 {
	c := o.Scale / 16
	if c < 256<<10 {
		c = 256 << 10
	}
	return c
}

// reseed applies Options.Seed to a freshly built workload; with no
// -seed the workload keeps its default stream.
func (o Options) reseed(w *ycsb.Workload) *ycsb.Workload {
	if o.Seed != 0 {
		w.Reseed(o.Seed)
	}
	return w
}

// debugChecks enables core's eviction verification in tests.
var debugChecks bool

// fiveSystems lists the paper's architectures in figure-legend order.
var fiveSystems = []core.Topology{
	core.MemOnly,
	core.ThreeTier,
	core.DRAMNVM,
	core.DirectNVM,
	core.DRAMSSD,
}

// threeSystems is the subset used by the NVM-focused sweeps (Figures
// 12-16).
var threeSystems = []core.Topology{
	core.ThreeTier,
	core.DirectNVM,
	core.DRAMNVM,
}
