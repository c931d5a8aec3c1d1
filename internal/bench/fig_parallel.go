package bench

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"nvmstore/internal/btree"
	"nvmstore/internal/core"
	"nvmstore/internal/engine"
	"nvmstore/internal/simclock"
	"nvmstore/internal/ycsb"
)

// Appendix A.1 of the paper scales the single-threaded engine to many
// cores by partitioning the key space across independent shard-per-core
// instances. This file implements the parallel workload driver (each
// round runs one goroutine per shard, then joins them) and the
// hybrid-time model for parallel runs.
//
// Time accounting: each shard has its own simulated device clock, and the
// combined simulated component is the *maximum* across shards (they run
// concurrently on dedicated cores). The CPU component is taken from
// process CPU time (not wall time) and charged to the busiest shard in
// proportion to its share of the total busy time. On a host with at least
// as many cores as shards this equals measured wall time; on a smaller
// host it still reports what shard-per-core hardware delivers instead of
// penalizing the run for time-slicing goroutines on too few cores.

// workerStats is one shard's counters, padded to its own cache line pair
// so concurrent updates do not false-share.
type workerStats struct {
	ops    int64
	busyNs int64
	simNs  int64
	err    error
	_      [88]byte
}

// parallelDriver runs one operation stream per shard. ops[i] is the
// shard-local operation (already bound to shard i's engine and key
// stream); clks[i] is that engine's simulated clock.
type parallelDriver struct {
	ops   []func() error
	clks  []*simclock.Clock
	stats []workerStats
}

// runRound splits total ops evenly across the shards, runs each share on
// its own goroutine, and waits for all of them; the WaitGroup orders the
// shards' stats updates before the coordinator reads them. A shard that
// failed stays failed: later rounds skip it and report its error.
func (d *parallelDriver) runRound(total int) error {
	per := max((total+len(d.ops)-1)/len(d.ops), 1)
	var wg sync.WaitGroup
	for i := range d.ops {
		st := &d.stats[i]
		if st.err != nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			sim0 := d.clks[i].Ns()
			done := 0
			for ; done < per; done++ {
				if err := d.ops[i](); err != nil {
					st.err = err
					break
				}
			}
			st.busyNs += time.Since(start).Nanoseconds()
			st.simNs += d.clks[i].Ns() - sim0
			st.ops += int64(done)
		}()
	}
	wg.Wait()
	for i := range d.stats {
		if err := d.stats[i].err; err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// parallelMeasurement is one multi-threaded throughput sample under the
// parallel hybrid-time model: Ops completed in MaxBusy (CPU time charged
// to the busiest shard) plus MaxSim (the slowest shard's simulated device
// time).
type parallelMeasurement struct {
	Ops     int64
	Threads int
	MaxBusy time.Duration
	MaxSim  time.Duration
	CPU     time.Duration
	Wall    time.Duration
}

// PerSecond reports combined throughput: ops / (maxBusy + maxSim).
func (m parallelMeasurement) PerSecond() float64 {
	t := m.MaxBusy + m.MaxSim
	if t <= 0 {
		return 0
	}
	return float64(m.Ops) / t.Seconds()
}

// measure mirrors the single-threaded measure() contract: collect after a
// GC, doubling the round size until the combined time covers minMeasure.
func (d *parallelDriver) measure(n int) (parallelMeasurement, error) {
	runtime.GC()
	type snap struct{ ops, busy, sim int64 }
	base := make([]snap, len(d.stats))
	for i := range d.stats {
		base[i] = snap{d.stats[i].ops, d.stats[i].busyNs, d.stats[i].simNs}
	}
	cpu0 := processCPUTime()
	wall0 := time.Now()
	chunk := n
	for {
		if err := d.runRound(chunk); err != nil {
			return parallelMeasurement{}, err
		}
		m := parallelMeasurement{Threads: len(d.stats), Wall: time.Since(wall0)}
		if cpu := processCPUTime(); cpu0 >= 0 && cpu >= 0 {
			m.CPU = cpu - cpu0
		} else {
			// No CPU-time source: fall back to wall time, which
			// overcounts when the host has fewer cores than shards.
			m.CPU = m.Wall
		}
		var sumBusy, maxBusy, maxSim int64
		for i := range d.stats {
			busy := d.stats[i].busyNs - base[i].busy
			if sim := d.stats[i].simNs - base[i].sim; sim > maxSim {
				maxSim = sim
			}
			m.Ops += d.stats[i].ops - base[i].ops
			sumBusy += busy
			if busy > maxBusy {
				maxBusy = busy
			}
		}
		m.MaxSim = time.Duration(maxSim)
		if sumBusy > 0 {
			m.MaxBusy = time.Duration(float64(m.CPU) * float64(maxBusy) / float64(sumBusy))
		}
		if m.MaxBusy+m.MaxSim >= minMeasure || m.Ops >= 32*int64(n) {
			return m, nil
		}
		chunk *= 2
	}
}

// parallelYCSBPoint builds `threads` shard engines (each with 1/threads
// of every capacity), loads each with its partition of the key space, and
// measures read-only YCSB throughput through the parallel driver.
func parallelYCSBPoint(o Options, topo core.Topology, rows, threads int) (parallelMeasurement, error) {
	n64 := int64(threads)
	dram, nvmBytes, ssdBytes := 2*o.Scale/n64, 10*o.Scale/n64, 50*o.Scale/n64
	walBytes := int64(96<<20) / n64
	if walBytes < 16<<20 {
		walBytes = 16 << 20
	}
	engines := make([]*engine.Engine, threads)
	works := make([]*ycsb.Workload, threads)
	errs := make([]error, threads)
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, err := buildEngine(o, topo, dram, nvmBytes, ssdBytes, func(c *core.Config) {
				c.WALBytes = walBytes
			})
			if err != nil {
				errs[i] = err
				return
			}
			w, err := ycsb.Load(e, rows, btree.LayoutSorted, 0.66,
				ycsb.Partition{Shards: threads, Index: i})
			if err != nil {
				errs[i] = err
				return
			}
			o.reseed(w)
			engines[i], works[i] = e, w
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return parallelMeasurement{}, fmt.Errorf("load shard %d: %w", i, err)
		}
	}
	d := &parallelDriver{
		ops:   make([]func() error, threads),
		clks:  make([]*simclock.Clock, threads),
		stats: make([]workerStats, threads),
	}
	for i := range d.ops {
		d.ops[i] = works[i].Lookup
		d.clks[i] = engines[i].Clock()
	}
	warm := o.Warmup
	if warm < rows {
		warm = rows
	}
	if err := d.runRound(warm); err != nil {
		return parallelMeasurement{}, err
	}
	return d.measure(o.Ops)
}

// threadSweep lists the thread counts figA1 measures: powers of two up to
// Options.Threads (plus Threads itself if it is not one). Quick runs keep
// only the endpoints.
func threadSweep(o Options) []int {
	max := o.Threads
	if max < 1 {
		max = 1
	}
	ts := []int{1}
	for t := 2; t <= max; t *= 2 {
		ts = append(ts, t)
	}
	if ts[len(ts)-1] != max {
		ts = append(ts, max)
	}
	if o.Quick && len(ts) > 2 {
		ts = []int{1, max}
	}
	return ts
}

// FigA1 reproduces Appendix A.1's scale-up experiment: read-only YCSB
// throughput versus thread count for the three buffer-managed systems,
// with the data partitioned across shard-per-core engine instances. Data
// is DRAM-resident (1 unit against 2 units of DRAM), so the sweep
// isolates the engines' CPU scalability.
func FigA1(o Options) (Result, error) {
	o.applyDefaults()
	threads := threadSweep(o)
	rows := ycsb.RowsForDataSize(1 * o.Scale)
	res := Result{
		ID:     "figA1",
		Title:  "Appendix A.1: YCSB read-only scalability (data = 1 unit, DRAM-resident)",
		XLabel: "threads",
		YLabel: "lookups/s",
		// Different -threads runs measure different sweeps; keep their
		// output files apart instead of silently overwriting.
		FileTag: fmt.Sprintf("figA1_t%d", o.Threads),
	}
	for _, topo := range []core.Topology{core.ThreeTier, core.DirectNVM, core.DRAMSSD} {
		s := Series{Name: topo.String()}
		for _, n := range threads {
			m, err := parallelYCSBPoint(o, topo, rows, n)
			if err != nil {
				return res, fmt.Errorf("figA1 %s threads=%d: %w", topo, n, err)
			}
			s.X = append(s.X, float64(n))
			s.Y = append(s.Y, m.PerSecond())
		}
		res.Series = append(res.Series, s)
		if last := len(s.Y) - 1; last > 0 && s.Y[0] > 0 {
			res.Notes = append(res.Notes, fmt.Sprintf("%s: %d threads run %.2fx the 1-thread throughput",
				s.Name, threads[last], s.Y[last]/s.Y[0]))
		}
	}
	res.Notes = append(res.Notes,
		"shard-per-core model: the key space is hash-partitioned across independent",
		"single-threaded engines; combined time = CPU time of the busiest shard +",
		"simulated device time of the slowest shard, so results reflect dedicated",
		"cores even when the host machine has fewer cores than threads")
	return res, nil
}
