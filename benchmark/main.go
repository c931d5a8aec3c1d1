// Command benchmark is the repository's performance ruler: five
// workloads on the ThreeTier architecture, driven only through public
// entry points, reporting six end-to-end metrics (untraced run) and the
// per-layer metrics behind them (traced run). See README.md beside this
// file for the catalogue, and BENCHMARK.json at the repository root for
// the contract the driver holds it to.
//
//	go run ./benchmark                       every workload, both runs, fixed counts
//	go run ./benchmark -workload wire_read -trace 0 -seconds 15 -seed 7
//	go run ./benchmark -passes 3 -record benchmark/baseline
//	go run ./benchmark -passes 3 -compare benchmark/baseline
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// result is the last line a single run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	// One P, whatever the box has: clients, server, shard workers and
	// maintainers take turns on one thread, with no wake-up of another
	// CPU between them. On the 2-vCPU box this was written on, a second P
	// made the loaded server slower (75 k against 100 k GETs a second) and
	// every timing depend on what the hypervisor did with the second CPU
	// (p99 of a loopback GET: 100-2400 us on two Ps, 30-40 us on one). The
	// price: the ruler measures the CPU cost of a request, not how well
	// shards run in parallel.
	runtime.GOMAXPROCS(1)

	workload := flag.String("workload", "all", "workload name, or all")
	seed := flag.Uint64("seed", 42, "seed of every generated input")
	seconds := flag.Float64("seconds", 0, "measure for this long; 0 runs the workload's fixed operation counts")
	trace := flag.String("trace", "both", "0: end-to-end metrics, tracing off; 1: per-layer metrics, tracing on; both")
	quick := flag.Bool("quick", false, "a twentieth of the fixed counts: smoke test only, not comparable")
	passes := flag.Int("passes", 1, "runs of each workload")
	record := flag.String("record", "", "write each workload's medians and quartiles to this directory")
	compare := flag.String("compare", "", "compare against the baseline recorded in this directory")
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf(2, "unexpected argument %q", flag.Arg(0))
	}

	var names []string
	if *workload == "all" {
		for _, sp := range specs {
			names = append(names, sp.name)
		}
	} else if findSpec(*workload) == nil {
		fatalf(2, "unknown workload %q", *workload)
	} else {
		names = []string{*workload}
	}
	var traces []int
	switch *trace {
	case "0":
		traces = []int{0}
	case "1":
		traces = []int{1}
	case "both":
		traces = []int{0, 1}
	default:
		fatalf(2, "-trace must be 0, 1 or both")
	}

	// One workload, one run: do it here. Anything more re-executes this
	// binary once per run, so that every run has a process (and a peak
	// RSS, a heap and a GC history) of its own.
	if len(names) == 1 && len(traces) == 1 && *passes == 1 && *record == "" && *compare == "" {
		r := newRun(findSpec(names[0]), *seed, *seconds, *quick)
		r.outDir = filepath.Join("benchmark", "out") // hidden by .gitignore
		res, err := r.single(os.Stdout, traces[0] == 1)
		if err != nil {
			fatalf(1, "%s: %v", names[0], err)
		}
		line, _ := json.Marshal(res)
		fmt.Printf("%s\n", line)
		if !res.Correct {
			os.Exit(1)
		}
		return
	}
	os.Exit(runMany(names, traces, *passes, *seed, *seconds, *quick, *record, *compare))
}

func fatalf(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(code)
}

// header describes the machine, the build and the workload: a number is
// only comparable with another that has the same header.
func (r *run) header(w io.Writer, traced bool) {
	sp := r.sp
	mode := r.mode()
	if r.quick {
		mode = "QUICK (1/20 of the fixed counts; smoke test, not comparable)"
	}
	kind := "embedded, 1 goroutine"
	if sp.wire {
		kind = fmt.Sprintf("wire, %d shards, %d connections", sp.shards, wireConns)
	}
	fmt.Fprintf(w, "workload %s  traced=%v  seed=%d  mode: %s\n", sp.name, traced, r.seed, mode)
	fmt.Fprintf(w, "  why: %s\n", sp.why)
	fmt.Fprintf(w, "  %s; %d rows x %d B; DRAM %d MB / NVM %d MB / SSD %d MB, WAL %d MB per store; keys %s; %d%% put, %d%% scan\n",
		kind, sp.rows, rowSize, sp.dram>>20, sp.nvm>>20, sp.ssd>>20, walBytesPerShard>>20, keyDist(sp), sp.putPct, sp.scanPct)
	fmt.Fprintf(w, "  warm-up %d ops; segments of %d ops", sp.warmOps, sp.segOps)
	if sp.wire {
		fmt.Fprintf(w, " (2 goroutines x %d in flight), each followed by %d x %d ops one at a time", wireDepthOf(sp), sp.latSegs, sp.latSegOps)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  nproc=%d GOMAXPROCS=%d %s %s/%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit())
}

func keyDist(sp *spec) string {
	if sp.theta > 0 {
		return fmt.Sprintf("scrambled Zipf %.2f", sp.theta)
	}
	return "uniform"
}

// commit is the revision the binary was built from, when the build could
// see one (the driver's checkout is not a git repository).
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 12 {
				return s.Value[:12]
			}
		}
	}
	return "unknown"
}

// single is one run of one workload.
func (r *run) single(w io.Writer, traced bool) (result, error) {
	r.header(w, traced)
	v := values{}
	var attempted, failed int64
	var defs []metricDef
	var err error
	if traced {
		defs = perLayer
		attempted, failed, err = r.tracedRun(w, v)
	} else {
		defs = endToEnd
		attempted, failed, err = r.plainRun(w, v)
	}
	if err != nil {
		return result{}, err
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]metricValue)}
	fmt.Fprintf(w, "%-36s %18s  %s\n", "metric", "value", "unit")
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{v[d.name], d.unit}
		fmt.Fprintf(w, "%-36s %18.6g  %s\n", d.name, v[d.name], d.unit)
	}
	fmt.Fprintf(w, "attempted=%d failed=%d failed_frac=%g correct=%v\n", attempted, failed, float64(failed)/float64(attempted), res.Correct)
	return res, nil
}

// setUps is how often the untraced run sets up; see setUpSeconds.
const setUps = 5

// plainRun produces the end-to-end metrics with tracing off.
func (r *run) plainRun(w io.Writer, v values) (attempted, failed int64, err error) {
	n := setUps
	if r.quick {
		n = 1
	}
	var d driver
	var times []setUpTime
	for i := 0; i < n; i++ {
		if d != nil {
			if err := shut(d); err != nil {
				return 0, 0, err
			}
		}
		var took setUpTime
		if d, took, err = r.setUp(false); err != nil {
			return 0, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, took)
	}
	p := r.measure(d, 1)
	r.phaseMetrics(v, p)
	if err := shut(d); err != nil {
		return 0, 0, err
	}
	ver, err := r.verify()
	if err != nil {
		return 0, 0, fmt.Errorf("verify: %w", err)
	}
	v["setup_s"] = setUpSeconds(times)
	v["peak_rss_mb"] = peakRSSMB()
	r.summary(w, v, p, ver, times)
	return p.ops + p.lat.n + ver.attempted, p.failed + ver.failed, nil
}

// phaseMetrics fills in everything a measured phase yields, end-to-end
// and per-layer alike; the caller reports the half its run is about.
func (r *run) phaseMetrics(v values, p *phase) {
	phaseCounts(v, p)
	v["ops_per_s"], _ = p.opsPerSec()
	lat := p.latency().quantiles()
	v["lat_p50_us"] = lat.p50
	v["lat_p95_us"] = lat.p95
	v["host.lat_p99_us"] = lat.p99
	v["host.lat_p999_us"] = lat.p999
	if r.sp.wire {
		loaded := p.tput.quantiles()
		v["client.rtt_loaded_p50_us"] = loaded.p50
		v["client.rtt_loaded_p99_us"] = loaded.p99
		v["client.rtt_loaded_p999_us"] = loaded.p999
		for k, name := range kindNames {
			v["client."+name+"_p50_us"] = p.latKind[k].quantiles().p50
		}
	}
}

// shut closes a store and gives its memory back before the next one is
// built, so that peak_rss_mb is one store's footprint and not the sum of
// several.
func shut(d driver) error {
	err := d.close()
	runtime.GC()
	debug.FreeOSMemory()
	return err
}

func (r *run) summary(w io.Writer, v values, p *phase, ver verdict, setups []setUpTime) {
	var totals []float64
	for _, t := range setups {
		totals = append(totals, t.total)
	}
	fmt.Fprintf(w, "  set-ups %.3v s as timed; throughput phase: %d ops in %d segments, wall %.3f s + sim %.3f s\n",
		totals, p.ops, len(p.segWall), p.wall.Seconds(), p.sim.Seconds())
	rate, kept := p.opsPerSec()
	fmt.Fprintf(w, "  ops/s: %.0f over the %d quiet segments of %d, %.0f over all\n",
		rate, kept, len(p.segWall), float64(p.ops)/(p.wall+p.sim).Seconds())
	lat := p.latency()
	q := lat.quantiles()
	fmt.Fprintf(w, "  latency: %d samples in the %d quiet segments of %d (%d beyond p95); mean over all %d samples %.2f us\n",
		q.n, q.kept, len(lat.segs), q.n/20, lat.n, lat.meanNs()/1e3)
	if !r.sp.wire {
		fmt.Fprintf(w, "  identity: 1e9/(host.wall_ns_per_op + simclock.sim_ns_per_op) = %.0f ops/s over the whole phase; ops_per_s is the quiet segments'\n",
			1e9/(v["host.wall_ns_per_op"]+v["simclock.sim_ns_per_op"]))
	}
	fmt.Fprintf(w, "  verify: %d checks, %d failed, %d acknowledged writes lost; crash restart %.2f ms hybrid, %d records redone\n",
		ver.attempted, ver.failed, ver.lost, float64(ver.restart.Nanoseconds())/1e6, ver.redone)
}

// tracedRun produces the per-layer metrics: the measured phase and the
// ladder on an untraced store, then the measured phase again on a store
// with the program's own tracing on, which gives the trace-only numbers
// and, by difference, what tracing costs.
func (r *run) tracedRun(w io.Writer, v values) (attempted, failed int64, err error) {
	tr := &tracer{t0: time.Now()}
	d, _, err := r.setUp(false)
	if err != nil {
		return 0, 0, fmt.Errorf("set-up: %w", err)
	}
	root := tr.begin(0, "measure.untraced")
	p := r.measure(d, 0.45)
	tr.end(root)
	r.phaseMetrics(v, p)
	v["nvm.wear_max_per_line"] = d.wearMax()
	lad := r.ladder(d, tr)
	lad.selfTimes(r.sp, v)
	if err := shut(d); err != nil {
		return 0, 0, err
	}

	if d, _, err = r.setUp(true); err != nil {
		return 0, 0, fmt.Errorf("traced set-up: %w", err)
	}
	root = tr.begin(0, "measure.traced")
	stop := d.watch()
	pt := r.measure(d, 0.30)
	stop()
	tr.end(root)
	d.traceMetrics(v)
	v["core.nvm_lineload_p50_sim_ns"] = latencyRow(&pt.after.m, "nvm.lineload")
	v["core.dram_evict_p50_sim_ns"] = latencyRow(&pt.after.m, "dram.evict")
	v["wal.flush_p50_sim_ns"] = latencyRow(&pt.after.m, "wal.flush")
	plain, _ := p.opsPerSec()
	withTrace, _ := pt.opsPerSec()
	v["obs.trace_overhead_frac"] = 1 - withTrace/plain
	if err := shut(d); err != nil {
		return 0, 0, err
	}

	ver, err := r.verify()
	if err != nil {
		return 0, 0, fmt.Errorf("verify: %w", err)
	}
	v["engine.crash_restart_ms"] = float64(ver.restart.Nanoseconds()) / 1e6
	v["engine.redo_records"] = float64(ver.redone)

	r.summary(w, v, p, ver, nil)
	lad.print(w, r.sp)
	top := "engine"
	if r.sp.wire {
		top = "client"
	}
	// Independent cross-check of the ladder: its top rung, weighted by
	// the mix, against the mean of the measured phase's own latency
	// samples (hybrid on embedded workloads, where sim time is part of
	// every sample; sim is shared out over shards on wire ones and
	// invisible to the client).
	fmt.Fprintf(w, "  ladder top rung (%s) %.0f ns/op vs the measured phase's mean latency %.0f ns/op\n", top,
		r.sp.mixed(func(k int) float64 {
			s := lad.get(top, k)
			if r.sp.wire {
				return s.wallNs
			}
			return s.wallNs + s.simNs
		}), p.latency().meanNs())
	fmt.Fprintf(w, "  traced phase: %.0f ops/s hybrid against %.0f untraced\n", withTrace, plain)
	if r.outDir != "" {
		if path, err := tr.write(r.outDir, r.sp.name); err != nil {
			fmt.Fprintf(w, "  spans not written: %v\n", err)
		} else {
			fmt.Fprintf(w, "  %d spans written to %s\n", len(tr.spans), path)
		}
	}
	return p.ops + p.lat.n + pt.ops + pt.lat.n + lad.ops + ver.attempted,
		p.failed + pt.failed + lad.failed + ver.failed, nil
}
