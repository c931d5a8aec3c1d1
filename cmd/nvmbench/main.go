// Command nvmbench regenerates the tables and figures of "Managing
// Non-Volatile Memory in Database Systems" (SIGMOD 2018).
//
// Usage:
//
//	nvmbench -list
//	nvmbench -experiment fig8
//	nvmbench -experiment figA1 -threads 4
//	nvmbench -experiment all -scale 16 -ops 30000
//	nvmbench -experiment figA1 -threads 4 -json -http :6060
//	nvmbench -remote localhost:7070 -clients 4 -load
//	nvmbench -experiment repl -json
//
// Capacities follow the paper's DRAM:NVM:SSD = 2:10:50 proportions, scaled
// by -scale (megabytes per "paper gigabyte"). Output is one aligned text
// table per experiment, with one column per system line of the original
// figure, followed by the experiment's claim rows, each ✓ or ✗ with the
// counts it decided on (internal/bench/claims.go); -json additionally
// writes BENCH_<id>.json files for external plotting. -seed replaces the
// base seed of the YCSB random streams, so repeated runs draw different —
// but individually reproducible — keys.
//
// Remote mode (-remote addr) drives the YCSB mix against a running
// nvmserver over the wire protocol instead of an in-process engine,
// reporting wire-level round-trip percentiles alongside the server's
// engine histograms. -tracesample N stamps every Nth keyed request with
// a trace header; the server records a per-stage timeline for each and
// the run prints the p99 stage decomposition (reader dispatch, shard
// queue, execution, WAL flush, response write), also embedded in the
// -json output as "attribution".
//
// The repl experiment (-experiment repl) measures read-replica scaling:
// it builds an in-process cluster — a served primary, a background
// writer, and up to two replicas fed over the replication protocol —
// and sweeps the replica count, reporting aggregate read throughput and
// ship→ack replication lag (p50/p99) per point. It runs from the same
// experiment list as the figures, with -ops reads per point.
//
// Fault injection (-faults spec) arms a deterministic injection plan on
// every engine an experiment builds, so any figure can be regenerated
// under device faults. Spec grammar: semicolon-separated
// kind:param=value,... rules plus an optional seed:N, e.g.
// "seed:7;ssd.read:p=0.001,transient=2;nvm.stall:p=0.01,stall=10us"
// (kinds and parameters are documented in internal/fault).
//
// Observability: -obs records per-tier latency histograms (printed as a
// table after each experiment and embedded in the JSON output); -http
// serves net/http/pprof and a /metrics.json document (the running
// experiment and its latency rows, read on each request) for the duration
// of the run. -json accepts a bare flag (current directory) or -json=dir;
// nvmbench takes no arguments, so "-json dir" exits 2 naming dir.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"nvmstore/internal/bench"
	"nvmstore/internal/fault"
	"nvmstore/internal/obs"
	"nvmstore/internal/remote"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// dirFlag is an output-directory flag that may be given bare (meaning
// the current directory), as -flag=dir, or negated with -flag=false.
// An empty dir means the output is disabled.
type dirFlag struct{ dir string }

func (f *dirFlag) String() string   { return f.dir }
func (f *dirFlag) IsBoolFlag() bool { return true }
func (f *dirFlag) Set(s string) error {
	switch s {
	case "true":
		f.dir = "."
	case "false":
		f.dir = ""
	default:
		f.dir = s
	}
	return nil
}

// phaseBox is the shared mutable "what is running right now" behind the
// -http /metrics.json document.
type phaseBox struct {
	mu    sync.Mutex
	phase string
}

func (p *phaseBox) set(s string) {
	p.mu.Lock()
	p.phase = s
	p.mu.Unlock()
}

func (p *phaseBox) get() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.phase
}

// run holds the real main body so deferred cleanup (notably stopping the
// CPU profile) executes before the process exits. It parses args and
// writes to stdout and stderr, and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nvmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var jsonDir dirFlag
	var (
		experiment = fs.String("experiment", "", "experiment id (see -list), or \"all\"")
		list       = fs.Bool("list", false, "list available experiments")
		scaleMB    = fs.Int64("scale", 16, "megabytes per paper-gigabyte of capacity")
		ops        = fs.Int("ops", 30000, "measured operations per data point")
		warmup     = fs.Int("warmup", 0, "warm-up operations per data point (default: same as -ops; repl: a quarter of -ops)")
		threads    = fs.Int("threads", 4, "maximum shard count for multi-threaded experiments (figA1)")
		quick      = fs.Bool("quick", false, "fewer sweep points for a fast smoke run (repl: at most 12000 reads per point)")
		seed       = fs.Uint64("seed", 0, "base seed for the YCSB random streams (0: built-in default)")
		format     = fs.String("format", "table", "output format: table, csv, or chart")
		observe    = fs.Bool("obs", false, "record per-tier latency histograms")
		faultSpec  = fs.String("faults", "", `fault-injection spec armed on every engine, e.g. "seed:7;ssd.read:p=0.001,transient=2;nvm.stall:p=0.01,stall=10us" (see internal/fault)`)
		httpAddr   = fs.String("http", "", "serve pprof and /metrics.json on this address during the run")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file on exit")

		remoteAddr = fs.String("remote", "", "drive a running nvmserver at this address instead of in-process engines")
		clients    = fs.Int("clients", 4, "remote mode: concurrent pipelined client workers")
		depth      = fs.Int("depth", 16, "remote mode: pipeline depth per worker")
		rows       = fs.Int("rows", 10000, "remote mode: key-space size")
		writePct   = fs.Int("writepct", 5, "remote mode: percentage of operations that are PUTs")
		load       = fs.Bool("load", false, "remote mode: bulk-load the key space before measuring")
		retries    = fs.Int("retries", 0, "remote mode: per-request retry budget for transport failures (0: client default, negative: fail fast)")
		traceSamp  = fs.Int("tracesample", 0, "remote mode: stamp every Nth keyed request with a trace header and report the server's p99 stage decomposition (0: off, 1: every request)")
	)
	fs.Var(&jsonDir, "json", "write BENCH_<id>.json files (bare flag: current directory, or -json=dir)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// Parsing stops at the first non-flag argument, so every flag after
	// it would be dropped; "-json DIR" is the usual way to get here.
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "nvmbench: unexpected argument %q; nvmbench takes no arguments, and a -json directory is given as -json=DIR\n", fs.Arg(0))
		return 2
	}
	switch *format {
	case "table", "csv", "chart":
	default:
		fmt.Fprintf(stderr, "nvmbench: unknown -format %q (have table, csv, chart)\n", *format)
		return 2
	}

	// The figures plus the cluster experiment, which internal/bench
	// cannot list because internal/remote imports it.
	exps := append(bench.Experiments(), bench.Experiment{
		ID: "repl", Description: "read-replica scaling over WAL-shipping replication (not in the paper)", Run: remote.Replication,
	})
	if *list {
		for _, e := range exps {
			fmt.Fprintf(stdout, "  %-6s %s\n", e.ID, e.Description)
		}
		return 0
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "nvmbench: -cpuprofile: %v\n", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "nvmbench: -cpuprofile: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}

	if *remoteAddr != "" {
		if *experiment != "" {
			fmt.Fprintf(stderr, "nvmbench: -remote runs the wire workload and takes no -experiment (got %q)\n", *experiment)
			return 2
		}
		return runRemote(remote.Options{
			Addr:        *remoteAddr,
			Clients:     *clients,
			Depth:       *depth,
			Rows:        *rows,
			Load:        *load,
			WritePct:    *writePct,
			Ops:         *ops,
			Warmup:      *warmup,
			Seed:        *seed,
			Retries:     *retries,
			TraceSample: *traceSamp,
		}, *format, jsonDir.dir, stdout, stderr)
	}

	if *experiment == "" {
		fmt.Fprintln(stderr, "nvmbench: pick an experiment with -experiment <id> or -experiment all (-list shows ids), or a server with -remote addr")
		return 2
	}

	opts := bench.Options{
		Scale:   *scaleMB << 20,
		Ops:     *ops,
		Warmup:  *warmup,
		Threads: *threads,
		Quick:   *quick,
		Seed:    *seed,
	}
	if *faultSpec != "" {
		plan, err := fault.ParseSpec(*faultSpec)
		if err != nil {
			fmt.Fprintf(stderr, "nvmbench: -faults: %v\n", err)
			return 2
		}
		opts.Faults = plan
	}
	// -http implies -obs so /metrics.json has something to show.
	if *observe || *httpAddr != "" {
		opts.Obs = &bench.ObsSink{}
	}

	var phase phaseBox
	if *httpAddr != "" {
		dbg, err := obs.StartDebug(*httpAddr, func() any {
			return struct {
				Phase   string    `json:"phase"`
				Latency []obs.Row `json:"latency"`
			}{phase.get(), opts.Obs.Rows()}
		})
		if err != nil {
			fmt.Fprintf(stderr, "nvmbench: -http: %v\n", err)
			return 2
		}
		defer dbg.Close()
		fmt.Fprintf(stdout, "(serving /metrics.json and /debug/pprof/ on %s)\n", dbg.Addr())
	}

	runs := exps
	if *experiment != "all" {
		exp, err := bench.Lookup(exps, *experiment)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		runs = []bench.Experiment{exp}
	}
	exitCode := 0
	for _, exp := range runs {
		phase.set(exp.ID)
		start := time.Now()
		res, err := exp.Run(opts)
		if err != nil {
			fmt.Fprintf(stderr, "nvmbench: %s: %v\n", exp.ID, err)
			exitCode = 1
			break
		}
		emit(stdout, res, *format)
		if jsonDir.dir != "" {
			path, err := res.SaveJSON(jsonDir.dir)
			if err != nil {
				fmt.Fprintf(stderr, "nvmbench: %s: %v\n", exp.ID, err)
				exitCode = 1
				break
			}
			fmt.Fprintf(stdout, "(wrote %s)\n", path)
		}
		fmt.Fprintf(stdout, "(%s finished in %v)\n\n", exp.ID, time.Since(start).Round(time.Millisecond))
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(stderr, "nvmbench: -memprofile: %v\n", err)
			return 2
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(stderr, "nvmbench: -memprofile: %v\n", err)
			return 2
		}
	}
	return exitCode
}

// emit prints one result in the chosen format; the table and the chart
// are followed by the verdicts of the experiment's claims.
func emit(w io.Writer, res bench.Result, format string) {
	switch format {
	case "csv":
		res.FormatCSV(w)
		return
	case "chart":
		res.Chart(w, 72, 18)
		res.FormatLatency(w)
	case "table":
		res.Format(w)
	}
	res.FormatAttribution(w)
	bench.FormatClaims(w, res.Claims())
}

// runRemote drives a running nvmserver with the remote YCSB mix and
// prints the result.
func runRemote(o remote.Options, format, jsonDir string, stdout, stderr io.Writer) int {
	start := time.Now()
	res, err := remote.Run(o)
	if err != nil {
		fmt.Fprintf(stderr, "nvmbench: -remote %s: %v\n", o.Addr, err)
		return 1
	}
	emit(stdout, res, format)
	if jsonDir != "" {
		path, err := res.SaveJSON(jsonDir)
		if err != nil {
			fmt.Fprintf(stderr, "nvmbench: remote: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "(wrote %s)\n", path)
	}
	fmt.Fprintf(stdout, "(remote run finished in %v)\n", time.Since(start).Round(time.Millisecond))
	return 0
}
