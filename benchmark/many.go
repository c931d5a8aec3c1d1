package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
)

// summaryStat is one metric over the passes of one workload.
type summaryStat struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

// spread is the interquartile range as a share of the median.
func (s summaryStat) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// baseline is what -record writes per workload and -compare reads.
type baseline struct {
	Workload string                 `json:"workload"`
	Env      map[string]string      `json:"env"`
	Metrics  map[string]summaryStat `json:"metrics"`
}

// quartiles follows Python's statistics.quantiles(values, n=4), the
// method the driver uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0]
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(k*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

func summarize(unit string, xs []float64) summaryStat {
	q1, q3 := quartiles(xs)
	return summaryStat{Unit: unit, Median: median(xs), Q1: q1, Q3: q3, N: len(xs), Values: xs}
}

// child runs one workload once in a fresh process and returns the result
// on its last line; the report above it passes through.
func child(name string, trace int, seed uint64, seconds float64, quick bool) (result, error) {
	var res result
	self, err := os.Executable()
	if err != nil {
		return res, err
	}
	args := []string{"-workload", name, "-trace", strconv.Itoa(trace), "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64)}
	if quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return res, err
	}
	if err := cmd.Start(); err != nil {
		return res, err
	}
	var last string
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if last != "" {
			fmt.Println(last)
		}
		last = sc.Text()
	}
	runErr := cmd.Wait()
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if runErr != nil {
			return res, runErr
		}
		return res, fmt.Errorf("no result line: %w", err)
	}
	return res, nil
}

// mode names how much a run measures; numbers of different modes are
// not comparable.
func (r *run) mode() string {
	switch {
	case r.quick:
		return "quick"
	case r.seconds > 0:
		return fmt.Sprintf("timed %gs", r.seconds)
	}
	return "fixed"
}

func (r *run) env(passes int) map[string]string {
	return map[string]string{
		"nproc":  strconv.Itoa(runtime.NumCPU()),
		"go":     runtime.Version(),
		"os":     runtime.GOOS + "/" + runtime.GOARCH,
		"commit": commit(),
		"seed":   strconv.FormatUint(r.seed, 10),
		"passes": strconv.Itoa(passes),
		"mode":   r.mode(),
		"rows":   strconv.Itoa(r.sp.rows),
		"sizes":  fmt.Sprintf("DRAM %d MB / NVM %d MB / SSD %d MB", r.sp.dram>>20, r.sp.nvm>>20, r.sp.ssd>>20),
	}
}

// runMany runs every named workload passes times, untraced and traced as
// asked, and prints (and records, and compares) the medians.
func runMany(names []string, traces []int, passes int, seed uint64, seconds float64, quick bool, record, compare string) int {
	code := 0
	for _, name := range names {
		r := newRun(findSpec(name), seed, seconds, quick)
		series := map[string][]float64{}
		units := map[string]string{}
		for pass := 0; pass < passes; pass++ {
			for _, trace := range traces {
				res, err := child(name, trace, seed, seconds, quick)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
					return 1
				}
				if !res.Correct {
					fmt.Fprintf(os.Stderr, "benchmark: %s: %d of %d operations failed\n", name, res.Failed, res.Attempted)
					code = 1
				}
				for m, mv := range res.Metrics {
					series[m] = append(series[m], mv.Value)
					units[m] = mv.Unit
				}
			}
		}
		cur := baseline{Workload: name, Env: r.env(passes), Metrics: map[string]summaryStat{}}
		for m, xs := range series {
			cur.Metrics[m] = summarize(units[m], xs)
		}
		printSummary(cur)
		if record != "" {
			if err := writeBaseline(record, cur); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				return 1
			}
		}
		if compare != "" {
			base, err := readBaseline(compare, name)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				return 1
			}
			if !compareBaseline(base, cur) {
				code = 1
			}
		}
	}
	return code
}

// catalogue lists the metrics a summary may hold, in reporting order.
func catalogue() []metricDef { return append(append([]metricDef(nil), endToEnd...), perLayer...) }

func printSummary(b baseline) {
	fmt.Printf("== %s: median [q1, q3] over %s passes (%s, seed %s) ==\n", b.Workload, b.Env["passes"], b.Env["mode"], b.Env["seed"])
	for _, d := range catalogue() {
		if s, ok := b.Metrics[d.name]; ok {
			fmt.Printf("%-36s %14.6g [%.6g, %.6g] %s\n", d.name, s.Median, s.Q1, s.Q3, s.Unit)
		}
	}
}

func writeBaseline(dir string, b baseline) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(b, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, b.Workload+".json"), append(data, '\n'), 0o644)
}

func readBaseline(dir, name string) (baseline, error) {
	var b baseline
	data, err := os.ReadFile(filepath.Join(dir, name+".json"))
	if err != nil {
		return b, err
	}
	return b, json.Unmarshal(data, &b)
}

// compareBaseline prints each metric's change against the recorded
// baseline and reports whether every end-to-end metric stayed within its
// bound. A metric whose run-to-run spread, on either side, is wider than
// its bound is unresolved: the runs cannot tell. Count-derived metrics of
// the embedded workloads repeat exactly in fixed-count mode, so they are
// compared exactly; a difference there is a changed program (or seed),
// reported but not judged.
func compareBaseline(base, cur baseline) bool {
	ok := true
	if base.Env["mode"] != cur.Env["mode"] || base.Env["seed"] != cur.Env["seed"] {
		fmt.Printf("compare: baseline was %s seed %s, this run is %s seed %s: counts are not comparable\n",
			base.Env["mode"], base.Env["seed"], cur.Env["mode"], cur.Env["seed"])
	}
	exact := !findSpec(cur.Workload).wire && cur.Env["mode"] == "fixed" &&
		base.Env["mode"] == cur.Env["mode"] && base.Env["seed"] == cur.Env["seed"]
	fmt.Printf("== %s against baseline (commit %s) ==\n", cur.Workload, base.Env["commit"])
	fmt.Printf("%-36s %14s %14s %9s  %s\n", "metric", "baseline", "now", "change", "verdict")
	for _, d := range catalogue() {
		b, haveB := base.Metrics[d.name]
		c, haveC := cur.Metrics[d.name]
		if !haveB || !haveC {
			continue
		}
		change := 0.0
		if b.Median != 0 {
			change = (c.Median - b.Median) / math.Abs(b.Median)
		}
		worse := change
		if d.better == "higher" {
			worse = -change
		}
		verdict := ""
		switch {
		case d.counted && exact:
			verdict = "same count"
			if c.Median != b.Median {
				verdict = "COUNT CHANGED"
			}
		case d.bound > 0 && (b.spread() > d.bound || c.spread() > d.bound):
			verdict = fmt.Sprintf("unresolved (spread %.1f%% / %.1f%% > bound %.0f%%)", 100*b.spread(), 100*c.spread(), 100*d.bound)
		case d.bound > 0 && worse > d.bound:
			verdict = fmt.Sprintf("REGRESSION (bound %.0f%%)", 100*d.bound)
			ok = false
		case d.bound > 0:
			verdict = fmt.Sprintf("within bound %.0f%%", 100*d.bound)
		}
		fmt.Printf("%-36s %14.6g %14.6g %+8.2f%%  %s\n", d.name, b.Median, c.Median, 100*change, verdict)
	}
	return ok
}
