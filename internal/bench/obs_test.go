package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nvmstore/internal/obs"
)

// TestObsSinkThroughExperiment runs figA1 at tiny scale with a recorder
// installed and checks every observability surface: merged latency rows
// on the result, the rendered per-tier table, the thread-suffixed JSON
// file embedding the latency section.
func TestObsSinkThroughExperiment(t *testing.T) {
	o := tinyOptions()
	o.Threads = 2
	o.Obs = &ObsSink{}
	exp, err := Lookup(Experiments(), "figA1")
	if err != nil {
		t.Fatal(err)
	}
	res, err := exp.Run(o)
	if err != nil {
		t.Fatal(err)
	}

	if len(res.Latency) == 0 {
		t.Fatal("instrumented run attached no latency rows")
	}
	hit := false
	for _, row := range res.Latency {
		if row.Op == "dram.hit" && row.Count > 0 {
			hit = true
		}
		if row.P50 > row.P99 || row.P99 > row.Max {
			t.Errorf("%s: quantiles not monotonic: %+v", row.Op, row)
		}
	}
	if !hit {
		t.Errorf("lookup workload recorded no dram.hit samples: %+v", res.Latency)
	}

	var sb strings.Builder
	res.Format(&sb)
	for _, want := range []string{"per-tier latency", "p50", "p99", "dram.hit"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("formatted output missing %q:\n%s", want, sb.String())
		}
	}

	dir := t.TempDir()
	path, err := res.SaveJSON(dir)
	if err != nil {
		t.Fatal(err)
	}
	if base := filepath.Base(path); base != "BENCH_figA1_t2.json" {
		t.Errorf("json file = %q, want thread-suffixed BENCH_figA1_t2.json", base)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Latency []obs.Row `json:"latency"`
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(got.Latency) != len(res.Latency) {
		t.Errorf("json latency rows = %d, want %d", len(got.Latency), len(res.Latency))
	}
}

// TestObsSinkReset checks that the per-experiment wrapper starts each
// run with an empty sink: collectors from a previous experiment must
// not leak into the next result.
func TestObsSinkReset(t *testing.T) {
	sink := &ObsSink{}
	c := sink.newCollector()
	c.Latency(obs.OpDRAMHit, 1)
	if len(sink.Rows()) == 0 {
		t.Fatal("seeded sink has no rows")
	}
	sink.Reset()
	if rows := sink.Rows(); len(rows) != 0 {
		t.Fatalf("rows after reset: %+v", rows)
	}
}
