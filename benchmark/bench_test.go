package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
)

// contract mirrors the keys of BENCHMARK.json this test reads.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCatalogueMatchesContract holds the program's metric tables and
// workload list equal to what BENCHMARK.json declares.
func TestCatalogueMatchesContract(t *testing.T) {
	c := readContract(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(what string, defs []metricDef, decl []contractMetric, bounded bool) {
		if len(defs) != len(decl) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", what, len(defs), len(decl))
		}
		byName := map[string]contractMetric{}
		for _, m := range decl {
			byName[m.Name] = m
		}
		for _, d := range defs {
			m, ok := byName[d.name]
			switch {
			case !name.MatchString(d.name):
				t.Errorf("%s: %q is not a valid metric name", what, d.name)
			case !ok:
				t.Errorf("%s: %q is not declared in BENCHMARK.json", what, d.name)
			case m.Unit != d.unit || m.Better != d.better || (bounded && m.Bound != d.bound):
				t.Errorf("%s: %q is declared as %+v, the program has %+v", what, d.name, m, d)
			}
		}
	}
	check("end_to_end", endToEnd, c.EndToEnd, true)
	check("per_layer", perLayer, c.PerLayer, false)

	if len(c.Workloads) != len(specs) {
		t.Fatalf("program has %d workloads, BENCHMARK.json %d", len(specs), len(c.Workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
}

// quarter is a workload on a quarter of its rows and capacities: what
// the tests below hold does not depend on size, and tier-1 should not
// spend its time loading stores.
func quarter(name string) *spec {
	sp := *findSpec(name)
	sp.rows /= 4
	sp.dram /= 4
	sp.nvm /= 4
	sp.ssd /= 4
	sp.warmOps /= 4
	sp.segOps /= 4
	sp.ladderOps /= 4
	return &sp
}

func metricNames(defs []metricDef) []string {
	var names []string
	for _, d := range defs {
		names = append(names, d.name)
	}
	sort.Strings(names)
	return names
}

// quickRun runs one embedded workload at -quick in this process and
// returns every metric both runs print.
func quickRun(t *testing.T, name string, seed uint64) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, traced := range []bool{false, true} {
		res, err := newRun(quarter(name), seed, 0, true).single(io.Discard, traced)
		if err != nil {
			t.Fatalf("%s traced=%v: %v", name, traced, err)
		}
		if !res.Correct {
			t.Fatalf("%s traced=%v: %d of %d operations failed", name, traced, res.Failed, res.Attempted)
		}
		var got []string
		for m, v := range res.Metrics {
			got = append(got, m)
			out[m] = v.Value
		}
		sort.Strings(got)
		want := metricNames(endToEnd)
		if traced {
			want = metricNames(perLayer)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s traced=%v printed %v, the catalogue has %v", name, traced, got, want)
		}
	}
	return out
}

// TestCountsRepeat runs the embedded workloads twice with one seed and
// once with another: with one goroutine and no timers, everything the
// program counts must repeat bit for bit, and must depend on the seed.
// It asserts nothing about time.
func TestCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("loads four stores per workload")
	}
	for _, name := range []string{"embedded_nvm", "embedded_ssd"} {
		a, b, other := quickRun(t, name, 42), quickRun(t, name, 42), quickRun(t, name, 43)
		moved := 0
		for _, d := range catalogue() {
			if !d.counted {
				continue
			}
			if a[d.name] != b[d.name] {
				t.Errorf("%s: %s is %v, then %v with the same seed", name, d.name, a[d.name], b[d.name])
			}
			if a[d.name] != other[d.name] {
				moved++
			}
		}
		if moved == 0 {
			t.Errorf("%s: no counted metric changed with the seed", name)
		}
	}
}
