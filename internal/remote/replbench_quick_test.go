package remote

import (
	"regexp"
	"slices"
	"strconv"
	"testing"

	"nvmstore/internal/bench"
)

// TestReplScalingQuick pins the untimed shape of the repl experiment's
// output: the swept replica counts, positive lag quantiles at every
// replicated point, and a background writer that ran at every point with
// the same load — exactly one PUT per replReadsPerWrite measured reads,
// all inside the measured window. The read-scaling ratio is timed, so it
// is not asserted here.
func TestReplScalingQuick(t *testing.T) {
	res, err := Replication(bench.Options{Ops: 8000, Warmup: 1000})
	if err != nil {
		t.Fatal(err)
	}
	series := map[string]bench.Series{}
	for _, s := range res.Series {
		series[s.Name] = s
	}
	if x := series["reads"].X; !slices.Equal(x, []float64{0, 1, 2}) {
		t.Errorf("reads X = %v, want [0 1 2]", x)
	}
	for _, name := range []string{"lag_p50_ms", "lag_p99_ms"} {
		s := series[name]
		if !slices.Equal(s.X, []float64{1, 2}) {
			t.Errorf("%s X = %v, want [1 2]", name, s.X)
		}
		for i, y := range s.Y {
			if !(y > 0) {
				t.Errorf("%s at R=%v = %v, want > 0", name, s.X[i], y)
			}
		}
	}
	writes := regexp.MustCompile(`^R=\d+: .*, (\d+) background writes \([0-9.e+-]+ per read\)`)
	var counts []int
	for _, n := range res.Notes {
		t.Log(n)
		m := writes.FindStringSubmatch(n)
		if m == nil {
			continue
		}
		w, _ := strconv.Atoi(m[1])
		if w <= 0 {
			t.Errorf("point with no background writes: %s", n)
		}
		counts = append(counts, w)
	}
	if len(counts) != 3 {
		t.Fatalf("%d point notes report background writes per read, want 3", len(counts))
	}
	if want := 8000 / replReadsPerWrite; slices.Min(counts) != want || slices.Max(counts) != want {
		t.Errorf("background writes per point %v, want %d at every point", counts, want)
	}
}
