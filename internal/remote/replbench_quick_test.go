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
// replicated point, and a background writer that ran at every point. The
// read-scaling ratio is timed, so it is not asserted here.
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
	writes := regexp.MustCompile(`^R=\d+: .*, (\d+) background writes`)
	points := 0
	for _, n := range res.Notes {
		t.Log(n)
		m := writes.FindStringSubmatch(n)
		if m == nil {
			continue
		}
		points++
		if w, _ := strconv.Atoi(m[1]); w <= 0 {
			t.Errorf("point with no background writes: %s", n)
		}
	}
	if points != 3 {
		t.Errorf("%d point notes report background writes, want 3", points)
	}
}
