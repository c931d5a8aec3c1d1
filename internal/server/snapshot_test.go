package server

import (
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"nvmstore/internal/obs"
)

// TestPrometheusMatchesStats: /metrics is derived from the STATS document
// of the same snapshot. With a writer running beside the scrape, every
// numeric key of the marshalled document appears as nvmstore_<key> or
// nvmstore_<key>_total with the same value (a list as one sample per
// shard), and no other unlabelled scalar appears — a second reading of
// the store would have moved on.
func TestPrometheusMatchesStats(t *testing.T) {
	store, tab := openTestStore(t, 1, 64)
	srv := New(store, Options{})

	stop, stopped := make(chan struct{}), make(chan error, 1)
	go func() {
		row := make([]byte, 64)
		for key := uint64(0); ; key++ {
			select {
			case <-stop:
				stopped <- nil
				return
			default:
			}
			if err := tab.Put(key%512, row); err != nil {
				stopped <- err
				return
			}
		}
	}()
	defer func() {
		close(stop)
		if err := <-stopped; err != nil {
			t.Error(err)
		}
	}()

	for store.Metrics().Log.Commits == 0 { // the writer is under way
		runtime.Gosched()
	}
	for round := 0; round < 20; round++ {
		snap := srv.snapshot()
		var b strings.Builder
		p := obs.NewPromWriter(&b)
		snap.writePrometheus(p)
		if err := p.Err(); err != nil {
			t.Fatal(err)
		}
		got := make(map[string]float64)
		for _, line := range strings.Split(b.String(), "\n") {
			name, val, ok := strings.Cut(line, " ")
			if !ok || strings.HasPrefix(line, "#") {
				continue
			}
			var err error
			if got[name], err = strconv.ParseFloat(val, 64); err != nil {
				t.Fatalf("sample %q: %v", line, err)
			}
		}
		raw, err := json.Marshal(snap.doc)
		if err != nil {
			t.Fatal(err)
		}
		var fields map[string]any
		if err := json.Unmarshal(raw, &fields); err != nil {
			t.Fatal(err)
		}
		matched := make(map[string]bool)
		match := func(key, labels string, want float64) {
			gauge, counter := "nvmstore_"+key+labels, "nvmstore_"+key+"_total"+labels
			g, isGauge := got[gauge]
			c, isCounter := got[counter]
			if isGauge == isCounter {
				t.Fatalf("round %d: STATS %s%s: want exactly one of %s and %s in /metrics:\n%s", round, key, labels, gauge, counter, b.String())
			}
			if isCounter {
				g = c
			}
			if g != want {
				t.Fatalf("round %d: STATS %s%s = %v, /metrics of the same snapshot reads %v", round, key, labels, want, g)
			}
			matched[gauge], matched[counter] = true, true
		}
		for key, v := range fields {
			switch v := v.(type) {
			case float64:
				match(key, "", v)
			case []any:
				for shard, x := range v {
					if x, ok := x.(float64); ok {
						match(key, fmt.Sprintf(`{shard="%d"}`, shard), x)
					}
				}
			}
		}
		for name := range got {
			if !matched[name] && !strings.Contains(name, "{") {
				t.Fatalf("round %d: /metrics scalar %s has no STATS field", round, name)
			}
		}
	}
}

// TestNumericStatsFieldsTagged: a numeric StatsDoc field (or list of
// them) is a Prometheus family only through its prom and help tags, so
// one without them would be in STATS and silently missing from /metrics.
func TestNumericStatsFieldsTagged(t *testing.T) {
	typ := reflect.TypeOf(StatsDoc{})
	for i := range typ.NumField() {
		f := typ.Field(i)
		k := f.Type.Kind()
		if k == reflect.Slice {
			k = f.Type.Elem().Kind()
		}
		numeric := k == reflect.Int || k == reflect.Int64 || k == reflect.Float64
		switch kind := f.Tag.Get("prom"); {
		case numeric && kind != "counter" && kind != "gauge":
			t.Errorf("numeric StatsDoc field %s has prom tag %q, want counter or gauge", f.Name, kind)
		case numeric && f.Tag.Get("help") == "":
			t.Errorf("numeric StatsDoc field %s has no help tag", f.Name)
		case !numeric && kind != "":
			t.Errorf("StatsDoc field %s of type %s has a prom tag; only numbers are rendered", f.Name, f.Type)
		}
	}
}
