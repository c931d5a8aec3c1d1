package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"nvmstore/internal/obs"
)

// FormatCSV writes the result as CSV: one row per (series, x, y) triple,
// ready for external plotting.
func (r Result) FormatCSV(w io.Writer) {
	fmt.Fprintf(w, "experiment,series,%s,%s\n", r.XLabel, r.YLabel)
	for _, s := range r.Series {
		for i := range s.X {
			fmt.Fprintf(w, "%s,%q,%g,%g\n", r.ID, s.Name, s.X[i], s.Y[i])
		}
	}
}

// jsonResult is the machine-readable form of a Result: each series maps
// its name to a list of [x, y] points.
type jsonResult struct {
	Experiment string                  `json:"experiment"`
	Title      string                  `json:"title"`
	XLabel     string                  `json:"xlabel"`
	YLabel     string                  `json:"ylabel"`
	Series     map[string][][2]float64 `json:"series"`
	Notes      []string                `json:"notes,omitempty"`
	Values     map[string]float64      `json:"values,omitempty"`
	Latency    []obs.Row               `json:"latency,omitempty"`
	// Attribution is the p99 stage decomposition of the traced request
	// timelines (remote mode with -tracesample); its stage fields sum
	// exactly to total_ns.
	Attribution *obs.Attribution `json:"attribution,omitempty"`
}

// SaveJSON writes the result to BENCH_<tag>.json in dir and returns the
// path written. The tag is the experiment id, or Result.FileTag when
// the experiment sets one (figA1 suffixes the thread count so sweeps at
// different -threads keep all their points).
func (r Result) SaveJSON(dir string) (string, error) {
	out := jsonResult{
		Experiment:  r.ID,
		Title:       r.Title,
		XLabel:      r.XLabel,
		YLabel:      r.YLabel,
		Series:      make(map[string][][2]float64, len(r.Series)),
		Notes:       r.Notes,
		Values:      r.Values,
		Latency:     r.Latency,
		Attribution: r.Attribution,
	}
	for _, s := range r.Series {
		pts := make([][2]float64, len(s.X))
		for i := range s.X {
			pts[i] = [2]float64{s.X[i], s.Y[i]}
		}
		out.Series[s.Name] = pts
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return "", err
	}
	tag := r.FileTag
	if tag == "" {
		tag = r.ID
	}
	path := filepath.Join(dir, "BENCH_"+tag+".json")
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// FormatLatency prints the per-operation latency table recorded during
// the run — one row per instrumented tier boundary, quantiles in
// simulated nanoseconds. No-op when the run had no recorder.
func (r Result) FormatLatency(w io.Writer) {
	if len(r.Latency) == 0 {
		return
	}
	fmt.Fprintf(w, "-- %s per-tier latency (simulated ns) --\n", r.ID)
	fmt.Fprintf(w, "%-13s %12s %9s %9s %9s %9s %9s\n",
		"op", "count", "p50", "p90", "p99", "max", "mean")
	for _, row := range r.Latency {
		fmt.Fprintf(w, "%-13s %12d %9d %9d %9d %9d %9d\n",
			row.Op, row.Count, row.P50, row.P90, row.P99, row.Max, row.Mean)
	}
	fmt.Fprintln(w)
}

// FormatAttribution prints the tail-latency stage decomposition of the
// run's traced request timelines — where the p99 request actually spent
// its time across the server pipeline. No-op when the run did not trace.
func (r Result) FormatAttribution(w io.Writer) {
	if r.Attribution == nil || r.Attribution.Count == 0 {
		return
	}
	fmt.Fprintf(w, "-- %s tail attribution (%d spans, %d in tail) --\n",
		r.ID, r.Attribution.Count, r.Attribution.TailCount)
	fmt.Fprintln(w, r.Attribution.Format())
	fmt.Fprintln(w)
}

// Chart renders the result as an ASCII chart (log-scaled Y, one mark per
// series), good enough to eyeball the figure's shape in a terminal.
func (r Result) Chart(w io.Writer, width, height int) {
	if width < 20 {
		width = 60
	}
	if height < 5 {
		height = 16
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range r.Series {
		for i := range s.X {
			minX = math.Min(minX, s.X[i])
			maxX = math.Max(maxX, s.X[i])
			if s.Y[i] > 0 {
				minY = math.Min(minY, s.Y[i])
				maxY = math.Max(maxY, s.Y[i])
			}
		}
	}
	if math.IsInf(minX, 1) || minY <= 0 {
		fmt.Fprintln(w, "(no plottable data)")
		return
	}
	if maxX == minX {
		maxX = minX + 1
	}
	logMin, logMax := math.Log10(minY), math.Log10(maxY)
	if logMax == logMin {
		logMax = logMin + 1
	}

	marks := "o+x*#@%&"
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range r.Series {
		mark := marks[si%len(marks)]
		for i := range s.X {
			if s.Y[i] <= 0 {
				continue
			}
			col := int((s.X[i] - minX) / (maxX - minX) * float64(width-1))
			row := height - 1 - int((math.Log10(s.Y[i])-logMin)/(logMax-logMin)*float64(height-1))
			if row >= 0 && row < height && col >= 0 && col < width {
				grid[row][col] = mark
			}
		}
	}
	fmt.Fprintf(w, "%s (y: %s, log scale %.3g..%.3g)\n", r.Title, r.YLabel, minY, maxY)
	for _, line := range grid {
		fmt.Fprintf(w, "  |%s\n", line)
	}
	fmt.Fprintf(w, "  +%s\n", strings.Repeat("-", width))
	fmt.Fprintf(w, "   %-*s%s\n", width-len(fmt.Sprint(maxX)), trimFloat(minX)+" "+r.XLabel, trimFloat(maxX))
	var legend []string
	for si, s := range r.Series {
		legend = append(legend, fmt.Sprintf("%c=%s", marks[si%len(marks)], s.Name))
	}
	sort.Strings(legend)
	fmt.Fprintf(w, "   %s\n\n", strings.Join(legend, "  "))
}
