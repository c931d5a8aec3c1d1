package remote

import (
	"fmt"

	"nvmstore/internal/bench"
)

// GroupCommit is the serving-layer counterpart of the in-process
// groupcommit experiment: a write-only YCSB run swept over the client
// pipeline depth. Depth is what drives coalescing end to end — a deeper
// pipeline puts more requests into each burst a server connection reads,
// its reader executes each shard's share as one group under the shard
// lock, commits every write without flushing, and makes the whole group
// durable with a single log-tail flush before any response leaves the
// server. Depth 1 is the ungrouped baseline: one request in flight per
// client worker, so a write shares a flush only when another
// connection's write reaches the shard while it runs. The achieved coalescing is reported as ops/flush
// from the server's own WAL counters (STATS log_commits/log_flushes
// deltas over the measured window).
func GroupCommit(o Options) (bench.Result, error) {
	o.applyDefaults()
	o.WritePct = 100
	o.TraceSample = 0 // the sweep reads WAL counters, not spans
	depths := []int{1, 2, 4, 8, 16, 32, 64}

	res := bench.Result{
		ID: "groupcommit",
		Title: fmt.Sprintf("remote group commit: pipeline-depth sweep (100%% put, %d clients) against %s",
			o.Clients, o.Addr),
		XLabel:  "pipeline depth",
		YLabel:  "ops/s",
		FileTag: "groupcommit_remote",
	}
	s := bench.Series{Name: "wire"}
	var base float64
	for _, depth := range depths {
		point := o
		point.Depth = depth
		// Load only once, ahead of the first point; later points reuse
		// the key space.
		point.Load = o.Load && depth == depths[0]
		perSec, opsPerFlush, err := groupCommitPoint(point)
		if err != nil {
			return res, fmt.Errorf("remote groupcommit depth %d: %w", depth, err)
		}
		s.X = append(s.X, float64(depth))
		s.Y = append(s.Y, perSec)
		if base == 0 {
			base = perSec
		}
		res.Notes = append(res.Notes, fmt.Sprintf(
			"depth %d: %.3g ops/s (%.2fx vs depth 1), %.1f ops/flush server-side",
			depth, perSec, perSec/base, opsPerFlush))
	}
	res.Series = append(res.Series, s)
	res.Notes = append(res.Notes,
		"ops/flush is the delta of the server's log_commits/log_flushes over the measured window;",
		"only physical flushes count (a batch without commits leaves the tail empty and flushes nothing); the pipeline",
		"spreads over every shard and a worker never waits for its batch to fill, so it trails the depth at high depths")
	return res, nil
}

// groupCommitPoint runs one depth point's measured window.
func groupCommitPoint(o Options) (perSec, opsPerFlush float64, err error) {
	cl, err := dial(o)
	if err != nil {
		return 0, 0, err
	}
	defer cl.Close()
	w, err := measure(cl, o)
	if err != nil {
		return 0, 0, err
	}
	if flushes := w.after.LogFlushes - w.before.LogFlushes; flushes > 0 {
		opsPerFlush = float64(w.after.LogCommits-w.before.LogCommits) / float64(flushes)
	}
	return w.perSec(o.Ops), opsPerFlush, nil
}
