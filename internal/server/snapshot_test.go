package server

import (
	"runtime"
	"strconv"
	"strings"
	"testing"

	"nvmstore/internal/obs"
)

// TestPrometheusMatchesStats: STATS and /metrics are made from one
// snapshot, so with a writer running beside the scrape every scalar in
// the Prometheus text still equals its field of the STATS document from
// the same call — a second reading of the store would have moved on.
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
		doc := snap.doc
		want := map[string]float64{
			"nvmstore_conns":                         float64(doc.Conns),
			"nvmstore_conns_max":                     float64(doc.MaxConns),
			"nvmstore_conn_waits_total":              float64(doc.ConnWaits),
			"nvmstore_accepted_total":                float64(doc.Accepted),
			"nvmstore_ops_total":                     float64(doc.Ops),
			"nvmstore_read_syscalls_total":           float64(doc.ReadSyscalls),
			"nvmstore_write_syscalls_total":          float64(doc.WriteSyscalls),
			"nvmstore_frames_written_total":          float64(doc.FramesWritten),
			"nvmstore_exec_batches_total":            float64(doc.ExecBatches),
			`nvmstore_shard_queue_depth{shard="0"}`:  float64(doc.ShardQueueDepth[0]),
			`nvmstore_shard_queue_depth{shard="1"}`:  float64(doc.ShardQueueDepth[1]),
			"nvmstore_sim_ns_max":                    float64(doc.MaxSimNs),
			"nvmstore_nvm_writes_total":              float64(doc.NVMTotalWrites),
			"nvmstore_ssd_reads_total":               float64(doc.SSDPagesRead),
			"nvmstore_ssd_writes_total":              float64(doc.SSDPagesWrite),
			"nvmstore_nvm_admissions_total":          float64(doc.NVMAdmissions),
			"nvmstore_nvm_denials_total":             float64(doc.NVMDenials),
			"nvmstore_nvm_evictions_total":           float64(doc.NVMEvictions),
			"nvmstore_log_commits_total":             float64(doc.LogCommits),
			"nvmstore_log_flushes_total":             float64(doc.LogFlushes),
			"nvmstore_ckpt_rounds_total":             float64(doc.CkptRounds),
			"nvmstore_ckpt_pages_total":              float64(doc.CkptPages),
			"nvmstore_ckpt_truncated_bytes_total":    float64(doc.CkptTruncatedBytes),
			"nvmstore_read_snapshot_reads_total":     float64(doc.ReadSnapshotReads),
			"nvmstore_read_versions_reclaimed_total": float64(doc.ReadVersionsReclaimed),
			"nvmstore_read_versions_live":            float64(doc.ReadVersionsLive),
			"nvmstore_read_version_chain_max":        float64(doc.ReadVersionChainMax),
			"nvmstore_read_active_snapshots":         float64(doc.ReadActiveSnapshots),
			"nvmstore_trace_sampled_total":           float64(snap.sampled),
		}
		if len(got) != len(want) {
			t.Fatalf("/metrics has %d scalar samples, the STATS document accounts for %d:\n%s", len(got), len(want), b.String())
		}
		for name, w := range want {
			if g, ok := got[name]; !ok || g != w {
				t.Fatalf("round %d: %s = %v (present %v) in /metrics, %v in the STATS document of the same snapshot", round, name, g, ok, w)
			}
		}
	}
}
