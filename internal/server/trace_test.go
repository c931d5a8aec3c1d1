package server_test

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"nvmstore"
	"nvmstore/internal/client"
	"nvmstore/internal/core"
	"nvmstore/internal/obs"
	"nvmstore/internal/offheap"
	"nvmstore/internal/server"
	"nvmstore/internal/wire"
)

// statsDoc fetches and decodes the server's STATS document.
func statsDoc(t *testing.T, cl *client.Client) server.StatsDoc {
	t.Helper()
	raw, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var doc server.StatsDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// drain shuts the server down. A connection publishes a traced request's
// timeline after the response bytes are on the socket, so a client
// holding every response may still be one burst per connection ahead of
// the flight recorder; Shutdown joins every connection and is the barrier
// behind which the recorder's counts are exact.
func drain(t *testing.T, srv *server.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestTracingEndToEnd drives traced pipelined traffic through the full
// path — client stamp, wire v2, burst grouping, batched execution, group
// commit, burst write — and checks the flight recorder's timelines are
// internally consistent.
func TestTracingEndToEnd(t *testing.T) {
	srv, _, addr := startServer(t, 2, server.Options{})
	cl, err := client.Dial(addr, client.Options{Conns: 2, Depth: 32, TraceSample: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const ops = 256
	var calls []*client.Call
	for i := uint64(0); i < ops; i++ {
		if i%2 == 0 {
			calls = append(calls, cl.PutAsync(testTable, i, rowFor(i)))
		} else {
			calls = append(calls, cl.GetAsync(testTable, i-1))
		}
	}
	for _, call := range calls {
		if _, err := call.Result(); err != nil {
			t.Fatal(err)
		}
	}
	if got := cl.TraceStamped(); got != ops {
		t.Fatalf("TraceStamped = %d, want %d", got, ops)
	}

	// The trace section must surface through STATS over the wire (its
	// exact count is checked behind the drain barrier below).
	doc := statsDoc(t, cl)
	if doc.Trace == nil {
		t.Fatal("STATS trace section missing")
	}
	if len(doc.ShardQueueDepth) != 2 {
		t.Fatalf("per-shard gauge missing: %+v", doc)
	}
	if doc.ExecBatches < 1 || doc.ExecBatches > ops {
		t.Fatalf("exec_batches = %d for %d keyed ops", doc.ExecBatches, ops)
	}
	if doc.MaxConns == 0 {
		t.Fatal("MaxConns not reported")
	}

	drain(t, srv)
	snap := srv.TraceSnapshot()
	if snap.Sampled != ops {
		t.Fatalf("flight recorder sampled %d, want %d", snap.Sampled, ops)
	}
	if len(snap.Sample) == 0 || len(snap.Slowest) == 0 {
		t.Fatal("empty flight recorder snapshot")
	}
	for _, tl := range snap.Sample {
		if tl.TraceID == 0 {
			t.Fatal("timeline with zero trace id")
		}
		if tl.Op != "get" && tl.Op != "put" {
			t.Fatalf("unexpected op %q", tl.Op)
		}
		if tl.Shard < 0 || tl.Shard >= 2 {
			t.Fatalf("timeline shard %d out of range", tl.Shard)
		}
		var sum int64
		for _, ns := range tl.Stages {
			if ns < 0 {
				t.Fatalf("negative stage in %+v", tl)
			}
			sum += ns
		}
		if sum != tl.TotalNs {
			t.Fatalf("stage sum %d != total %d (%+v)", sum, tl.TotalNs, tl)
		}
		if tl.Tiers.DRAMHits < 0 || tl.Tiers.NVMLineLoads < 0 || tl.Tiers.SSDReads < 0 {
			t.Fatalf("negative tier delta: %+v", tl.Tiers)
		}
	}
	if snap.P99.Count != len(snap.Sample) || snap.P99.SumNs() != snap.P99.TotalNs {
		t.Fatalf("attribution inconsistent: %+v", snap.P99)
	}

	// The same snapshot feeds the STATS document.
	if tr := srv.Stats().Trace; tr == nil || tr.Sampled != ops {
		t.Fatalf("STATS trace section missing or wrong: %+v", tr)
	}
}

// TestTracingSampling checks every-Nth selection: with TraceSample 4,
// about a quarter of keyed requests are stamped.
func TestTracingSampling(t *testing.T) {
	srv, _, addr := startServer(t, 1, server.Options{})
	cl, err := client.Dial(addr, client.Options{TraceSample: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const ops = 100
	for i := uint64(0); i < ops; i++ {
		if err := cl.Put(testTable, i, rowFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := cl.TraceStamped(); got != ops/4 {
		t.Fatalf("TraceStamped = %d, want %d", got, ops/4)
	}
	// STATS itself must not be stamped (not a keyed op).
	if _, err := cl.Stats(); err != nil {
		t.Fatal(err)
	}
	if got := cl.TraceStamped(); got != ops/4 {
		t.Fatalf("non-keyed op was stamped: %d", got)
	}
	drain(t, srv)
	if snap := srv.TraceSnapshot(); snap.Sampled != ops/4 {
		t.Fatalf("server sampled %d, want %d", snap.Sampled, ops/4)
	}
}

// TestTracingConcurrent hammers the traced path from many pipelined
// clients at once — the -race CI job runs this to pin down the
// timeline handoff ordering (reader → recorder → snapshot).
func TestTracingConcurrent(t *testing.T) {
	srv, _, addr := startServer(t, 4, server.Options{})
	const clients = 4
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := client.Dial(addr, client.Options{Conns: 2, Depth: 16, TraceSample: 2})
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			var calls []*client.Call
			for i := uint64(0); i < 200; i++ {
				key := uint64(c)*1000 + i
				calls = append(calls, cl.PutAsync(testTable, key, rowFor(key)))
				calls = append(calls, cl.GetAsync(testTable, key))
				if len(calls) >= 16 {
					if _, err := calls[0].Result(); err != nil {
						t.Error(err)
						return
					}
					calls = calls[1:]
				}
			}
			for _, call := range calls {
				if _, err := call.Result(); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	// Snapshot concurrently with the load: readers must be safe.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			snap := srv.TraceSnapshot()
			for _, tl := range snap.Sample {
				var sum int64
				for _, ns := range tl.Stages {
					sum += ns
				}
				if tl.TotalNs != 0 && sum != tl.TotalNs {
					t.Errorf("torn timeline in snapshot: %+v", tl)
					return
				}
			}
		}
	}()
	wg.Wait()
	<-done
	if snap := srv.TraceSnapshot(); snap.Sampled == 0 {
		t.Fatal("nothing sampled")
	}
}

// TestPrometheusExport renders the server's metrics and lints them as
// Prometheus text format — the acceptance check behind curl /metrics.
func TestPrometheusExport(t *testing.T) {
	srv, _, addr := startServer(t, 2, server.Options{})
	cl, err := client.Dial(addr, client.Options{TraceSample: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := uint64(0); i < 64; i++ {
		if err := cl.Put(testTable, i, rowFor(i)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := cl.Get(testTable, i); err != nil {
			t.Fatal(err)
		}
	}
	var b strings.Builder
	p := obs.NewPromWriter(&b)
	srv.WritePrometheus(p)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if err := obs.LintPromText([]byte(out)); err != nil {
		t.Fatalf("prometheus lint: %v\n%s", err, out)
	}
	// The STATS scalars are TestPrometheusMatchesStats's; these are the
	// hand-written histogram families.
	for _, want := range []string{
		`nvmstore_wire_latency_ns_bucket{op="get",le="+Inf"}`,
		`nvmstore_wire_latency_ns_count{op="put"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestMetricsJSONIsLive: /metrics.json is the STATS document built on the
// request, so a PUT acknowledged just before it shows there — no sleep, no
// refresh period to wait out.
func TestMetricsJSONIsLive(t *testing.T) {
	srv, _, addr := startServer(t, 1, server.Options{})
	dbg, err := obs.StartDebug("127.0.0.1:0", func() any { return srv.Stats() })
	if err != nil {
		t.Fatal(err)
	}
	defer dbg.Close()
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	fetch := func() server.StatsDoc {
		resp, err := http.Get("http://" + dbg.Addr().String() + "/metrics.json")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var doc server.StatsDoc
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		return doc
	}
	before := fetch()
	if err := cl.Put(testTable, 1, rowFor(1)); err != nil {
		t.Fatal(err)
	}
	if after := fetch(); after.Ops != before.Ops+1 || after.LogCommits != before.LogCommits+1 {
		t.Fatalf("/metrics.json after one PUT: ops %d -> %d, log_commits %d -> %d",
			before.Ops, after.Ops, before.LogCommits, after.LogCommits)
	}
}

// TestStatsExportsOffheapMapped: STATS offheap_mapped_bytes is the
// process's offheap.Mapped(), which a served store keeps positive. A
// collection may release an earlier test's arenas at any moment, so the
// document is compared with two readings of the counter that bracket it
// and agree.
func TestStatsExportsOffheapMapped(t *testing.T) {
	store, err := nvmstore.OpenSharded(2, nvmstore.Options{
		Architecture: nvmstore.ThreeTier,
		DRAMBytes:    1 << 20,
		NVMBytes:     4 << 20,
		SSDBytes:     16 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.CreateTable(testTable, 100); err != nil {
		t.Fatal(err)
	}
	_, addr := serveStore(t, store, server.Options{})
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for key := uint64(0); key < 100; key++ {
		if err := cl.Put(testTable, key, make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; ; i++ {
		before := offheap.Mapped()
		doc := statsDoc(t, cl)
		if after := offheap.Mapped(); after != before {
			if i == 10 {
				t.Fatalf("offheap.Mapped() changed around each of 10 STATS calls")
			}
			continue
		}
		if doc.OffheapMappedBytes != before || before <= 0 {
			t.Fatalf("STATS offheap_mapped_bytes = %d, offheap.Mapped() = %d (want equal and > 0)", doc.OffheapMappedBytes, before)
		}
		return
	}
}

// TestStatsExportsAdmissionDecisions: on a store whose data outgrows DRAM
// and NVM, STATS carries the §4.2 decisions, the undo journal's lines, the
// log's undo records and folded commits and the footprint per tier, and
// they are the store's own counters summed over the shards.
func TestStatsExportsAdmissionDecisions(t *testing.T) {
	store, err := nvmstore.OpenSharded(2, nvmstore.Options{
		Architecture: nvmstore.ThreeTier,
		DRAMBytes:    256 << 10,
		NVMBytes:     1 << 20,
		SSDBytes:     64 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	row := make([]byte, 1000)
	if _, err := store.CreateTable(testTable, len(row)); err != nil {
		t.Fatal(err)
	}
	_, addr := serveStore(t, store, server.Options{})
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	folded := statsDoc(t, cl).LogFoldedCommits
	// Even keys are inserted, then updated; odd keys are then inserted
	// between them, into leaves that already own an NVM slot.
	for pass := 0; pass < 3; pass++ {
		for i := uint64(0); i < 6000; i++ {
			if err := cl.Put(testTable, 2*i+uint64(pass/2), row); err != nil {
				t.Fatal(err)
			}
		}
	}
	doc := statsDoc(t, cl)
	buf := store.Metrics().Buffer
	if doc.NVMAdmissions != buf.NVMAdmissions || doc.NVMDenials != buf.NVMDenials || doc.NVMEvictions != buf.NVMEvictions {
		t.Fatalf("STATS admissions/denials/evictions = %d/%d/%d, store counted %d/%d/%d",
			doc.NVMAdmissions, doc.NVMDenials, doc.NVMEvictions, buf.NVMAdmissions, buf.NVMDenials, buf.NVMEvictions)
	}
	if doc.NVMAdmissions == 0 || doc.NVMDenials == 0 {
		t.Fatalf("data of 3x NVM produced %d admissions and %d denials", doc.NVMAdmissions, doc.NVMDenials)
	}
	if want := buf.NVMLinesWrittenBy[core.CauseJournal]; doc.NVMJournalLines != want || want == 0 {
		t.Fatalf("STATS nvm_journal_lines = %d, store counted %d (want > 0)", doc.NVMJournalLines, want)
	}
	// Each autocommit PUT is a one-update transaction, folded with its
	// commit unless a split or a steal came between.
	if want := store.Metrics().Log.Folded; doc.LogFoldedCommits != want || want == folded {
		t.Fatalf("STATS log_folded_commits = %d, store counted %d (%d before the PUTs)", doc.LogFoldedCommits, want, folded)
	}
	// One transaction rewriting rows on more leaves than DRAM holds steals
	// its own pages, and each steal logs the undo of what it exposes.
	undos := doc.LogUndoRecords
	tx, err := cl.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 12000; i += 40 {
		if err := tx.Put(testTable, i, row); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	doc = statsDoc(t, cl)
	if want := store.Metrics().Log.Undos; doc.LogUndoRecords != want || want == undos {
		t.Fatalf("STATS log_undo_records = %d, store counted %d (%d before the transaction)", doc.LogUndoRecords, want, undos)
	}
	// The footprint gauges are the shards' residency summed, and data of
	// 3x NVM occupies every tier.
	res := store.Metrics().Residency
	if doc.DRAMBytesUsed != res.DRAMBytesUsed || doc.NVMPages != res.NVMPages || doc.SSDPages != res.SSDPages || doc.SSDStoredBytes != res.SSDStoredBytes {
		t.Fatalf("STATS dram_bytes_used/nvm_pages/ssd_pages/ssd_stored_bytes = %d/%d/%d/%d, store has %d/%d/%d/%d",
			doc.DRAMBytesUsed, doc.NVMPages, doc.SSDPages, doc.SSDStoredBytes, res.DRAMBytesUsed, res.NVMPages, res.SSDPages, res.SSDStoredBytes)
	}
	if res.DRAMBytesUsed == 0 || res.NVMPages == 0 || res.SSDPages == 0 || res.SSDStoredBytes == 0 {
		t.Fatalf("data of 3x NVM left dram_bytes_used/nvm_pages/ssd_pages/ssd_stored_bytes = %d/%d/%d/%d",
			res.DRAMBytesUsed, res.NVMPages, res.SSDPages, res.SSDStoredBytes)
	}
}

// TestConnWaitsSaturation pins the MaxConns saturation counter: with a
// single connection slot occupied, the acceptor finds the cap exhausted
// and counts it.
func TestConnWaitsSaturation(t *testing.T) {
	_, _, addr := startServer(t, 1, server.Options{MaxConns: 1})
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// The acceptor, having handed the only slot to cl's connection,
	// now waits for a free slot before the next accept and counts the
	// saturation. Poll STATS until it shows.
	for i := 0; i < 200; i++ {
		doc := statsDoc(t, cl)
		if doc.MaxConns != 1 {
			t.Fatalf("MaxConns = %d, want 1", doc.MaxConns)
		}
		if doc.ConnWaits >= 1 {
			return
		}
	}
	t.Fatal("ConnWaits never incremented under MaxConns saturation")
}

// TestUntracedRequestsRecordNothing: with TraceSample off, the flight
// recorder stays empty and STATS carries no trace section.
func TestUntracedRequestsRecordNothing(t *testing.T) {
	srv, _, addr := startServer(t, 1, server.Options{})
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := uint64(0); i < 32; i++ {
		if err := cl.Put(testTable, i, rowFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	if snap := srv.TraceSnapshot(); snap.Sampled != 0 {
		t.Fatalf("untraced run sampled %d", snap.Sampled)
	}
	if doc := statsDoc(t, cl); doc.Trace != nil {
		t.Fatalf("untraced run has trace section: %+v", doc.Trace)
	}
	// And the wire stayed on version 1 end to end (the client would
	// have stamped Flags otherwise).
	if cl.TraceStamped() != 0 {
		t.Fatal("client stamped without TraceSample")
	}
	_ = wire.FlagTraced // keep the import honest about what's off
}
