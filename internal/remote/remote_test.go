package remote_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nvmstore"
	"nvmstore/internal/obs"
	"nvmstore/internal/remote"
	"nvmstore/internal/server"
)

// startServer serves a small sharded store on a loopback listener, the
// same harness the server package's own tests use.
func startServer(t *testing.T, shards int) string {
	t.Helper()
	store, err := nvmstore.OpenSharded(shards, nvmstore.Options{
		Architecture: nvmstore.ThreeTier,
		DRAMBytes:    8 << 20,
		NVMBytes:     32 << 20,
		SSDBytes:     128 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.CreateTable(1, 128); err != nil {
		t.Fatal(err)
	}
	srv := server.New(store, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-errc; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return ln.Addr().String()
}

// TestRemoteTraceAttribution runs the wire workload with tracing on and
// checks the result carries a p99 stage decomposition whose stages sum
// exactly to its total — the invariant the bench-smoke CI step validates
// from the JSON output.
func TestRemoteTraceAttribution(t *testing.T) {
	addr := startServer(t, 2)
	res, err := remote.Run(remote.Options{
		Addr:        addr,
		Clients:     2,
		Depth:       8,
		Rows:        500,
		Load:        true,
		WritePct:    20,
		Ops:         2000,
		Warmup:      200,
		TraceSample: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	attr := res.Attribution
	if attr == nil {
		t.Fatal("traced run returned no attribution")
	}
	if attr.Count == 0 || attr.TailCount == 0 || attr.TotalNs <= 0 {
		t.Fatalf("degenerate attribution: %+v", attr)
	}
	if got := attr.SumNs(); got != attr.TotalNs {
		t.Fatalf("stage sum %d != total %d", got, attr.TotalNs)
	}
	var traced bool
	for _, n := range res.Notes {
		traced = traced || strings.HasPrefix(n, "trace:")
	}
	if !traced {
		t.Fatalf("no trace note in %q", res.Notes)
	}

	// The decomposition must survive the JSON round trip with the same
	// sum-to-total invariant, since external tooling reads it there.
	dir := t.TempDir()
	path, err := res.SaveJSON(dir)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Attribution *obs.Attribution `json:"attribution"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Attribution == nil {
		t.Fatalf("attribution missing from %s", filepath.Base(path))
	}
	if doc.Attribution.SumNs() != doc.Attribution.TotalNs {
		t.Fatalf("JSON attribution stages sum %d != total %d",
			doc.Attribution.SumNs(), doc.Attribution.TotalNs)
	}
}

// TestRemoteUntracedHasNoAttribution pins the default: no TraceSample,
// no attribution section and no trace note.
func TestRemoteUntracedHasNoAttribution(t *testing.T) {
	addr := startServer(t, 1)
	res, err := remote.Run(remote.Options{
		Addr:    addr,
		Clients: 1,
		Depth:   4,
		Rows:    100,
		Load:    true,
		Ops:     300,
		Warmup:  50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Attribution != nil {
		t.Fatalf("untraced run has attribution: %+v", res.Attribution)
	}
	for _, n := range res.Notes {
		if strings.HasPrefix(n, "trace:") {
			t.Fatalf("untraced run has trace note: %q", n)
		}
	}
}

// TestRemoteReportsSocketCalls pins the wire path's counter note: a run
// reports the server's socket reads and writes per operation from its
// STATS deltas. However the pipeline happens to bunch, neither can
// exceed one per operation (unbuffered frame reads cost two), a write
// carries at least one frame, and a shard-lock hold at least one request
// and at most a burst.
func TestRemoteReportsSocketCalls(t *testing.T) {
	addr := startServer(t, 1)
	res, err := remote.Run(remote.Options{
		Addr:    addr,
		Clients: 1,
		Depth:   4,
		Rows:    100,
		Load:    true,
		Ops:     2000,
		Warmup:  50,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range res.Notes {
		var reads, writes, perWrite, perHold float64
		if _, err := fmt.Sscanf(n, "server socket calls: %f reads/op, %f writes/op, %f frames per write, %f requests per shard-lock hold",
			&reads, &writes, &perWrite, &perHold); err != nil {
			continue
		}
		if reads <= 0 || reads > 1.01 || writes <= 0 || writes > 1.01 || perWrite < 1 || perHold < 1 || perHold > 64 {
			t.Fatalf("socket calls out of range: %q", n)
		}
		t.Log(n)
		return
	}
	t.Fatalf("no socket-call note in %q", res.Notes)
}
