package server_test

import (
	"context"
	"net"
	"testing"
	"time"

	"nvmstore"
	"nvmstore/internal/client"
	"nvmstore/internal/server"
)

// startBenchServer is the benchmark twin of startServer: same loopback
// setup, but against testing.B so the allocation benchmarks below can
// use it, with a caller-chosen row size.
func startBenchServer(b *testing.B, shards, rowSize int) string {
	b.Helper()
	store, err := nvmstore.OpenSharded(shards, nvmstore.Options{
		Architecture: nvmstore.ThreeTier,
		DRAMBytes:    8 << 20,
		NVMBytes:     32 << 20,
		SSDBytes:     128 << 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := store.CreateTable(testTable, rowSize); err != nil {
		b.Fatal(err)
	}
	srv := server.New(store, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			b.Errorf("shutdown: %v", err)
		}
		if err := <-errc; err != nil {
			b.Errorf("serve: %v", err)
		}
	})
	return ln.Addr().String()
}

// BenchmarkServeGet measures allocations per pipelined GET round trip —
// client framing, server read/execute/reply, client decode included.
// The serving path draws its frame and row buffers from wire's pool, so
// the steady state should allocate only what must outlive a frame (the
// decoded response's value copy and call bookkeeping).
func BenchmarkServeGet(b *testing.B) {
	addr := startBenchServer(b, 2, testRowSize)
	cl, err := client.Dial(addr, client.Options{Conns: 1, Depth: 64})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	const keys = 512
	for k := uint64(0); k < keys; k++ {
		if err := cl.Put(testTable, k, rowFor(k)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var inflight []*client.Call
	for i := 0; i < b.N; i++ {
		inflight = append(inflight, cl.GetAsync(testTable, uint64(i)%keys))
		if len(inflight) >= 64 {
			if _, err := inflight[0].Result(); err != nil {
				b.Fatal(err)
			}
			inflight = inflight[1:]
		}
	}
	for _, call := range inflight {
		if _, err := call.Result(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServePut is BenchmarkServeGet for the write path: routed
// value copy, group-committed execute, and the OK response.
func BenchmarkServePut(b *testing.B) {
	addr := startBenchServer(b, 2, testRowSize)
	cl, err := client.Dial(addr, client.Options{Conns: 1, Depth: 64})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	row := rowFor(7)
	b.ReportAllocs()
	b.ResetTimer()
	var inflight []*client.Call
	for i := 0; i < b.N; i++ {
		inflight = append(inflight, cl.PutAsync(testTable, uint64(i)%512, row))
		if len(inflight) >= 64 {
			if _, err := inflight[0].Result(); err != nil {
				b.Fatal(err)
			}
			inflight = inflight[1:]
		}
	}
	for _, call := range inflight {
		if _, err := call.Result(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeScan50 measures allocations per 50-row SCAN round trip
// over 1000-byte rows, the ruler's shape: the server builds the 50 KB
// frame in one pooled buffer and the client hands the frame it read to the
// caller, so what is allocated does not grow with the row count (the
// frame, the entry slice, call bookkeeping, the scan's cursors).
func BenchmarkServeScan50(b *testing.B) {
	const rowSize, keys, scanLen = 1000, 512, 50
	addr := startBenchServer(b, 2, rowSize)
	cl, err := client.Dial(addr, client.Options{Conns: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	row := make([]byte, rowSize)
	for k := uint64(0); k < keys; k++ {
		if err := cl.Put(testTable, k, row); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		entries, err := cl.Scan(testTable, uint64(i)%(keys-scanLen), scanLen)
		if err != nil || len(entries) != scanLen {
			b.Fatalf("scan: %d entries, %v", len(entries), err)
		}
	}
}
