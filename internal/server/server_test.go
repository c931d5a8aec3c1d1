package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nvmstore"
	"nvmstore/internal/client"
	"nvmstore/internal/engine"
	"nvmstore/internal/repl"
	"nvmstore/internal/server"
	"nvmstore/internal/wire"
)

const (
	testTable   = 1
	testRowSize = 64
)

// startServer opens a small sharded three-tier store with one table and
// serves it on a loopback listener. Cleanup drains the server; the
// returned store outlives it for post-shutdown inspection.
func startServer(t *testing.T, shards int, sopts server.Options) (*server.Server, *nvmstore.ShardedStore, string) {
	return startServerRowSize(t, shards, testRowSize, sopts)
}

// startServerRowSize is startServer with a caller-chosen row size, for
// the large-row framing tests.
func startServerRowSize(t *testing.T, shards, rowSize int, sopts server.Options) (*server.Server, *nvmstore.ShardedStore, string) {
	t.Helper()
	store := openStore(t, shards, rowSize)
	srv, addr := serveStore(t, store, sopts)
	return srv, store, addr
}

// openStore opens the small sharded three-tier store the tests serve,
// with its one table.
func openStore(t *testing.T, shards, rowSize int) *nvmstore.ShardedStore {
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
	if _, err := store.CreateTable(testTable, rowSize); err != nil {
		t.Fatal(err)
	}
	return store
}

// serveStore serves an already opened store on a loopback listener, for
// tests whose server options or set-up need the store first. Cleanup
// drains the server.
func serveStore(t *testing.T, store *nvmstore.ShardedStore, sopts server.Options) (*server.Server, string) {
	t.Helper()
	srv := server.New(store, sopts)
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
	return srv, ln.Addr().String()
}

// rowFor builds a deterministic row payload for key.
func rowFor(key uint64) []byte {
	row := make([]byte, testRowSize)
	binary.BigEndian.PutUint64(row, key)
	for i := 8; i < len(row); i++ {
		row[i] = byte(key) + byte(i)
	}
	return row
}

func TestBasicOps(t *testing.T) {
	_, _, addr := startServer(t, 4, server.Options{})
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if _, found, err := cl.Get(testTable, 1); err != nil || found {
		t.Fatalf("get on empty table: found=%v err=%v", found, err)
	}
	for key := uint64(1); key <= 32; key++ {
		if err := cl.Put(testTable, key, rowFor(key)); err != nil {
			t.Fatalf("put %d: %v", key, err)
		}
	}
	for key := uint64(1); key <= 32; key++ {
		val, found, err := cl.Get(testTable, key)
		if err != nil || !found {
			t.Fatalf("get %d: found=%v err=%v", key, found, err)
		}
		if !bytes.Equal(val, rowFor(key)) {
			t.Fatalf("get %d: wrong row", key)
		}
	}
	// Overwrite must replace, not error.
	if err := cl.Put(testTable, 5, rowFor(500)); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	if val, _, _ := cl.Get(testTable, 5); !bytes.Equal(val, rowFor(500)) {
		t.Fatal("overwrite not visible")
	}
	// Short put zero-pads.
	if err := cl.Put(testTable, 6, []byte("short")); err != nil {
		t.Fatalf("short put: %v", err)
	}
	val, _, _ := cl.Get(testTable, 6)
	if len(val) != testRowSize || !bytes.Equal(val[:5], []byte("short")) || val[5] != 0 {
		t.Fatal("short put not zero-padded")
	}
	// Oversized put fails remotely without killing the connection.
	if err := cl.Put(testTable, 7, make([]byte, testRowSize+1)); err == nil {
		t.Fatal("oversized put accepted")
	} else if _, ok := err.(*client.RemoteError); !ok {
		t.Fatalf("oversized put: got %T, want *client.RemoteError", err)
	}
	if _, _, err := cl.Get(testTable, 1); err != nil {
		t.Fatalf("connection unusable after remote error: %v", err)
	}

	if found, err := cl.Delete(testTable, 9); err != nil || !found {
		t.Fatalf("delete: found=%v err=%v", found, err)
	}
	if _, found, _ := cl.Get(testTable, 9); found {
		t.Fatal("deleted key still visible")
	}
	if found, err := cl.Delete(testTable, 9); err != nil || found {
		t.Fatalf("re-delete: found=%v err=%v", found, err)
	}

	// Scan is globally ordered and respects the limit.
	entries, err := cl.Scan(testTable, 10, 5)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(entries) != 5 {
		t.Fatalf("scan returned %d entries, want 5", len(entries))
	}
	for i, e := range entries {
		if want := uint64(10 + i); e.Key != want {
			t.Fatalf("scan entry %d: key %d, want %d", i, e.Key, want)
		}
	}

	// Unknown table errors per request.
	if err := cl.Put(99, 1, []byte("x")); err == nil {
		t.Fatal("put to unknown table accepted")
	}

	buf, err := cl.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	var doc server.StatsDoc
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatalf("stats json: %v", err)
	}
	if doc.Shards != 4 || doc.Ops == 0 || len(doc.Wire) == 0 {
		t.Fatalf("implausible stats: %+v", doc)
	}
}

// TestReadsAreNotTransactions pins that a wire GET is a pure read: a
// thousand of them (hits and misses) append nothing to any shard's log
// and leave every shard's MVCC transaction stamp where it was.
func TestReadsAreNotTransactions(t *testing.T) {
	_, store, addr := startServer(t, 2, server.Options{})
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for key := uint64(0); key < 64; key++ {
		if err := cl.Put(testTable, key, rowFor(key)); err != nil {
			t.Fatal(err)
		}
	}
	stamps := func() []uint64 {
		out := make([]uint64, store.NumShards())
		for i := range out {
			err := store.WithShard(i, func(st *nvmstore.Store) error {
				out[i] = engine.Of(st).Versions().Stamp()
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	records, before := store.Metrics().Log.Records, stamps()
	for i := uint64(0); i < 1000; i++ {
		if _, found, err := cl.Get(testTable, i%128); err != nil || found != (i%128 < 64) {
			t.Fatalf("get %d: found=%v err=%v", i%128, found, err)
		}
	}
	if got := store.Metrics().Log.Records; got != records {
		t.Fatalf("1000 GETs appended %d log records", got-records)
	}
	for i, after := range stamps() {
		if after != before[i] {
			t.Fatalf("1000 GETs moved shard %d's transaction stamp %d -> %d", i, before[i], after)
		}
	}
}

// TestConcurrentPipelinedClients exercises the full path under -race:
// several clients, each pipelining deeply, hitting every shard from
// overlapping goroutines — twelve connection readers executing on four
// shards and writing their own responses.
func TestConcurrentPipelinedClients(t *testing.T) {
	srv, _, addr := startServer(t, 4, server.Options{})
	const (
		workers = 6
		perW    = 300
		depth   = 32
	)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := client.Dial(addr, client.Options{Conns: 2, Depth: depth})
			if err != nil {
				errs[w] = err
				return
			}
			defer cl.Close()
			var inflight []*client.Call
			for i := 0; i < perW; i++ {
				key := uint64(w*perW + i)
				inflight = append(inflight, cl.PutAsync(testTable, key, rowFor(key)))
				inflight = append(inflight, cl.GetAsync(testTable, uint64(w*perW+i/2)))
				for len(inflight) > depth {
					if _, err := inflight[0].Result(); err != nil {
						errs[w] = fmt.Errorf("op %d: %w", i, err)
						return
					}
					inflight = inflight[1:]
				}
			}
			for _, call := range inflight {
				if _, err := call.Result(); err != nil {
					errs[w] = err
					return
				}
			}
			// Verify this worker's keys, interleaved with the others.
			for i := 0; i < perW; i++ {
				key := uint64(w*perW + i)
				val, found, err := cl.Get(testTable, key)
				if err != nil || !found || !bytes.Equal(val, rowFor(key)) {
					errs[w] = fmt.Errorf("verify %d: found=%v err=%v", key, found, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	// Shutdown joins the readers, so the counters owe nothing to a
	// connection still finishing its last burst.
	drain(t, srv)
	if got := srv.Stats().Ops; got < workers*perW*3 {
		t.Fatalf("server answered %d ops, want >= %d", got, workers*perW*3)
	}
	if rows := srv.Stats().Wire; len(rows) == 0 {
		t.Fatal("no wire latency recorded")
	}
}

func TestTransactions(t *testing.T) {
	_, _, addr := startServer(t, 4, server.Options{})
	cl, err := client.Dial(addr, client.Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.Put(testTable, 100, rowFor(100)); err != nil {
		t.Fatal(err)
	}

	// Read-your-writes inside the transaction, invisible outside until
	// commit.
	tx, err := cl.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Put(testTable, 200, rowFor(200)); err != nil {
		t.Fatal(err)
	}
	if val, found, err := tx.Get(testTable, 200); err != nil || !found || !bytes.Equal(val, rowFor(200)) {
		t.Fatalf("tx read-your-writes: found=%v err=%v", found, err)
	}
	if err := tx.Delete(testTable, 100); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := tx.Get(testTable, 100); found {
		t.Fatal("tx does not see its own delete")
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if _, found, _ := cl.Get(testTable, 100); found {
		t.Fatal("committed delete not applied")
	}
	if val, found, _ := cl.Get(testTable, 200); !found || !bytes.Equal(val, rowFor(200)) {
		t.Fatal("committed put not applied")
	}

	// Rollback discards buffered writes.
	tx2, err := cl.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx2.Put(testTable, 300, rowFor(300)); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Rollback(); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := cl.Get(testTable, 300); found {
		t.Fatal("rolled-back put applied")
	}

	// Cross-shard commit: keys land on different shards, all must apply.
	tx3, err := cl.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for key := uint64(400); key < 420; key++ {
		if err := tx3.Put(testTable, key, rowFor(key)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx3.Commit(); err != nil {
		t.Fatal(err)
	}
	for key := uint64(400); key < 420; key++ {
		if val, found, _ := cl.Get(testTable, key); !found || !bytes.Equal(val, rowFor(key)) {
			t.Fatalf("cross-shard commit lost key %d", key)
		}
	}
}

// TestDrainNoLostAcknowledgedWrites is the durability contract test:
// clients hammer autocommit PUTs while the server drains mid-stream;
// every PUT that was acknowledged must survive a power failure and
// recovery of the store — and be readable through a fresh server.
func TestDrainNoLostAcknowledgedWrites(t *testing.T) {
	store, err := nvmstore.OpenSharded(4, nvmstore.Options{
		Architecture: nvmstore.ThreeTier,
		DRAMBytes:    8 << 20,
		NVMBytes:     32 << 20,
		SSDBytes:     128 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.CreateTable(testTable, testRowSize); err != nil {
		t.Fatal(err)
	}
	srv := server.New(store, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	addr := ln.Addr().String()

	const workers = 4
	var acked [workers][]uint64
	var started atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := client.Dial(addr, client.Options{Depth: 8})
			if err != nil {
				return
			}
			defer cl.Close()
			for i := 0; ; i++ {
				key := uint64(w)<<32 | uint64(i)
				started.Add(1)
				if err := cl.Put(testTable, key, rowFor(key)); err != nil {
					return // drain reached this connection
				}
				acked[w] = append(acked[w], key)
			}
		}(w)
	}

	// Let the writers get going, then drain mid-stream.
	for started.Load() < 200 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("serve: %v", err)
	}
	wg.Wait()

	total := 0
	for w := range acked {
		total += len(acked[w])
	}
	if total == 0 {
		t.Fatal("no writes were acknowledged before the drain")
	}
	t.Logf("%d acknowledged writes before drain", total)

	// Power-fail the drained store and recover from the log.
	if _, err := store.CrashRestart(); err != nil {
		t.Fatalf("crash restart: %v", err)
	}

	// Every acknowledged write must be there — through a fresh server.
	srv2 := server.New(store, server.Options{})
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errc2 := make(chan error, 1)
	go func() { errc2 <- srv2.Serve(ln2) }()
	cl, err := client.Dial(ln2.Addr().String(), client.Options{Depth: 64})
	if err != nil {
		t.Fatal(err)
	}
	for w := range acked {
		for _, key := range acked[w] {
			val, found, err := cl.Get(testTable, key)
			if err != nil {
				t.Fatalf("get %#x after recovery: %v", key, err)
			}
			if !found {
				t.Fatalf("acknowledged write %#x lost by drain + crash recovery", key)
			}
			if !bytes.Equal(val, rowFor(key)) {
				t.Fatalf("acknowledged write %#x corrupted", key)
			}
		}
	}
	cl.Close()
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	if err := srv2.Shutdown(ctx2); err != nil {
		t.Fatalf("shutdown 2: %v", err)
	}
	if err := <-errc2; err != nil {
		t.Fatalf("serve 2: %v", err)
	}
	if err := store.Close(); err != nil {
		t.Fatalf("close store: %v", err)
	}
}

// TestAutocommitDuringTransaction is the regression test for the
// ack ⇒ durable contract of autocommit writes issued while another
// transaction is open on the same client: the transaction runs on its
// own dedicated connection, so the pooled connections must never buffer
// an autocommit write into it (and Rollback must not discard one).
func TestAutocommitDuringTransaction(t *testing.T) {
	_, _, addr := startServer(t, 4, server.Options{})
	cl, err := client.Dial(addr, client.Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	tx, err := cl.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Put(testTable, 2, rowFor(2)); err != nil {
		t.Fatal(err)
	}

	// Autocommit write on the pooled connection while the tx is open:
	// committed immediately, regardless of the open transaction.
	if err := cl.Put(testTable, 1, rowFor(1)); err != nil {
		t.Fatalf("autocommit put during tx: %v", err)
	}
	if val, found, err := cl.Get(testTable, 1); err != nil || !found || !bytes.Equal(val, rowFor(1)) {
		t.Fatalf("autocommit put not visible while tx open: found=%v err=%v", found, err)
	}
	// The tx's buffered write stays invisible to autocommit reads.
	if _, found, _ := cl.Get(testTable, 2); found {
		t.Fatal("buffered tx write visible to autocommit read")
	}

	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	// Rollback discards only the tx buffer, never the acknowledged
	// autocommit write.
	if val, found, err := cl.Get(testTable, 1); err != nil || !found || !bytes.Equal(val, rowFor(1)) {
		t.Fatalf("rollback discarded an acknowledged autocommit write: found=%v err=%v", found, err)
	}
	if _, found, _ := cl.Get(testTable, 2); found {
		t.Fatal("rolled-back tx write applied")
	}

	// A finished Tx refuses further use.
	if err := tx.Put(testTable, 3, rowFor(3)); !errors.Is(err, client.ErrTxDone) {
		t.Fatalf("put on finished tx: %v, want ErrTxDone", err)
	}
	if err := tx.Rollback(); !errors.Is(err, client.ErrTxDone) {
		t.Fatalf("double rollback: %v, want ErrTxDone", err)
	}

	// The pooled connection is still healthy for autocommit traffic.
	if err := cl.Put(testTable, 4, rowFor(4)); err != nil {
		t.Fatal(err)
	}
}

// TestScanLargeRowsFitsFrame scans a table whose rows are large enough
// that MaxScan rows would blow past wire.MaxFrame: the server must
// clamp the row limit by encoded bytes so the response still frames and
// the connection survives.
func TestScanLargeRowsFitsFrame(t *testing.T) {
	const rowSize = 8000 // near the btree's per-page payload ceiling
	const rows = 1100
	// MaxScan alone would allow 2048 × (12+8000) ≈ 16MiB — the byte
	// clamp, not the row cap, must bound this response.
	_, _, addr := startServerRowSize(t, 2, rowSize, server.Options{MaxScan: 2048})
	cl, err := client.Dial(addr, client.Options{Depth: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	row := make([]byte, rowSize)
	var inflight []*client.Call
	for key := uint64(0); key < rows; key++ {
		binary.BigEndian.PutUint64(row, key)
		inflight = append(inflight, cl.PutAsync(testTable, key, row))
		if len(inflight) >= 16 {
			if _, err := inflight[0].Result(); err != nil {
				t.Fatalf("put %d: %v", key, err)
			}
			inflight = inflight[1:]
		}
	}
	for _, call := range inflight {
		if _, err := call.Result(); err != nil {
			t.Fatal(err)
		}
	}

	// An unlimited scan would return all 1100 rows ≈ 8.8MiB encoded —
	// past wire.MaxFrame, a dead connection pre-clamp. The byte clamp
	// allows (MaxFrame-64)/(12+rowSize) rows.
	wantMax := (wire.MaxFrame - 64) / (12 + rowSize)
	entries, err := cl.Scan(testTable, 0, 0)
	if err != nil {
		t.Fatalf("large-row scan: %v", err)
	}
	if len(entries) != wantMax {
		t.Fatalf("scan returned %d entries, want the frame-clamped %d", len(entries), wantMax)
	}
	for i, e := range entries {
		if e.Key != uint64(i) || len(e.Value) != rowSize {
			t.Fatalf("entry %d: key %d, %d bytes", i, e.Key, len(e.Value))
		}
	}
	// The connection must still be usable (pre-clamp, the oversized
	// frame killed it).
	if _, found, err := cl.Get(testTable, 0); err != nil || !found {
		t.Fatalf("connection dead after large scan: found=%v err=%v", found, err)
	}
}

// TestScanSurvivesShardRestarts issues wire SCANs while shards are
// crash-restarted underneath them. A restart invalidates the snapshot a
// scan is reading through; the server starts that scan over on a fresh
// snapshot, so every SCAN must succeed and return every row.
func TestScanSurvivesShardRestarts(t *testing.T) {
	const rows = 300
	_, store, addr := startServer(t, 2, server.Options{})
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for key := uint64(0); key < rows; key++ {
		if err := cl.Put(testTable, key, rowFor(key)); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	restarted := make(chan error, 1)
	go func() {
		for i := 0; i < 40; i++ {
			if _, err := store.CrashRestartShard(i % 2); err != nil {
				restarted <- fmt.Errorf("restart %d: %w", i, err)
				return
			}
		}
		restarted <- nil
	}()
	for scans, restarting := 0, true; restarting || scans < 20; scans++ {
		select {
		case err := <-restarted:
			if err != nil {
				t.Fatal(err)
			}
			restarting = false
		default:
		}
		entries, err := cl.Scan(testTable, 0, 0)
		if err != nil {
			t.Fatalf("scan %d: %v", scans, err)
		}
		if len(entries) != rows {
			t.Fatalf("scan %d returned %d rows, want %d", scans, len(entries), rows)
		}
		for i, e := range entries {
			if e.Key != uint64(i) || !bytes.Equal(e.Value, rowFor(e.Key)) {
				t.Fatalf("scan %d entry %d: key %d or its row is wrong", scans, i, e.Key)
			}
		}
	}
}

// TestStalledReaderDoesNotWedgeShard opens a raw connection that floods
// GETs for large rows and never reads a byte of response. That peer must
// block nothing but its own connection: its reader executes a burst,
// releases the shard lock, and only then blocks in its own socket write,
// so a well-behaved client's PUTs and GETs on the same shard complete
// meanwhile — and the write deadline severs the stalled connection, so the
// drain at the end of the test is not held up by it.
func TestStalledReaderDoesNotWedgeShard(t *testing.T) {
	const rowSize = 8000
	_, _, addr := startServerRowSize(t, 1, rowSize, server.Options{
		WriteTimeout: 300 * time.Millisecond,
	})
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	row := make([]byte, rowSize)
	for key := uint64(0); key < 8; key++ {
		if err := cl.Put(testTable, key, row); err != nil {
			t.Fatal(err)
		}
	}

	// The stalled peer: requests ~16MiB of responses, reads none of it.
	// The kernel socket buffers fill, the server's write blocks, and
	// only the write deadline ends it.
	stalled, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	var frames []byte
	for i := 0; i < 2000; i++ {
		frames = wire.AppendRequest(frames, wire.Request{
			Op: wire.OpGet, ID: uint32(i + 1), Table: testTable, Key: uint64(i % 8),
		})
	}
	if _, err := stalled.Write(frames); err != nil {
		t.Fatal(err)
	}

	// The healthy client must still be served, writes included.
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 20; i++ {
			if err := cl.Put(testTable, uint64(i%8), row); err != nil {
				done <- err
				return
			}
			if _, _, err := cl.Get(testTable, uint64(i%8)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("healthy client failed during stall: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("shard wedged by a stalled reader: healthy client starved")
	}
}

// TestShutdownBeforeServe: a Shutdown that runs before Serve has taken
// its listener still stops Serve, which closes the listener and returns
// nil instead of accepting forever.
func TestShutdownBeforeServe(t *testing.T) {
	store := openStore(t, 1, testRowSize)
	t.Cleanup(func() { store.Close() })
	srv := server.New(store, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("serve after shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		ln.Close()
		t.Fatal("Serve kept accepting after Shutdown")
	}
}

func TestShutdownIdempotentAndConnRefusal(t *testing.T) {
	srv, store, addr := startServer(t, 2, server.Options{})
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Put(testTable, 1, rowFor(1)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// Idempotent.
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// The store is left open for the owner.
	if err := store.WithShard(store.ShardFor(1), func(st *nvmstore.Store) error {
		tab := st.Table(testTable)
		buf := make([]byte, testRowSize)
		var found bool
		err := st.Update(func() error {
			var err error
			found, err = tab.Lookup(1, buf)
			return err
		})
		if err != nil {
			return err
		}
		if !found {
			return fmt.Errorf("key 1 missing after drain")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// New requests on the old connection fail.
	if err := cl.Put(testTable, 2, rowFor(2)); err == nil {
		t.Fatal("put after shutdown succeeded")
	}
	cl.Close()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
}

// serverGoroutines counts the goroutines currently running code of this
// package: the acceptor and every connection's reader.
func serverGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("nvmstore/internal/server.(*")) {
			n++
		}
	}
	return n
}

// TestServeStartsNoGoroutinePerShard: a serving connection costs the
// server one goroutine, whatever the shard count — requests run, and their
// responses leave, on the connection that read them.
func TestServeStartsNoGoroutinePerShard(t *testing.T) {
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			_, _, addr := startServer(t, shards, server.Options{})
			cl, err := client.Dial(addr, client.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			for key := uint64(0); key < 32; key++ { // every shard has served
				if err := cl.Put(testTable, key, rowFor(key)); err != nil {
					t.Fatal(err)
				}
			}
			if got := serverGoroutines(); got != 2 {
				t.Fatalf("%d server goroutines over %d shards, want 2: the acceptor and the connection's reader", got, shards)
			}
		})
	}
}

// TestPipelinedScanSeesEarlierPut: the reader executes a connection's
// pending keyed requests before it answers a request it handles itself,
// so PUT k followed by SCAN from k in one pipeline returns the new row.
func TestPipelinedScanSeesEarlierPut(t *testing.T) {
	_, _, addr := startServer(t, 2, server.Options{})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	const n = 200
	var frames []byte
	for k := uint64(0); k < n; k++ { // ids: PUT k is 2k+1, SCAN from k is 2k+2
		frames = wire.AppendRequest(frames, wire.Request{Op: wire.OpPut, ID: uint32(2*k + 1), Table: testTable, Key: k, Value: rowFor(k)})
		frames = wire.AppendRequest(frames, wire.Request{Op: wire.OpScan, ID: uint32(2*k + 2), Table: testTable, Key: k, Limit: 1})
	}
	if _, err := raw.Write(frames); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(raw)
	var buf, payload []byte
	for i := 0; i < 2*n; i++ {
		if payload, buf, err = wire.ReadFrame(br, buf); err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		resp, err := wire.DecodeResponse(payload)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if resp.ID%2 == 1 {
			if resp.Code != wire.RespOK {
				t.Fatalf("put %d: %+v", resp.ID/2, resp)
			}
			continue
		}
		// No larger key exists yet, so a scan that ran before its PUT
		// comes back empty.
		k := uint64(resp.ID/2 - 1)
		if resp.Code != wire.RespScan || len(resp.Entries) != 1 || resp.Entries[0].Key != k || !bytes.Equal(resp.Entries[0].Value, rowFor(k)) {
			t.Fatalf("SCAN from %d pipelined behind PUT %d returned %+v", k, k, resp)
		}
	}
}

// awaitResult waits for a value on c, failing the test after 10 s.
func awaitResult(t *testing.T, c <-chan error, what string) {
	t.Helper()
	select {
	case err := <-c:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: no answer", what)
	}
}

// mutedPrimary serves a one-shard semi-synchronous primary (one replica
// ack per write, a minute's patience) with a live replica attached in
// process that never acknowledges by itself: its items are dropped on the
// floor, so a write's response is held until the test acks for it.
func mutedPrimary(t *testing.T) (*nvmstore.ShardedStore, *repl.Source, *repl.Feed, string) {
	t.Helper()
	store := openStore(t, 1, testRowSize)
	t.Cleanup(func() { store.Close() })
	src := repl.NewSource(store, repl.SourceOptions{SyncReplicas: 1, SyncTimeout: time.Minute})
	_, addr := serveStore(t, store, server.Options{Repl: src})
	mute := src.NewFeed("mute")
	if err := src.Attach(mute, wire.ReplSubscribe{Epoch: 1, From: []uint64{0}}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Detach(mute) })
	go func() {
		for range mute.Items() {
		}
	}()
	return store, src, mute, addr
}

// TestReadsDoNotWaitOnReplicaAcks: with semi-synchronous replication and
// the replica's ack withheld, a PUT's response is held on its own
// connection only — another connection's GET on the same shard returns,
// and sees the committed row, while the PUT is still pending.
func TestReadsDoNotWaitOnReplicaAcks(t *testing.T) {
	_, src, mute, addr := mutedPrimary(t)
	writer, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	reader, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()

	put := writer.PutAsync(testTable, 1, rowFor(1))
	got := make(chan error, 1)
	go func() {
		// The row shows up once the PUT has committed, which is when its
		// connection starts waiting for the ack.
		for {
			_, found, err := reader.Get(testTable, 1)
			if err != nil || found {
				got <- err
				return
			}
		}
	}()
	awaitResult(t, got, "GET on the shard of a PUT that waits for a replica ack")
	select {
	case <-put.Done():
		t.Fatal("PUT was acknowledged before the replica acknowledged it")
	default:
	}
	src.Ack(mute, wire.ReplAck{Epoch: 1, Shard: 0, Applied: math.MaxUint64})
	go func() {
		_, err := put.Result()
		got <- err
	}()
	awaitResult(t, got, "PUT after the replica's ack")
}

// TestSubscribeOKPrecedesFeed: a SUBSCRIBE's OK is on the wire before the
// feed it starts pushes anything. The SUBSCRIBE arrives in one burst
// behind 8 GETs and ahead of a PUT whose acknowledgement a mute replica
// holds back, so the connection's reader is parked mid-burst while the
// feeder pushes the bootstrap: the frame after the 8 values must still be
// the OK.
func TestSubscribeOKPrecedesFeed(t *testing.T) {
	store, src, mute, addr := mutedPrimary(t)
	for key := uint64(0); key < 8; key++ { // what the feed has to ship
		if err := store.Table(testTable).Put(key, rowFor(key)); err != nil {
			t.Fatal(err)
		}
	}

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	const gets, subscribeID, putID = 8, 9, 10
	var frames []byte
	for i := 0; i < gets; i++ {
		frames = wire.AppendRequest(frames, wire.Request{Op: wire.OpGet, ID: uint32(i + 1), Table: testTable, Key: uint64(i)})
	}
	frames = wire.AppendRequest(frames, wire.Request{Op: wire.OpReplSubscribe, ID: subscribeID,
		Value: wire.AppendReplSubscribe(nil, wire.ReplSubscribe{Epoch: 1, From: []uint64{0}})})
	frames = wire.AppendRequest(frames, wire.Request{Op: wire.OpPut, ID: putID, Table: testTable, Key: 100, Value: rowFor(100)})
	if _, err := raw.Write(frames); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(raw)
	var buf []byte
	next := func() wire.Response {
		t.Helper()
		var payload []byte
		if payload, buf, err = wire.ReadFrame(br, buf); err != nil {
			t.Fatal(err)
		}
		resp, err := wire.DecodeResponse(payload)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for i := 0; i < gets; i++ {
		if resp := next(); resp.Code != wire.RespValue || resp.ID != uint32(i+1) {
			t.Fatalf("response %d: code %d id %d, want the value of GET %d", i, resp.Code, resp.ID, i+1)
		}
	}
	if resp := next(); resp.Code != wire.RespOK || resp.ID != subscribeID {
		t.Fatalf("frame after the %d values: code %d id %d, want the SUBSCRIBE's OK", gets, resp.Code, resp.ID)
	}
	// The PUT's reader is still waiting for the mute replica, yet the feed
	// flows; the ack releases the PUT.
	if resp := next(); resp.Code != wire.RespReplSnap && resp.Code != wire.RespReplBatch {
		t.Fatalf("frame after the OK: code %d id %d, want a pushed feed frame", resp.Code, resp.ID)
	}
	src.Ack(mute, wire.ReplAck{Epoch: 1, Shard: 0, Applied: math.MaxUint64})
	for {
		resp := next()
		if resp.ID == putID {
			if resp.Code != wire.RespOK {
				t.Fatalf("PUT behind the SUBSCRIBE: %+v", resp)
			}
			return
		}
		if resp.Code != wire.RespReplSnap && resp.Code != wire.RespReplBatch {
			t.Fatalf("unexpected frame on a feed connection: code %d id %d", resp.Code, resp.ID)
		}
	}
}

// TestCommitOrderDeterministic: a COMMIT applies its shards in ascending
// order, so what a failing multi-shard COMMIT leaves behind is the same
// on every run: shard 0's write (valid table) is committed, shard 1's
// (unknown table) is the one reported.
func TestCommitOrderDeterministic(t *testing.T) {
	_, store, addr := startServer(t, 2, server.Options{})
	cl, err := client.Dial(addr, client.Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	keyOn := func(shard int, from uint64) uint64 {
		for ; store.ShardFor(from) != shard; from++ {
		}
		return from
	}
	var k0, k1 uint64
	for run := 0; run < 50; run++ {
		k0, k1 = keyOn(0, k0+1), keyOn(1, k1+1)
		tx, err := cl.Begin()
		if err != nil {
			t.Fatal(err)
		}
		// Shard 1's write is buffered first: arrival order must not decide.
		if err := tx.Put(99, k1, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Put(testTable, k0, rowFor(k0)); err != nil {
			t.Fatal(err)
		}
		err = tx.Commit()
		if err == nil || !strings.Contains(err.Error(), "commit on shard 1:") {
			t.Fatalf("run %d: COMMIT with an unknown table on shard 1: %v", run, err)
		}
		if val, found, err := cl.Get(testTable, k0); err != nil || !found || !bytes.Equal(val, rowFor(k0)) {
			t.Fatalf("run %d: shard 0's write was not committed ahead of shard 1's failure: found=%v err=%v", run, found, err)
		}
	}
}
