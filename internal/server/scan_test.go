package server

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"nvmstore"
	"nvmstore/internal/wire"
)

// openTestStore opens the small two-shard three-tier store the internal
// tests serve, with one table; cleanup closes it.
func openTestStore(t *testing.T, table uint64, rowSize int) (*nvmstore.ShardedStore, *nvmstore.ShardedTable) {
	t.Helper()
	store, err := nvmstore.OpenSharded(2, nvmstore.Options{
		Architecture: nvmstore.ThreeTier,
		DRAMBytes:    8 << 20,
		NVMBytes:     32 << 20,
		SSDBytes:     128 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	tab, err := store.CreateTable(table, rowSize)
	if err != nil {
		t.Fatal(err)
	}
	return store, tab
}

// TestScanFrameBuiltInPlace drives conn.scan on a connection that never
// reaches a socket (one SCAN stays below the flush bounds) and looks at
// what it left in c.out and in the buffer pool. A SCAN that finds no row
// answers the 14-byte frame with count 0; one that fails — unknown table,
// or the store refusing the snapshot — answers RespErr alone, and the
// frame buffer it took went back to the pool exactly once. One P and no
// collection, so that the pool holds what it was given until it is asked —
// except under the race detector, whose sync.Pool drops a quarter of the
// Puts at random: there only "never twice" can be told.
func TestScanFrameBuiltInPlace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for cap(wire.GetBuf()) > 0 { // start from an empty pool
	}
	lossy := false
	for i := 0; i < 64; i++ {
		wire.PutBuf(make([]byte, 8))
		lossy = lossy || cap(wire.GetBuf()) == 0
	}

	const table, rowSize = 1, 64
	store, tab := openTestStore(t, table, rowSize)
	row := bytes.Repeat([]byte{7}, rowSize)
	for key := uint64(0); key < 20; key++ {
		if err := tab.Put(key, row); err != nil {
			t.Fatal(err)
		}
	}
	srv := New(store, Options{})
	c := &conn{srv: srv, groups: make([][]task, store.NumShards())}

	// checkFrames empties c.out and the pool and checks how many buffers
	// able to hold the SCAN's frame the two held together.
	const limit = 50
	checkFrames := func(what string, want int) {
		t.Helper()
		n := 0
		for _, f := range c.out {
			wire.PutBuf(f.buf)
		}
		c.out, c.outBytes = c.out[:0], 0
		for b := wire.GetBuf(); cap(b) > 0; b = wire.GetBuf() {
			if cap(b) >= wire.ScanFrameSize(limit, rowSize) {
				n++
			}
		}
		if n > want || n < want && !lossy {
			t.Fatalf("%s: %d buffers of a SCAN frame's size live, want %d", what, n, want)
		}
	}
	// answered runs one SCAN and decodes the one frame it must queue.
	answered := func(req wire.Request) ([]byte, wire.Response) {
		t.Helper()
		c.scan(req, time.Now())
		if len(c.out) != 1 || c.outBytes != len(c.out[0].buf) {
			t.Fatalf("scan %+v queued %d frames of %d bytes", req, len(c.out), c.outBytes)
		}
		frame := c.out[0].buf
		resp, err := wire.DecodeResponse(frame[4:])
		if err != nil || resp.ID != req.ID {
			t.Fatalf("scan %+v answered %+v, %v", req, resp, err)
		}
		return frame, resp
	}

	frame, resp := answered(wire.Request{Op: wire.OpScan, ID: 1, Table: table, Key: 1000, Limit: limit})
	if resp.Code != wire.RespScan || len(resp.Entries) != 0 || len(frame) != 14 ||
		!bytes.Equal(frame, wire.AppendResponse(nil, wire.Response{Code: wire.RespScan, ID: 1})) {
		t.Fatalf("zero-row scan answered % x", frame)
	}
	checkFrames("zero-row scan", 1) // the one queued

	frame, resp = answered(wire.Request{Op: wire.OpScan, ID: 2, Table: table, Key: 5, Limit: limit})
	if resp.Code != wire.RespScan || len(resp.Entries) != 15 || len(frame) != wire.ScanFrameSize(15, rowSize) {
		t.Fatalf("scan from 5 of 20 rows answered %d entries in %d bytes", len(resp.Entries), len(frame))
	}
	for i, e := range resp.Entries {
		if e.Key != uint64(5+i) || !bytes.Equal(e.Value, row) {
			t.Fatalf("entry %d: key %d", i, e.Key)
		}
	}
	checkFrames("15-row scan", 1)

	_, resp = answered(wire.Request{Op: wire.OpScan, ID: 3, Table: 99, Limit: limit})
	if resp.Code != wire.RespErr || !strings.Contains(resp.Err, "unknown table") {
		t.Fatalf("unknown-table scan answered %+v", resp)
	}
	checkFrames("unknown-table scan", 0) // it takes none

	// A shard with a transaction open refuses the snapshot.
	if err := store.WithShard(1, func(st *nvmstore.Store) error { st.Begin(); return nil }); err != nil {
		t.Fatal(err)
	}
	_, resp = answered(wire.Request{Op: wire.OpScan, ID: 4, Table: table, Limit: limit})
	if err := store.WithShard(1, (*nvmstore.Store).Rollback); err != nil {
		t.Fatal(err)
	}
	if resp.Code != wire.RespErr || !strings.Contains(resp.Err, "snapshot") {
		t.Fatalf("scan on a store that refuses the snapshot answered %+v", resp)
	}
	// Recycled once, the buffer is either in the pool or — taken again for
	// the RespErr frame — in c.out; twice, it would be in both.
	checkFrames("failed scan", 1)
	if ops := srv.stats.ops.Load(); ops != 4 {
		t.Fatalf("4 scans answered, %d counted", ops)
	}
}
