package client

import (
	"bytes"
	"context"
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"nvmstore"
	"nvmstore/internal/server"
	"nvmstore/internal/wire"
)

const (
	testTable   = 1
	testRowSize = 64
)

// startServer serves a small two-shard store with one table on loopback
// and returns its address; cleanup drains the server and closes the
// store.
func startServer(t *testing.T) string {
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
	if _, err := store.CreateTable(testTable, testRowSize); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(store, server.Options{})
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
		if err := store.Close(); err != nil {
			t.Errorf("close store: %v", err)
		}
	})
	return ln.Addr().String()
}

// gateConn is the client end of a net.Pipe whose socket writes the test
// observes and controls: every Write announces itself on entered, then
// waits for a token on release before it proceeds (or fails with the
// error sent instead of a token). Close unblocks a waiting Write.
type gateConn struct {
	net.Conn
	entered chan int   // len(p) of each Write, as it is entered
	release chan error // one value per Write: nil lets it through
	done    chan struct{}
	once    sync.Once
}

func newGateConn(nc net.Conn) *gateConn {
	return &gateConn{
		Conn:    nc,
		entered: make(chan int, 16),
		release: make(chan error, 16),
		done:    make(chan struct{}),
	}
}

func (g *gateConn) Write(p []byte) (int, error) {
	g.entered <- len(p)
	select {
	case err := <-g.release:
		if err != nil {
			return 0, err
		}
	case <-g.done:
		return 0, net.ErrClosed
	}
	return g.Conn.Write(p)
}

func (g *gateConn) Close() error {
	g.once.Do(func() { close(g.done) })
	return g.Conn.Close()
}

// okPeer answers every request frame arriving on nc with a bare OK
// until the connection closes.
func okPeer(nc net.Conn) {
	var buf, out []byte
	for {
		var payload []byte
		var err error
		payload, buf, err = wire.ReadFrame(nc, buf)
		if err != nil {
			return
		}
		req, err := wire.DecodeRequest(payload)
		if err != nil {
			return
		}
		out = wire.AppendResponse(out[:0], wire.Response{Code: wire.RespOK, ID: req.ID})
		if _, err := nc.Write(out); err != nil {
			return
		}
	}
}

// pipeClient builds a one-slot Client whose connection is a gateConn
// over an in-memory pipe answered by okPeer.
func pipeClient(t *testing.T, depth int) (*Client, *conn, *gateConn) {
	t.Helper()
	opts := Options{Depth: depth, Retries: -1}
	opts.applyDefaults()
	cl := &Client{opts: opts, conns: make([]*conn, 1), txConns: make(map[*conn]struct{})}
	near, far := net.Pipe()
	go okPeer(far)
	g := newGateConn(near)
	cn := newConn(cl, g)
	cl.conns[0] = cn
	t.Cleanup(func() {
		cl.Close()
		far.Close()
	})
	return cl, cn, g
}

func waitEntered(t *testing.T, g *gateConn) int {
	t.Helper()
	select {
	case n := <-g.entered:
		return n
	case <-time.After(5 * time.Second):
		t.Fatal("no socket write within 5s: an issued request was never sent")
		return 0
	}
}

func waitResult(t *testing.T, call *Call) error {
	t.Helper()
	select {
	case <-call.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("call not settled within 5s")
	}
	_, err := call.Result()
	return err
}

// TestAsyncPutSentWithoutWaiting: issued implies sent. A PutAsync whose
// Call nobody ever waits on must still reach the server — the deferred
// flush may not depend on Result or Done being called.
func TestAsyncPutSentWithoutWaiting(t *testing.T) {
	addr := startServer(t)
	writer, err := Dial(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	reader, err := Dial(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()

	row := bytes.Repeat([]byte{0xAB}, testRowSize)
	_ = writer.PutAsync(testTable, 42, row) // fire and forget

	deadline := time.Now().Add(5 * time.Second)
	for {
		val, found, err := reader.Get(testTable, 42)
		if err != nil {
			t.Fatal(err)
		}
		if found {
			if !bytes.Equal(val, row) {
				t.Fatalf("row corrupted: %x", val)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("fire-and-forget PutAsync not visible after 5s: the request was never flushed")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDepthBackpressureNeedsNoWaiter: with Depth 2, one goroutine issuing
// three async calls without waiting on any must get through — the third
// can only be admitted once a response to the first two frees a slot,
// and those two are sent with no help from the blocked issuer.
func TestDepthBackpressureNeedsNoWaiter(t *testing.T) {
	addr := startServer(t)
	cl, err := Dial(addr, Options{Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	calls := make(chan []*Call, 1)
	go func() {
		var cs []*Call
		for key := uint64(0); key < 3; key++ {
			cs = append(cs, cl.PutAsync(testTable, key, bytes.Repeat([]byte{byte(key)}, testRowSize)))
		}
		calls <- cs
	}()
	select {
	case cs := <-calls:
		for i, call := range cs {
			if err := waitResult(t, call); err != nil {
				t.Fatalf("call %d: %v", i, err)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("issuing 3 async calls at Depth 2 deadlocked on unsent requests")
	}
}

// TestRequestsIssuedDuringAWriteLeaveTogether pins the coalescing: while
// the first request's socket write is held, N more are issued; they must
// all leave in exactly one further write.
func TestRequestsIssuedDuringAWriteLeaveTogether(t *testing.T) {
	_, cn, g := pipeClient(t, 64)
	req := wire.Request{Op: wire.OpGet, Table: testTable, Key: 7}
	frame := len(wire.AppendRequest(nil, req))

	first := cn.do(req)
	if n := waitEntered(t, g); n != frame {
		t.Fatalf("first write carries %d bytes, want one %d-byte frame", n, frame)
	}
	const burst = 10
	var calls []*Call
	for i := 0; i < burst; i++ {
		calls = append(calls, cn.do(req))
	}
	g.release <- nil
	if n := waitEntered(t, g); n != burst*frame {
		t.Fatalf("second write carries %d bytes, want %d frames = %d bytes", n, burst, burst*frame)
	}
	g.release <- nil
	for _, call := range append(calls, first) {
		if err := waitResult(t, call); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case n := <-g.entered:
		t.Fatalf("a third socket write of %d bytes for %d requests", n, burst+1)
	default:
	}
}

// TestCloseFailsBufferedRequests: Close with one request inside a held
// socket write and more still buffered fails every one of them with
// ErrClosed, and the connection's reader and flusher both exit.
func TestCloseFailsBufferedRequests(t *testing.T) {
	before := runtime.NumGoroutine()
	cl, cn, g := pipeClient(t, 64)
	req := wire.Request{Op: wire.OpGet, Table: testTable, Key: 7}

	calls := []*Call{cn.do(req)}
	waitEntered(t, g) // the flusher is inside the write, holding request 1
	for i := 0; i < 5; i++ {
		calls = append(calls, cn.do(req))
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	for i, call := range calls {
		if err := waitResult(t, call); !errors.Is(err, ErrClosed) {
			t.Fatalf("call %d: %v, want ErrClosed", i, err)
		}
	}
	if err := waitResult(t, cn.do(req)); !errors.Is(err, ErrClosed) {
		t.Fatalf("request issued after Close: %v, want ErrClosed", err)
	}
	// Reader, flusher and the peer goroutine must all be gone.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before, %d after Close:\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFlushErrorFailsPendingAndSlotRedials: a socket write that fails
// takes every pending call down with it — the one in the write and the
// ones buffered behind it — and the pool slot heals on its next use.
func TestFlushErrorFailsPendingAndSlotRedials(t *testing.T) {
	addr := startServer(t)
	cl, err := Dial(addr, Options{Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Swap the pool's connection for one whose writes the test fails.
	near, far := net.Pipe()
	defer far.Close()
	g := newGateConn(near)
	broken := newConn(cl, g)
	cl.mu.Lock()
	cl.conns[0].close(ErrClosed)
	cl.conns[0] = broken
	cl.mu.Unlock()

	row := bytes.Repeat([]byte{1}, testRowSize)
	calls := []*Call{cl.PutAsync(testTable, 1, row)}
	waitEntered(t, g)
	calls = append(calls, cl.PutAsync(testTable, 2, row), cl.PutAsync(testTable, 3, row))
	boom := errors.New("boom")
	g.release <- boom
	for i, call := range calls {
		err := waitResult(t, call)
		if !errors.Is(err, boom) {
			t.Fatalf("call %d: %v, want the write error", i, err)
		}
		if !IsRetryable(err) {
			t.Fatalf("call %d: write error %v not retryable", i, err)
		}
	}
	if !broken.failed() {
		t.Fatal("connection not marked failed after a write error")
	}

	// Next use redials the slot against the real server.
	if err := cl.Put(testTable, 4, row); err != nil {
		t.Fatalf("put after a failed flush: %v", err)
	}
	cl.mu.Lock()
	healed := cl.conns[0] != broken
	cl.mu.Unlock()
	if !healed {
		t.Fatal("pool slot still holds the failed connection")
	}
	if _, found, err := cl.Get(testTable, 1); err != nil || found {
		t.Fatalf("get of a never-sent put: found=%v err=%v", found, err)
	}
}

// rowOf builds the row the ownership test stores under key in generation
// gen, so that later responses carry different bytes than earlier ones.
func rowOf(key uint64, gen byte) []byte {
	row := bytes.Repeat([]byte{gen}, testRowSize)
	row[0] = byte(key)
	return row
}

// TestScanResultOutlivesLaterResponses: what a Call returned belongs to
// its caller. A SCAN result too long for the connection's resident buffer
// is the frame itself, handed over; a short one, and a GET's row, are
// copies out of that buffer. Neither may change when 200 further GET, SCAN
// and PUT responses — of every size, with other bytes — arrive on the same
// connection.
func TestScanResultOutlivesLaterResponses(t *testing.T) {
	addr := startServer(t)
	cl, err := Dial(addr, Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const rows = 120
	for key := uint64(0); key < rows; key++ {
		if err := cl.Put(testTable, key, rowOf(key, 1)); err != nil {
			t.Fatal(err)
		}
	}

	scan := func(limit int) []wire.Entry {
		t.Helper()
		entries, err := cl.Scan(testTable, 0, limit)
		if err != nil || len(entries) != limit {
			t.Fatalf("scan of %d: %d entries, %v", limit, len(entries), err)
		}
		return entries
	}
	long, short := scan(rows), scan(10)
	if frame := wire.ScanFrameSize(rows, testRowSize); frame <= residentBuf {
		t.Fatalf("a %d-row result is %d bytes: it would not leave the %d-byte resident buffer", rows, frame, residentBuf)
	}
	if frame := wire.ScanFrameSize(10, testRowSize); frame > residentBuf {
		t.Fatalf("a 10-row result is %d bytes: it would not fit the %d-byte resident buffer", frame, residentBuf)
	}
	row, found, err := cl.Get(testTable, 5)
	if err != nil || !found {
		t.Fatalf("get: found=%v err=%v", found, err)
	}
	check := func(when string) {
		t.Helper()
		for _, entries := range [][]wire.Entry{long, short} {
			for i, e := range entries {
				if e.Key != uint64(i) || !bytes.Equal(e.Value, rowOf(e.Key, 1)) {
					t.Fatalf("%s: entry %d of a %d-row scan result changed: key %d, row % x", when, i, len(entries), e.Key, e.Value[:4])
				}
			}
		}
		if !bytes.Equal(row, rowOf(5, 1)) {
			t.Fatalf("%s: a GET's row changed: % x", when, row[:4])
		}
	}
	check("at once")

	// 200 more responses on the one connection, a pipeline of 8: rewritten
	// rows, point reads, and scans on both sides of the resident buffer.
	var inflight []*Call
	for i := uint64(0); i < 200; i++ {
		var req wire.Request
		switch i % 4 {
		case 0:
			req = wire.Request{Op: wire.OpPut, Table: testTable, Key: i % rows, Value: rowOf(i%rows, 2)}
		case 1:
			req = wire.Request{Op: wire.OpGet, Table: testTable, Key: i % rows}
		case 2:
			req = wire.Request{Op: wire.OpScan, Table: testTable, Key: i % rows, Limit: rows}
		case 3:
			req = wire.Request{Op: wire.OpScan, Table: testTable, Key: i % rows, Limit: 1 + uint32(i%20)}
		}
		inflight = append(inflight, cl.asyncCall(req))
		if len(inflight) == 8 {
			if err := waitResult(t, inflight[0]); err != nil {
				t.Fatal(err)
			}
			inflight = inflight[1:]
		}
	}
	for _, call := range inflight {
		if err := waitResult(t, call); err != nil {
			t.Fatal(err)
		}
	}
	check("after 200 further responses")

	// The caller owns the values one by one: appending to one reallocates
	// it and leaves its neighbour in the frame alone.
	_ = append(long[0].Value, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE)
	check("after an append to the first value")
}
