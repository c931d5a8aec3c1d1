package server_test

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"nvmstore/internal/client"
	"nvmstore/internal/fault"
	"nvmstore/internal/obs"
	"nvmstore/internal/server"
	"nvmstore/internal/wire"
)

// The tests in this file pin what batching the wire path must not
// change: one socket read takes in a whole burst, a burst's responses
// leave in one socket write bounded in bytes, a batch stays severable at
// every frame, and traced frames are stamped after their batch's write.

// getFrames encodes n GET frames for keys 0..mod-1, ids 1..n, traced
// (trace id = request id) or not.
func getFrames(n, mod int, traced bool) []byte {
	var frames []byte
	for i := 0; i < n; i++ {
		req := wire.Request{Op: wire.OpGet, ID: uint32(i + 1), Table: testTable, Key: uint64(i % mod)}
		if traced {
			req.Flags, req.TraceID = wire.FlagTraced, uint64(i+1)
		}
		frames = wire.AppendRequest(frames, req)
	}
	return frames
}

// readResponses reads and decodes n response frames from r and returns
// their total length on the wire.
func readResponses(t *testing.T, r io.Reader, n int) (bytes int) {
	t.Helper()
	var buf []byte
	for i := 0; i < n; i++ {
		var payload []byte
		var err error
		payload, buf, err = wire.ReadFrame(r, buf)
		if err != nil {
			t.Fatalf("response %d of %d: %v", i+1, n, err)
		}
		if _, err := wire.DecodeResponse(payload); err != nil {
			t.Fatalf("response %d of %d: %v", i+1, n, err)
		}
		bytes += 4 + len(payload)
	}
	return bytes
}

// statsAfterFrames returns the STATS taken once frames_written has
// advanced by n since before. The peer holds a response as soon as it is
// in the socket, a moment before the server counts it, so a reading
// taken straight after the last response could miss the last write.
func statsAfterFrames(t *testing.T, srv *server.Server, before server.StatsDoc, n int64) server.StatsDoc {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		doc := srv.Stats()
		if got := doc.FramesWritten - before.FramesWritten; got == n {
			return doc
		} else if got > n || time.Now().After(deadline) {
			t.Fatalf("frames_written advanced by %d, want %d", got, n)
		}
	}
}

// TestBurstCostsFewSocketReads: 64 GET frames sent in one write are all
// answered, and the server takes them in with a handful of socket reads
// (two per frame before the buffered reader) and executes what each read
// brought as one burst: at most one group per shard per read.
func TestBurstCostsFewSocketReads(t *testing.T) {
	srv, _, addr := startServer(t, 2, server.Options{})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	const n = 64
	before := srv.Stats()
	if _, err := raw.Write(getFrames(n, n, false)); err != nil {
		t.Fatal(err)
	}
	readResponses(t, bufio.NewReader(raw), n)
	after := statsAfterFrames(t, srv, before, n)
	if reads := after.ReadSyscalls - before.ReadSyscalls; reads < 1 || reads > 8 {
		t.Fatalf("%d socket reads for a %d-frame burst, want 1..8", reads, n)
	}
	if writes := after.WriteSyscalls - before.WriteSyscalls; writes < 1 || writes > n {
		t.Fatalf("write_syscalls advanced by %d, want 1..%d", writes, n)
	}
	reads := after.ReadSyscalls - before.ReadSyscalls
	if groups := after.ExecBatches - before.ExecBatches; groups < 1 || groups > 2*reads {
		t.Fatalf("%d frames over 2 shards executed as %d groups after %d socket reads, want at most %d", n, groups, reads, 2*reads)
	}
}

// meteredListener hands the server connections that record what each
// socket write carried. The server sets one write deadline per socket
// write, so the bytes written between two SetWriteDeadline calls are one
// write's length; done is when its last byte was handed to the kernel.
type meteredListener struct {
	net.Listener
	mu     sync.Mutex
	writes []meteredWrite
}

type meteredWrite struct {
	bytes int
	done  time.Time
}

func (l *meteredListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &meteredConn{Conn: nc, l: l}, nil
}

// snapshot returns the socket writes recorded so far.
func (l *meteredListener) snapshot() []meteredWrite {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]meteredWrite(nil), l.writes...)
}

type meteredConn struct {
	net.Conn
	l *meteredListener
}

func (c *meteredConn) SetWriteDeadline(t time.Time) error {
	c.l.mu.Lock()
	c.l.writes = append(c.l.writes, meteredWrite{})
	c.l.mu.Unlock()
	return c.Conn.SetWriteDeadline(t)
}

func (c *meteredConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.l.mu.Lock()
	w := &c.l.writes[len(c.l.writes)-1]
	w.bytes += n
	w.done = time.Now()
	c.l.mu.Unlock()
	return n, err
}

// startMeteredServer is startServer behind a meteredListener.
func startMeteredServer(t *testing.T, shards int, sopts server.Options) (*server.Server, *meteredListener, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ml := &meteredListener{Listener: ln}
	srv := server.New(openStore(t, shards, testRowSize), sopts)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ml) }()
	t.Cleanup(func() {
		drain(t, srv)
		if err := <-errc; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return srv, ml, ln.Addr().String()
}

// TestBurstLeavesInOneWrite: the responses to requests that arrived
// together leave together. k GETs sent in one client write are answered by
// one socket write of k frames, and a PUT followed by a SCAN — one request
// the reader groups and one it answers itself — share a write too, in
// request order.
func TestBurstLeavesInOneWrite(t *testing.T) {
	srv, _, addr := startServer(t, 2, server.Options{})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	raw.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(raw)
	for _, k := range []int{1, 8, 64} {
		before := srv.Stats()
		if _, err := raw.Write(getFrames(k, k, false)); err != nil {
			t.Fatal(err)
		}
		readResponses(t, br, k)
		after := statsAfterFrames(t, srv, before, int64(k))
		if writes := after.WriteSyscalls - before.WriteSyscalls; writes != 1 {
			t.Fatalf("%d GETs sent in one write were answered in %d socket writes, want 1", k, writes)
		}
	}

	const key = 7
	frames := wire.AppendRequest(nil, wire.Request{Op: wire.OpPut, ID: 1, Table: testTable, Key: key, Value: rowFor(key)})
	frames = wire.AppendRequest(frames, wire.Request{Op: wire.OpScan, ID: 2, Table: testTable, Key: key, Limit: 1})
	before := srv.Stats()
	if _, err := raw.Write(frames); err != nil {
		t.Fatal(err)
	}
	var buf []byte
	for id := uint32(1); id <= 2; id++ {
		var payload []byte
		if payload, buf, err = wire.ReadFrame(br, buf); err != nil {
			t.Fatal(err)
		}
		resp, err := wire.DecodeResponse(payload)
		if err != nil || resp.ID != id {
			t.Fatalf("response %d of PUT, SCAN: %+v, %v", id, resp, err)
		}
		if id == 2 && (resp.Code != wire.RespScan || len(resp.Entries) != 1 || resp.Entries[0].Key != key) {
			t.Fatalf("SCAN behind its PUT returned %+v", resp)
		}
	}
	after := statsAfterFrames(t, srv, before, 2)
	if writes := after.WriteSyscalls - before.WriteSyscalls; writes != 1 {
		t.Fatalf("PUT and SCAN sent in one write were answered in %d socket writes, want 1", writes)
	}
}

// TestBurstSplitsAtByteBound: a burst whose answers outgrow one socket
// write's byte bound leaves in several writes, each at most the bound plus
// the frame that crossed it — a connection never holds, or sends under one
// deadline, more than that.
func TestBurstSplitsAtByteBound(t *testing.T) {
	const (
		rows       = 200
		scans      = 12
		boundBytes = 64 << 10 // the server's writeBatchBytes
	)
	srv, ml, addr := startMeteredServer(t, 2, server.Options{})
	cl, err := client.Dial(addr, client.Options{Depth: 32})
	if err != nil {
		t.Fatal(err)
	}
	var calls []*client.Call
	for key := uint64(0); key < rows; key++ {
		calls = append(calls, cl.PutAsync(testTable, key, rowFor(key)))
	}
	for _, call := range calls {
		if _, err := call.Result(); err != nil {
			t.Fatal(err)
		}
	}
	cl.Close()
	// A response reaches the client a moment before the server counts it,
	// and a connection is gone only after both: from here on the counters
	// owe nothing to the load.
	for deadline := time.Now().Add(10 * time.Second); srv.Stats().Conns != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("loading connection never closed")
		}
	}

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	var frames []byte
	for i := 0; i < scans; i++ {
		frames = wire.AppendRequest(frames, wire.Request{Op: wire.OpScan, ID: uint32(i + 1), Table: testTable, Limit: rows})
	}
	loaded := len(ml.snapshot())
	before := srv.Stats()
	if _, err := raw.Write(frames); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(10 * time.Second))
	read := readResponses(t, bufio.NewReader(raw), scans)
	after := statsAfterFrames(t, srv, before, scans)

	frameLen := read / scans // every answer is the same 200 rows
	if scans*frameLen <= 2*boundBytes {
		t.Fatalf("%d answers of %d bytes do not exercise the %d-byte bound", scans, frameLen, boundBytes)
	}
	writes := ml.snapshot()[loaded:]
	if len(writes) < 2 || int64(len(writes)) != after.WriteSyscalls-before.WriteSyscalls {
		t.Fatalf("%d bytes of answers left in %d socket writes (write_syscalls +%d), want several",
			read, len(writes), after.WriteSyscalls-before.WriteSyscalls)
	}
	total := 0
	for i, w := range writes {
		if w.bytes > boundBytes+frameLen {
			t.Fatalf("socket write %d carried %d bytes, bound is %d plus one %d-byte frame", i, w.bytes, boundBytes, frameLen)
		}
		total += w.bytes
	}
	if total != read {
		t.Fatalf("socket writes carried %d bytes, the peer read %d", total, read)
	}
}

// TestTracedFramesStampedAfterTheirBatchWrite: the traced frames of one
// burst share one StageWrite stamp, taken after the socket write that
// carried them returned, and every timeline still sums exactly to its
// total.
func TestTracedFramesStampedAfterTheirBatchWrite(t *testing.T) {
	// One client write, one server read: bursts of 64, 64 and 22; all 150
	// fit the flight recorder's 256-timeline sample.
	const n = 150
	srv, ml, addr := startMeteredServer(t, 1, server.Options{})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write(getFrames(n, 8, true)); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(10 * time.Second))
	readResponses(t, bufio.NewReader(raw), n)
	drain(t, srv) // joins the connection: every timeline is recorded

	snap := srv.TraceSnapshot()
	if snap.Sampled != n || len(snap.Sample) != n {
		t.Fatalf("recorded %d timelines (%d sampled), want %d", len(snap.Sample), snap.Sampled, n)
	}
	ends := make(map[int64]int)
	for _, tl := range snap.Sample {
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
		ends[tl.StartUnixNs+tl.TotalNs]++
	}
	// One stamp per socket write, shared by the frames it carried and not
	// earlier than the moment the write returned.
	writes := ml.snapshot()
	if len(writes) != 3 || len(ends) != len(writes) {
		t.Fatalf("%d distinct write stamps for %d frames in %d socket writes, want 3 and 3", len(ends), n, len(writes))
	}
	stamps := make([]int64, 0, len(ends))
	for end := range ends {
		stamps = append(stamps, end)
	}
	slices.Sort(stamps)
	for i, frames := range []int{64, 64, 22} {
		if ends[stamps[i]] != frames {
			t.Fatalf("write %d: %d timelines share its stamp, want %d", i, ends[stamps[i]], frames)
		}
		if done := writes[i].done.UnixNano(); stamps[i] < done {
			t.Fatalf("write %d returned at %d but its frames are stamped %d, %d ns earlier", i, done, stamps[i], done-stamps[i])
		}
	}
	if snap.P99.Stages[obs.StageWrite] <= 0 {
		t.Fatalf("no write-stage time in the p99 attribution: %+v", snap.P99)
	}
}

// TestBatchSeverableAtEveryFrame: net.drop@k and net.partial@k keep
// meaning "the k-th response frame" whichever socket write that frame
// falls into. A pipelined peer reads exactly k-1 whole frames, then (for
// a partial fault) exactly half of frame k, then EOF.
func TestBatchSeverableAtEveryFrame(t *testing.T) {
	const n = 64
	const frameLen = 10 // a NOTFOUND response: 4-byte prefix + 6-byte header
	for _, kind := range []fault.Kind{fault.NetDrop, fault.NetPartial} {
		for _, k := range []int64{1, 2, 9, 33, n} {
			kind, k := kind, k
			t.Run(fmt.Sprintf("%s@%d", kind, k), func(t *testing.T) {
				plan := &fault.Plan{Seed: 1, Rules: []fault.Rule{{Kind: kind, EveryN: k, Limit: 1}}}
				_, _, addr := startServer(t, 2, server.Options{Faults: plan.Injector(0)})
				raw, err := net.Dial("tcp", addr)
				if err != nil {
					t.Fatal(err)
				}
				defer raw.Close()
				// Every key is absent, so every response is one bare
				// NOTFOUND frame and this connection's are the only
				// response frames the server ever sends.
				if _, err := raw.Write(getFrames(n, n, false)); err != nil {
					t.Fatal(err)
				}
				raw.SetReadDeadline(time.Now().Add(10 * time.Second))
				got, err := io.ReadAll(raw)
				if err != nil {
					t.Fatalf("after %d bytes: %v, want EOF", len(got), err)
				}
				want := int(k-1) * frameLen
				if kind == fault.NetPartial {
					want += frameLen / 2
				}
				if len(got) != want {
					t.Fatalf("read %d bytes before EOF, want %d (%d whole %d-byte frames, half a frame more for a partial fault)",
						len(got), want, k-1, frameLen)
				}
				for off := 0; off+frameLen <= len(got); off += frameLen {
					resp, err := wire.DecodeResponse(got[off+4 : off+frameLen])
					if err != nil || resp.Code != wire.RespNotFound {
						t.Fatalf("frame at byte %d: %+v, %v", off, resp, err)
					}
				}
			})
		}
	}
}

// TestShutdownAnswersBufferedRequests: a drain answers every request the
// server had read before the half-close — including the ones still
// sitting in the connection's read buffer. The requests fit one read
// buffer and arrive in one segment, so once the first response is back
// the server has read all of them; the reader executes at most a burst
// (64) before it answers, so most of them are still waiting in the buffer
// while Shutdown half-closes the connection.
func TestShutdownAnswersBufferedRequests(t *testing.T) {
	srv, _, addr := startServer(t, 1, server.Options{})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	const n = 600 // 600 GET frames of 26 bytes: just under the 16 KB read buffer
	if _, err := raw.Write(getFrames(n, n, false)); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(raw)
	readResponses(t, br, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	readResponses(t, br, n-1)
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("after the last response: %v, want EOF", err)
	}
}
