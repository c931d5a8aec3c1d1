package server_test

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"nvmstore/internal/client"
	"nvmstore/internal/fault"
	"nvmstore/internal/obs"
	"nvmstore/internal/server"
	"nvmstore/internal/wire"
)

// The tests in this file pin what batching the wire path must not
// change: one socket read takes in a whole burst, responses queued
// behind a blocked write leave together, a batch stays severable at
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

// readResponses reads and decodes n response frames from r.
func readResponses(t *testing.T, r io.Reader, n int) {
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
	}
}

// statsAfterFrames returns the STATS taken once frames_written has
// advanced by n since before. The peer holds a response as soon as it is
// in the socket, a moment before the writer counts it, so a reading
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

// stalledBurst asks for n large rows on a raw connection and reads none
// of them until the server provably holds more answered-but-unwritten
// responses than the connection's write queue has room for — its writer
// is then inside a socket write (or about to start one) with frames
// queued behind it. It returns the connection, the STATS taken before
// the burst, and the frames the server had finished writing when the
// stall was observed together with the time just before that reading.
func stalledBurst(t *testing.T, srv *server.Server, addr string, writeQueue, n int, traced bool) (raw net.Conn, before server.StatsDoc, writtenAtStall int64, stallAt time.Time) {
	t.Helper()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { raw.Close() })
	before = srv.Stats()
	if _, err := raw.Write(getFrames(n, 8, traced)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		stallAt = time.Now()
		doc := srv.Stats()
		answered := doc.Ops - before.Ops
		writtenAtStall = doc.FramesWritten - before.FramesWritten
		if answered-writtenAtStall > int64(writeQueue) {
			return raw, before, writtenAtStall, stallAt
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never stalled on the unread connection: %d answered, %d written (%+v)", answered, writtenAtStall, doc)
		}
		time.Sleep(time.Millisecond)
	}
}

// bigRowServer serves one shard of rowSize-byte rows, keys 0..7 loaded.
// It returns once the loading connection is gone from the server: a
// response reaches the client before the server counts it (ops after the
// enqueue, frames after the write), and a connection's writer exits only
// after both, so from here on the counters owe nothing to the load.
func bigRowServer(t *testing.T, rowSize int, sopts server.Options) (*server.Server, string) {
	t.Helper()
	srv, _, addr := startServerRowSize(t, 1, rowSize, sopts)
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	row := make([]byte, rowSize)
	for key := uint64(0); key < 8; key++ {
		if err := cl.Put(testTable, key, row); err != nil {
			t.Fatal(err)
		}
	}
	cl.Close()
	for deadline := time.Now().Add(10 * time.Second); srv.Stats().Conns != 0; {
		if time.Now().After(deadline) {
			t.Fatal("loading connection never closed")
		}
		time.Sleep(time.Millisecond)
	}
	return srv, addr
}

// TestFramesQueuedBehindABlockedWriteLeaveTogether: responses that pile
// up while the peer is not reading are sent several to a socket write
// once it does. The peer is stalled, not timed: it starts reading only
// after the server is seen holding a full write queue.
func TestFramesQueuedBehindABlockedWriteLeaveTogether(t *testing.T) {
	const rowSize, writeQueue, n = 8000, 8, 2000
	srv, addr := bigRowServer(t, rowSize, server.Options{WriteQueue: writeQueue})
	raw, before, _, _ := stalledBurst(t, srv, addr, writeQueue, n, false)
	readResponses(t, bufio.NewReaderSize(raw, 64<<10), n)
	after := statsAfterFrames(t, srv, before, n)
	writes := after.WriteSyscalls - before.WriteSyscalls
	if writes < 1 || writes >= n {
		t.Fatalf("%d frames left in %d socket writes: queued frames were not coalesced", n, writes)
	}
	t.Logf("%d frames in %d socket writes (%.1f per write)", n, writes, float64(n)/float64(writes))
}

// TestTracedFramesStampedAfterTheirBatchWrite: traced frames that share
// a socket write share one StageWrite stamp, taken after that write
// returned, and every timeline still sums exactly to its total.
func TestTracedFramesStampedAfterTheirBatchWrite(t *testing.T) {
	const rowSize, writeQueue, n = 8000, 8, 2000
	srv, addr := bigRowServer(t, rowSize, server.Options{WriteQueue: writeQueue, TraceRing: 2 * n})
	raw, before, writtenAtStall, stallAt := stalledBurst(t, srv, addr, writeQueue, n, true)
	readResponses(t, bufio.NewReaderSize(raw, 64<<10), n)
	drain(t, srv) // joins the writer: every timeline is recorded
	writes := srv.Stats().WriteSyscalls - before.WriteSyscalls

	snap := srv.TraceSnapshot()
	if snap.Sampled != n || len(snap.Sample) != n {
		t.Fatalf("recorded %d timelines (%d sampled), want %d", len(snap.Sample), snap.Sampled, n)
	}
	ends := make(map[int64]int)
	var afterStall int64
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
		end := tl.StartUnixNs + tl.TotalNs
		ends[end]++
		if end > stallAt.UnixNano() {
			afterStall++
		}
	}
	// One stamp per socket write, shared by the frames it carried.
	if int64(len(ends)) > writes || len(ends) >= n {
		t.Fatalf("%d distinct write stamps for %d frames in %d socket writes", len(ends), n, writes)
	}
	// A frame not yet written when the stall was observed cannot carry a
	// stamp from before it: the stamp is taken after the write returns.
	if unwritten := int64(n) - writtenAtStall; afterStall < unwritten {
		t.Fatalf("%d frames were unwritten at the stall but only %d timelines end after it", unwritten, afterStall)
	}
	if snap.P99.Stages[obs.StageWrite] <= 0 {
		t.Fatalf("stalled writes left no write-stage time in the p99 attribution: %+v", snap.P99)
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
