// Package server exposes a ShardedStore over TCP, speaking the framing
// of internal/wire. It is the request-handling half of the serving
// layer: the paper's three-tier buffer manager (§3) is the storage hot
// path, and this package gives it the deployment shape the NVM
// literature assumes — a server absorbing many concurrent client
// connections.
//
// # Threading model
//
// One goroutine per connection and none per shard: requests run, and their
// responses leave, on the connection that read them. The reader reads
// frames through a fixed-size buffered reader — the requests a pipelining
// client already has in the socket cost one read, not two each — decodes
// every whole frame the buffer already holds (a burst, at most
// writeBatchFrames keyed requests), groups the keyed ones (GET/PUT/DELETE)
// by owning shard and executes each group itself under a single
// acquisition of that shard's lock — the shard-per-core model's
// single-threaded executor (Appendix A.1). A group with writes is one
// ShardedStore.Batch: its commits share one WAL flush with each other and
// with whatever other connections' groups reach the shard meanwhile (group
// commit); a group of GETs takes the bare lock. Responses are encoded only
// after every flush (and, with semi-synchronous replication, replica ack)
// covering the burst, so an acknowledged write is always durable; the
// reader then sends the burst's responses as one vectored socket write,
// and the client matches responses by request id. Scans, transaction
// control, replication requests and stats also run on the reader, after
// the keyed requests before them. So within one connection a GET for an
// idle shard waits for the connection's own earlier group on a busy one;
// across connections nothing is ordered but the shard lock.
//
// # Backpressure
//
// A reader that is executing or writing does not read: while its burst
// waits for a shard lock, replica acks or a peer that stopped reading
// (TCP zero window), the socket fills — a reader is at most one read
// buffer of requests ahead of the store and holds at most one burst of
// responses — and TCP flow control pushes back on that client. It waits
// with no lock held, and in a write only for a bounded time: every socket
// write carries a deadline (Options.WriteTimeout), after which the
// connection is severed and the responses still owed to it are discarded.
// Options.MaxConns bounds concurrent connections; excess dials wait in
// the listen backlog.
//
// # Transactions
//
// BEGIN/COMMIT/ROLLBACK give a connection a transaction: writes between
// BEGIN and COMMIT are buffered server-side (acknowledged immediately,
// durable only at COMMIT) and reads see the connection's own buffered
// writes. COMMIT groups the buffer by shard and applies each shard's
// group as one atomic, durable transaction — atomicity is per shard,
// the shared-nothing contract of the sharded store; a COMMIT that fails
// on one shard reports the error and does not undo shards already
// committed. Autocommit requests (outside BEGIN) are each one durable
// transaction: their acknowledgement implies the write survives a
// crash.
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nvmstore"
	"nvmstore/internal/core"
	"nvmstore/internal/engine"
	"nvmstore/internal/fault"
	"nvmstore/internal/obs"
	"nvmstore/internal/offheap"
	"nvmstore/internal/repl"
	"nvmstore/internal/wire"
)

// Options tunes the server. The zero value is ready for use.
type Options struct {
	// MaxConns bounds concurrently served connections (default 64).
	// Excess dials are not rejected; they wait in the listen backlog.
	MaxConns int
	// MaxScan caps the rows one SCAN may return (default 1024). Client
	// limits are clamped to it, and further clamped by encoded bytes so
	// a response always fits in wire.MaxFrame whatever the row size.
	MaxScan int
	// WriteTimeout bounds each socket write to a connection (default
	// 30s); one write carries a burst's responses, at most 64 frames or
	// 64 KB plus one frame. A peer that stops reading for longer is
	// severed.
	WriteTimeout time.Duration
	// Logf, when set, receives connection-level error logs.
	Logf func(format string, args ...any)
	// Faults, when set, injects network faults on the response path:
	// fault.NetDrop closes a connection instead of writing a response and
	// fault.NetPartial writes half a response frame before closing — the
	// failures a resilient client must retry through. Both are checked
	// once per response frame, in response order, however the frames are
	// batched into socket writes. One injector is shared by all
	// connections, so probability rules model a server-wide fault rate.
	Faults *fault.Injector
	// Repl, when set, makes this server a replication primary: REPL
	// SUBSCRIBE connections stream the store's WAL through it, acks
	// record replica progress, and (with SyncReplicas set on the
	// source) a connection holds its write acks until enough replicas
	// confirmed — see internal/repl.
	Repl *repl.Source
	// Replica, when set, marks this server a read replica fed by it:
	// writes are rejected with a "READONLY:"-classified error until the
	// replica is promoted, and REPL WAIT blocks reads until the applied
	// LSN vector covers the client's.
	Replica *repl.Replica
}

func (o *Options) applyDefaults() {
	if o.MaxConns <= 0 {
		o.MaxConns = 64
	}
	if o.MaxScan <= 0 {
		o.MaxScan = 1024
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 30 * time.Second
	}
}

// The flight recorder keeps a uniform sample of traceRing traced requests
// and the traceSlow slowest. Tracing itself is request-driven: the server
// records a span timeline for every keyed request whose wire header
// carries wire.FlagTraced, and an untraced request pays only a nil check
// per stage.
const (
	traceRing = 256
	traceSlow = 8
)

// task is one keyed request of a connection's burst.
type task struct {
	req   wire.Request // Value owned by the task (copied off the frame buffer)
	resp  wire.Response
	start time.Time
	// tl is the request's span timeline when it is traced, else nil; it is
	// finished after the socket write that carried the response.
	tl *obs.Timeline
}

// shardGauge is a cache-line-padded per-shard counter, so adjacent
// shards' gauges do not false-share.
type shardGauge struct {
	n atomic.Int64
	_ [56]byte
}

// Server serves a ShardedStore over TCP. Create with New, start with
// Serve or ListenAndServe, stop with Shutdown. The server does not own
// the store: Shutdown drains requests and leaves the store open for the
// caller to inspect or Close.
type Server struct {
	store *nvmstore.ShardedStore
	opts  Options

	// queueDepth[i] counts the keyed requests for shard i decoded off some
	// connection but not yet executed.
	queueDepth []shardGauge

	// flight retains sampled span timelines (uniform sample + slowest)
	// for STATS, /trace, and the remote bench's p99 attribution.
	flight *obs.FlightRecorder

	mu       sync.Mutex
	ln       net.Listener
	conns    map[*conn]struct{}
	draining bool
	started  bool

	connWG  sync.WaitGroup
	connSem chan struct{}

	// wireHist[op] is the wall-clock latency histogram of request
	// opcode op, recorded from frame decode to response encode.
	wireHist [wire.OpStats + 1]obs.Histogram

	stats struct {
		conns     atomic.Int64 // currently open
		accepted  atomic.Int64 // total accepted
		ops       atomic.Int64 // requests answered
		connWaits atomic.Int64 // accepts that waited on MaxConns

		// The wire path's cost counters: socket reads and writes that
		// returned (not the runtime's EAGAIN retries inside one), and
		// the response frames those writes carried.
		readCalls     atomic.Int64
		writeCalls    atomic.Int64
		framesWritten atomic.Int64

		execBatches atomic.Int64 // per-shard groups of keyed requests executed
	}
}

// StatsDoc is the JSON document a STATS request returns (and the shape
// cmd/nvmserver serves at /metrics.json).
//
// A numeric field is also a Prometheus family, and its tags are that
// family's only declaration: prom names the kind ("counter" or "gauge")
// and help its HELP text. WritePrometheus renders the field as
// nvmstore_<json name>, with _total appended for a counter; a slice
// field is one family with a shard label per element.
type StatsDoc struct {
	// Shards is the store's shard count.
	Shards int `json:"shards" prom:"gauge" help:"store shards"`
	// Conns is the number of currently open connections; Accepted the
	// total ever accepted; Ops the requests answered.
	Conns    int64 `json:"conns" prom:"gauge" help:"currently open connections"`
	Accepted int64 `json:"accepted" prom:"counter" help:"connections ever accepted"`
	Ops      int64 `json:"ops" prom:"counter" help:"requests answered"`
	// MaxSimNs is the slowest shard's simulated device time — the
	// simulated component of the hybrid time model, for combining with
	// wall time measured by a remote driver.
	MaxSimNs int64 `json:"max_sim_ns" prom:"gauge" help:"slowest shard's simulated device time"`
	// Wire holds the server-side wall-clock latency rows per opcode
	// ("wire.get", ...); Engine the store's simulated-time histograms
	// when it was opened with Observe.
	Wire   []obs.Row `json:"wire"`
	Engine []obs.Row `json:"engine,omitempty"`
	// NVMLinesWritten and friends are the store's headline device
	// counters.
	NVMLinesWritten int64 `json:"nvm_lines_written" prom:"counter" help:"NVM cache-line writes (wear proxy)"`
	SSDPagesRead    int64 `json:"ssd_pages_read" prom:"counter" help:"SSD pages read"`
	SSDPagesWritten int64 `json:"ssd_pages_written" prom:"counter" help:"SSD pages written"`
	// NVMJournalLines is the share of NVMLinesWritten that the write-back
	// undo journal wrote: what crash-safe in-place write-back costs on top
	// of the page data. Write-backs that hold only logged field overwrites
	// skip the journal, so on an update-only load it stays near zero.
	NVMJournalLines int64 `json:"nvm_journal_lines" prom:"counter" help:"NVM cache-line writes by the write-back undo journal"`
	// NVMAdmissions, NVMDenials and NVMEvictions count the §4.2 decisions
	// across shards: pages a DRAM eviction moved into the NVM cache, pages
	// it sent to SSD instead (lost admission duels), and slots evicted to
	// make room for an admission.
	NVMAdmissions int64 `json:"nvm_admissions" prom:"counter" help:"pages a DRAM eviction admitted to the NVM cache"`
	NVMDenials    int64 `json:"nvm_denials" prom:"counter" help:"pages a DRAM eviction sent to SSD instead (lost admission duels)"`
	NVMEvictions  int64 `json:"nvm_evictions" prom:"counter" help:"NVM slots evicted to make room for an admission"`
	// LogCommits and LogFlushes are the store's WAL counters across all
	// shards; OpsPerFlush is their ratio — the average number of commits
	// each physical WAL flush made durable, group commit's amortization
	// factor.
	LogCommits  int64   `json:"log_commits" prom:"counter" help:"WAL commits across shards"`
	LogFlushes  int64   `json:"log_flushes" prom:"counter" help:"physical WAL flushes across shards"`
	OpsPerFlush float64 `json:"ops_per_flush" prom:"gauge" help:"WAL commits per physical flush, lifetime"`
	// LogUndoRecords counts the WAL undo records across shards: before
	// images logged because a steal or a page image could expose an
	// uncommitted change.
	LogUndoRecords int64 `json:"log_undo_records" prom:"counter" help:"WAL undo records logged at a steal or a page image, across shards"`
	// LogFoldedCommits counts the commits written in one record with their
	// transaction's only update, across shards.
	LogFoldedCommits int64 `json:"log_folded_commits" prom:"counter" help:"WAL commits folded into their transaction's one update record, across shards"`
	// CkptRounds and CkptPages count incremental-checkpoint write-back
	// rounds and the dirty pages they flushed; CkptPagesPerRound is
	// their ratio. CkptTruncatedBytes sums the WAL bytes reclaimed by
	// maintenance truncations.
	CkptRounds         int64   `json:"ckpt_rounds" prom:"counter" help:"incremental-checkpoint write-back rounds across shards"`
	CkptPages          int64   `json:"ckpt_pages" prom:"counter" help:"dirty pages written back by checkpoint rounds"`
	CkptPagesPerRound  float64 `json:"ckpt_pages_per_round" prom:"gauge" help:"dirty pages per checkpoint round, lifetime"`
	CkptTruncatedBytes int64   `json:"ckpt_truncated_bytes" prom:"counter" help:"WAL bytes reclaimed by every truncation"`
	// ReadSnapshotReads counts as-of leaves read by snapshot scans.
	// ReadVersionsLive is the current number of copy-on-write page images
	// pinned by open snapshots, ReadVersionsReclaimed the total freed so far,
	// ReadVersionChainMax the high-water length of any one page's version
	// chain, and ReadActiveSnapshots the open snapshots right now.
	ReadSnapshotReads     int64 `json:"read_snapshot_reads" prom:"counter" help:"as-of leaves read by snapshot scans"`
	ReadVersionsLive      int64 `json:"read_versions_live" prom:"gauge" help:"copy-on-write page versions currently pinned by snapshots"`
	ReadVersionsReclaimed int64 `json:"read_versions_reclaimed" prom:"counter" help:"copy-on-write page versions reclaimed"`
	ReadVersionChainMax   int64 `json:"read_version_chain_max" prom:"gauge" help:"high-water length of any one page's version chain"`
	ReadActiveSnapshots   int64 `json:"read_active_snapshots" prom:"gauge" help:"currently open read snapshots"`
	// OffheapMappedBytes is what the process holds mapped outside the Go
	// heap: every live store's simulated media and device counters
	// (offheap.Mapped, process-wide, not per store).
	OffheapMappedBytes int64 `json:"offheap_mapped_bytes" prom:"gauge" help:"bytes mapped off the Go heap for simulated media and device counters, process-wide"`
	// DRAMBytesUsed, NVMPages, SSDPages and SSDStoredBytes are the
	// store's footprint per tier, summed over shards (core.Residency): the
	// buffer pool's bytes in use, the pages cached or stored on NVM, the
	// pages written to the SSD at least once, and the host bytes the
	// simulated SSD holds for them.
	DRAMBytesUsed  int64 `json:"dram_bytes_used" prom:"gauge" help:"DRAM buffer-pool bytes in use, across shards"`
	NVMPages       int64 `json:"nvm_pages" prom:"gauge" help:"pages cached or stored on NVM, across shards"`
	SSDPages       int64 `json:"ssd_pages" prom:"gauge" help:"pages whose current copy is on the SSD, across shards"`
	SSDStoredBytes int64 `json:"ssd_stored_bytes" prom:"gauge" help:"host bytes the simulated SSD holds for its pages (non-zero prefixes, and free blocks of trimmed or outgrown pages), across shards"`
	// MaxConns is the connection cap and ConnWaits how many accepts had
	// to wait for a free slot — the MaxConns saturation counter.
	MaxConns  int   `json:"max_conns" prom:"gauge" help:"connection cap (Options.MaxConns)"`
	ConnWaits int64 `json:"conn_waits" prom:"counter" help:"accepts that waited for a free connection slot"`
	// ReadSyscalls and WriteSyscalls count the socket reads and writes
	// that returned, over all connections; FramesWritten the response
	// frames those writes carried. Their deltas over a window, divided by
	// the ops answered in it, are the wire path's socket calls per
	// request, and FramesWritten ÷ WriteSyscalls is the response
	// coalescing factor.
	ReadSyscalls  int64 `json:"read_syscalls" prom:"counter" help:"socket reads that returned, all connections"`
	WriteSyscalls int64 `json:"write_syscalls" prom:"counter" help:"socket writes that returned, all connections"`
	FramesWritten int64 `json:"frames_written" prom:"counter" help:"response frames carried by those socket writes"`
	// ExecBatches counts the per-shard groups of keyed requests executed,
	// one shard-lock acquisition by one connection each: keyed ops ÷
	// ExecBatches is the requests per lock hold, beside OpsPerFlush.
	ExecBatches int64 `json:"exec_batches" prom:"counter" help:"per-shard groups of keyed requests executed, one shard-lock hold each"`
	// ShardQueueDepth is a per-shard gauge: keyed requests decoded off
	// some connection but not yet executed.
	ShardQueueDepth []int `json:"shard_queue_depth,omitempty" prom:"gauge" help:"keyed requests decoded but not yet executed"`
	// TraceSampled counts the traced requests the flight recorder has
	// seen.
	TraceSampled int64 `json:"trace_sampled" prom:"counter" help:"traced requests recorded by the flight recorder"`
	// Trace is the flight recorder's snapshot — sampled span timelines,
	// the slowest requests, and the p99 stage attribution — present once
	// at least one traced request was served.
	Trace *obs.FlightSnapshot `json:"trace,omitempty"`
	// Repl is the primary-side replication summary (epoch, per-replica
	// acked LSNs and lag bytes, ship→ack lag quantiles), present when the
	// server was started with a replication source.
	Repl *repl.Stats `json:"repl,omitempty"`
	// Replica is the replica-side summary (per-shard applied LSNs,
	// epoch, connection state), present when the server feeds from a
	// primary.
	Replica *repl.ReplicaStats `json:"replica,omitempty"`
}

// New creates a server over store. The store must already hold the
// tables requests will address; unknown tables fail per request.
func New(store *nvmstore.ShardedStore, opts Options) *Server {
	opts.applyDefaults()
	return &Server{
		store:      store,
		opts:       opts,
		queueDepth: make([]shardGauge, store.NumShards()),
		conns:      make(map[*conn]struct{}),
		connSem:    make(chan struct{}, opts.MaxConns),
		flight:     obs.NewFlightRecorder(traceRing, traceSlow),
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Shutdown (which returns nil
// here) or a listener failure. A Server serves one listener in its
// lifetime.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return errors.New("server: Serve called twice")
	}
	s.started = true
	s.ln = ln
	if s.draining {
		ln.Close() // Shutdown came first and found no listener to close
	}
	s.mu.Unlock()

	for {
		select {
		case s.connSem <- struct{}{}:
		default:
			// Every connection slot is taken: this accept waits on
			// MaxConns. The counter is the saturation signal operators
			// watch to size the cap.
			s.stats.connWaits.Add(1)
			s.connSem <- struct{}{}
		}
		nc, err := ln.Accept()
		if err != nil {
			<-s.connSem
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			nc.Close()
			<-s.connSem
			continue
		}
		c := &conn{
			srv:    s,
			nc:     nc,
			br:     bufio.NewReaderSize(countedReader{nc, &s.stats.readCalls}, readBufSize),
			groups: make([][]task, s.store.NumShards()),
		}
		c.run = c.runLocked
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.stats.conns.Add(1)
		s.stats.accepted.Add(1)
		s.connWG.Add(1)
		go c.readLoop()
	}
}

// Shutdown drains the server gracefully: it stops accepting, half-
// closes every connection's read side so no new requests arrive, and
// waits for every request already read to be executed and its response
// written. Every response sent before Shutdown returns is durable per the
// autocommit/COMMIT contract. If ctx expires first, remaining connections
// are severed and Shutdown returns ctx.Err(). The store is left open;
// callers typically follow with store.Close().
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	ln := s.ln
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.closeRead()
	}

	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.mu.Lock()
		for c := range s.conns {
			c.nc.Close()
		}
		s.mu.Unlock()
		<-done
	}
	return err
}

// snapshot is one reading of every server and store metric: the STATS
// document plus the histograms a Prometheus scrape renders in full. Both
// are made from one, so a scrape reads the store (every shard lock) and
// the replication source once and its numbers agree with each other.
type snapshot struct {
	doc     StatsDoc
	wire    [wire.OpStats + 1]obs.HistSnapshot
	engine  *nvmstore.LatencySnapshot // nil unless the store observes
	replLag obs.HistSnapshot
}

// Stats assembles the STATS document.
func (s *Server) Stats() StatsDoc { return s.snapshot().doc }

func (s *Server) snapshot() *snapshot {
	snap := &snapshot{doc: StatsDoc{
		Shards:    s.store.NumShards(),
		Conns:     s.stats.conns.Load(),
		Accepted:  s.stats.accepted.Load(),
		Ops:       s.stats.ops.Load(),
		MaxSimNs:  s.store.MaxSimulatedTime().Nanoseconds(),
		MaxConns:  s.opts.MaxConns,
		ConnWaits: s.stats.connWaits.Load(),

		ReadSyscalls:  s.stats.readCalls.Load(),
		WriteSyscalls: s.stats.writeCalls.Load(),
		FramesWritten: s.stats.framesWritten.Load(),
		ExecBatches:   s.stats.execBatches.Load(),

		ShardQueueDepth: make([]int, len(s.queueDepth)),
	}}
	doc := &snap.doc
	for i := range s.queueDepth {
		doc.ShardQueueDepth[i] = int(s.queueDepth[i].n.Load())
	}
	for op := wire.OpGet; op <= wire.OpStats; op++ {
		snap.wire[op] = s.wireHist[op].Snapshot()
		if r := snap.wire[op].Row("wire." + wire.OpName(op)); r.Count > 0 {
			doc.Wire = append(doc.Wire, r)
		}
	}
	if doc.TraceSampled = s.flight.Sampled(); doc.TraceSampled > 0 {
		tr := s.flight.Snapshot()
		doc.Trace = &tr
	}
	m := s.store.Metrics()
	doc.NVMLinesWritten = m.NVMTotalWrites
	doc.SSDPagesRead = m.SSDPagesRead
	doc.SSDPagesWritten = m.SSDPagesWritten
	doc.NVMJournalLines = m.Buffer.NVMLinesWrittenBy[core.CauseJournal]
	doc.NVMAdmissions = m.Buffer.NVMAdmissions
	doc.NVMDenials = m.Buffer.NVMDenials
	doc.NVMEvictions = m.Buffer.NVMEvictions
	doc.LogCommits = m.Log.Commits
	doc.LogFlushes = m.Log.Flushes
	doc.LogUndoRecords = m.Log.Undos
	doc.LogFoldedCommits = m.Log.Folded
	doc.OpsPerFlush = m.OpsPerFlush
	doc.CkptRounds = m.Ckpt.Rounds
	doc.CkptPages = m.Ckpt.Pages
	if m.Ckpt.Rounds > 0 {
		doc.CkptPagesPerRound = float64(m.Ckpt.Pages) / float64(m.Ckpt.Rounds)
	}
	doc.CkptTruncatedBytes = m.Ckpt.TruncatedBytes
	doc.ReadSnapshotReads = m.Read.SnapshotReads
	doc.ReadVersionsLive = m.Read.VersionsLive
	doc.ReadVersionsReclaimed = m.Read.VersionsReclaimed
	doc.ReadVersionChainMax = m.Read.VersionChainMax
	doc.ReadActiveSnapshots = m.Read.ActiveSnapshots
	doc.OffheapMappedBytes = offheap.Mapped()
	doc.DRAMBytesUsed = m.Residency.DRAMBytesUsed
	doc.NVMPages = m.Residency.NVMPages
	doc.SSDPages = m.Residency.SSDPages
	doc.SSDStoredBytes = m.Residency.SSDStoredBytes
	if snap.engine = m.Latency; m.Latency != nil {
		doc.Engine = m.Latency.Rows()
	}
	if src := s.opts.Repl; src != nil {
		rs := src.Stats()
		doc.Repl = &rs
		snap.replLag = src.LagHistogram()
	}
	if rp := s.opts.Replica; rp != nil {
		rs := rp.Stats()
		doc.Replica = &rs
	}
	return snap
}

// TraceSnapshot returns the flight recorder's current contents — the
// uniform sample of traced requests, the slowest retained ones, and the
// p99 attribution — for the /trace debug endpoint.
func (s *Server) TraceSnapshot() obs.FlightSnapshot { return s.flight.Snapshot() }

// WritePrometheus renders every server metric into p in the Prometheus
// text exposition format: the wire and engine latency histograms, every
// numeric STATS field by the rule on StatsDoc, and the replication
// families. One call renders one complete scrape.
func (s *Server) WritePrometheus(p *obs.PromWriter) { s.snapshot().writePrometheus(p) }

// writeStatsFields renders every StatsDoc field that carries a prom tag,
// by the naming rule on StatsDoc.
func writeStatsFields(p *obs.PromWriter, doc *StatsDoc) {
	v := reflect.ValueOf(doc).Elem()
	for i := range v.NumField() {
		f := v.Type().Field(i)
		kind := f.Tag.Get("prom")
		if kind == "" {
			continue
		}
		key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		name, help, emit := "nvmstore_"+key, f.Tag.Get("help"), p.Gauge
		if kind == "counter" {
			name, emit = name+"_total", p.Counter
		}
		x := v.Field(i)
		if x.Kind() != reflect.Slice {
			emit(name, help, nil, sample(x))
			continue
		}
		for shard := range x.Len() {
			emit(name, help, []obs.Label{{Name: "shard", Value: fmt.Sprint(shard)}}, sample(x.Index(shard)))
		}
	}
}

// sample reads an integer or floating-point field as a sample value.
func sample(v reflect.Value) float64 {
	if v.CanFloat() {
		return v.Float()
	}
	return float64(v.Int())
}

func (snap *snapshot) writePrometheus(p *obs.PromWriter) {
	doc := &snap.doc
	for op := wire.OpGet; op <= wire.OpStats; op++ {
		h := snap.wire[op]
		if h.Count() == 0 {
			continue
		}
		p.Histogram("nvmstore_wire_latency_ns", "server-side wall-clock request latency by opcode",
			[]obs.Label{{Name: "op", Value: wire.OpName(op)}}, h)
	}
	if snap.engine != nil {
		for op := obs.Op(0); op < obs.NumOps; op++ {
			h := snap.engine.Ops[op]
			if h.Count() == 0 {
				continue
			}
			p.Histogram("nvmstore_engine_op_ns", "engine simulated-time latency by instrumented operation",
				[]obs.Label{{Name: "op", Value: op.String()}}, h)
		}
	}
	writeStatsFields(p, doc)
	if rs := doc.Repl; rs != nil {
		p.Gauge("nvmstore_repl_epoch", "current replication epoch", nil, float64(rs.Epoch))
		p.Gauge("nvmstore_repl_fenced_by", "epoch that superseded this primary (0: active)", nil, float64(rs.FencedBy))
		p.Gauge("nvmstore_repl_replicas", "currently attached replica feeds", nil, float64(len(rs.Replicas)))
		p.Counter("nvmstore_repl_snapshot_chunks_total", "bootstrap snapshot chunks streamed", nil, float64(rs.SnapshotChunks))
		p.Counter("nvmstore_repl_dropped_feeds_total", "replica feeds dropped by flow control", nil, float64(rs.DroppedFeeds))
		p.Counter("nvmstore_repl_degraded_acks_total", "semi-synchronous acks sent with fewer than SyncReplicas replica acks", nil, float64(rs.DegradedAcks))
		if snap.replLag.Count() > 0 {
			p.Histogram("nvmstore_repl_lag_ns", "ship→ack replication lag (wall ns)", nil, snap.replLag)
		}
		for _, f := range rs.Replicas {
			rep := fmt.Sprint(f.ID)
			p.Gauge("nvmstore_repl_lag_bytes", "bytes shipped to but not yet acknowledged by the replica",
				[]obs.Label{{Name: "replica", Value: rep}}, float64(f.LagBytes))
			for shard, lsn := range f.AckedLSN {
				p.Gauge("nvmstore_repl_acked_lsn", "replica's acknowledged durable LSN",
					[]obs.Label{{Name: "replica", Value: rep}, {Name: "shard", Value: fmt.Sprint(shard)}}, float64(lsn))
			}
		}
	}
	if rs := doc.Replica; rs != nil {
		if doc.Repl == nil {
			p.Gauge("nvmstore_repl_epoch", "current replication epoch", nil, float64(rs.Epoch))
		}
		connected := 0.0
		if rs.Connected {
			connected = 1
		}
		p.Gauge("nvmstore_repl_connected", "whether the replica's feed session is up", nil, connected)
		for shard, lsn := range rs.AppliedLSN {
			p.Gauge("nvmstore_repl_applied_lsn", "replica's durable applied LSN",
				[]obs.Label{{Name: "shard", Value: fmt.Sprint(shard)}}, float64(lsn))
		}
		p.Counter("nvmstore_repl_reconnects_total", "replica feed sessions ended and retried", nil, float64(rs.Reconnects))
		p.Counter("nvmstore_repl_apply_crashes_total", "simulated crashes recovered during apply", nil, float64(rs.ApplyCrashes))
		p.Counter("nvmstore_repl_batches_total", "replication batch items applied", nil, float64(rs.Batches))
	}
}

// record notes one answered request of opcode op that started at t0.
func (s *Server) record(op byte, t0 time.Time) {
	s.stats.ops.Add(1)
	if int(op) < len(s.wireHist) {
		s.wireHist[op].Record(time.Since(t0).Nanoseconds())
	}
}

// execute runs the burst on the reader goroutine: every touched shard's
// group under one hold of that shard's lock, then the wait for replica
// acks, and only then the responses — an acknowledged write is durable,
// and a slow peer never extends a lock hold.
func (c *conn) execute() {
	if c.queued == 0 {
		return
	}
	s := c.srv
	for shard, g := range c.groups {
		if len(g) == 0 {
			continue
		}
		// A group with writes is one Batch: writer backpressure, commits
		// without flushing, then the one WAL flush that covers them and
		// whatever other connections' groups combined with it (the
		// fault.WALGroupCrash site sits just before it). Reads do not pay
		// for writes: a group of GETs takes the bare lock.
		run := s.store.WithShard
		if hasWrite(g) {
			run = s.store.Batch
		}
		c.shard = shard
		if err := run(shard, c.run); err != nil {
			// The tail flush cannot fail (it panics on injected crashes):
			// this is write-back pacing after it, so the acks are durable.
			// Surface it.
			s.logf("server: shard %d: flush: %v", shard, err)
		}
		s.stats.execBatches.Add(1)
		s.queueDepth[shard].n.Add(-int64(len(g)))
	}
	if src := s.opts.Repl; src != nil {
		// Semi-synchronous replication (SyncReplicas on the source): hold
		// the acks until enough replicas acknowledged what the burst's
		// flushes shipped — after all of them, so the waits overlap.
		for shard, g := range c.groups {
			if hasWrite(g) {
				src.WaitAcked(shard)
			}
		}
	}
	for shard, g := range c.groups {
		for i := range g {
			t := &g[i]
			if t.tl != nil {
				// Charges what followed this request's execution: group
				// peers, the flush, later groups, the ack wait.
				t.tl.Mark(obs.StageFlush, time.Now().UnixNano())
			}
			c.reply(t.resp, t.tl)
			// reply copied the response into its frame; the pooled
			// buffers behind it (a GET's row, a PUT's value copy) are
			// dead now.
			if t.resp.Code == wire.RespValue {
				wire.PutBuf(t.resp.Value)
			}
			wire.PutBuf(t.req.Value)
			s.record(t.req.Op, t.start)
		}
		c.groups[shard] = g[:0]
	}
	c.queued = 0
}

// hasWrite reports whether the group holds a PUT or DELETE.
func hasWrite(g []task) bool {
	for i := range g {
		if g[i].req.Op != wire.OpGet {
			return true
		}
	}
	return false
}

// runLocked executes the group of shard c.shard. The shard lock is held,
// by this connection's reader or by the one leading its combined Batch.
func (c *conn) runLocked(st *nvmstore.Store) error {
	g := c.groups[c.shard]
	for i := range g {
		t := &g[i]
		if t.tl == nil {
			t.resp = execOnShard(st, t.req)
			continue
		}
		t.tl.Mark(obs.StageQueue, time.Now().UnixNano())
		// Differencing the engine's cumulative counters around this one
		// execution attributes its tier work; the shard lock makes the
		// reads exact.
		e := engine.Of(st)
		before, simBefore := tierCounters(e)
		t.resp = execOnShard(st, t.req)
		after, simAfter := tierCounters(e)
		t.tl.Tiers = after.Sub(before)
		t.tl.SimNs += simAfter - simBefore
		t.tl.Shard = int32(c.shard)
		t.tl.Mark(obs.StageExec, time.Now().UnixNano())
	}
	return nil
}

// tierCounters returns the engine's cumulative storage-hierarchy work
// counters and its simulated clock. The caller holds the shard lock.
func tierCounters(e *engine.Engine) (obs.TierDeltas, int64) {
	st := e.Manager().Stats()
	return obs.TierDeltas{
		DRAMHits:     st.SwizzleHits + st.TableHits,
		NVMLineLoads: st.LinesLoaded,
		NVMPageLoads: st.NVMPageLoads,
		SSDReads:     st.SSDLoads,
		JournalUndos: st.JournalUndos,
	}, e.Clock().Ns()
}

// execOnShard runs one keyed request against the shard that owns its
// key. The caller holds the shard lock.
func execOnShard(st *nvmstore.Store, req wire.Request) wire.Response {
	resp := wire.Response{ID: req.ID}
	tab := st.Table(req.Table)
	if tab == nil {
		resp.Code = wire.RespErr
		resp.Err = fmt.Sprintf("unknown table %d", req.Table)
		return resp
	}
	switch req.Op {
	case wire.OpGet:
		// Pooled row buffer; execute recycles it after the response is
		// encoded (reply copies it into the frame).
		buf := wire.GetBufN(tab.RowSize())
		found, err := tab.Lookup(req.Key, buf)
		switch {
		case err != nil:
			wire.PutBuf(buf)
			resp.Code, resp.Err = wire.RespErr, err.Error()
		case found:
			resp.Code, resp.Value = wire.RespValue, buf
		default:
			wire.PutBuf(buf)
			resp.Code = wire.RespNotFound
		}
	case wire.OpPut:
		if err := st.UpdateNoFlush(func() error { return tab.Put(req.Key, req.Value) }); err != nil {
			resp.Code, resp.Err = wire.RespErr, err.Error()
		} else {
			resp.Code = wire.RespOK
		}
	case wire.OpDelete:
		var found bool
		err := st.UpdateNoFlush(func() error {
			var err error
			found, err = tab.Delete(req.Key)
			return err
		})
		switch {
		case err != nil:
			resp.Code, resp.Err = wire.RespErr, err.Error()
		case found:
			resp.Code = wire.RespOK
		default:
			resp.Code = wire.RespNotFound
		}
	default:
		resp.Code, resp.Err = wire.RespErr, "opcode not routable"
	}
	return resp
}

// txWrite is one buffered write of a connection transaction.
type txWrite struct {
	table, key uint64
	val        []byte
	del        bool
}

// outFrame is one encoded response frame and, when its request is traced,
// the timeline whose final stage is stamped after the socket write.
type outFrame struct {
	buf []byte
	tl  *obs.Timeline
}

// The wire path's batching bounds. They are constants, not options: no
// two deployments need different values, and each only has to be large
// enough that a pipelined burst fits.
const (
	// readBufSize is the per-connection read buffer: the requests one
	// socket read can take in, and the most a reader runs ahead of the
	// store. Larger frames are read straight into the frame buffer.
	readBufSize = 16 << 10
	// writeBatchFrames and writeBatchBytes bound one socket write: the
	// reader sends the responses it holds when they reach either, so a
	// write under one deadline is at most writeBatchBytes plus one frame
	// long. writeBatchFrames also bounds a burst, the keyed requests a
	// reader executes before it answers any: their responses fit one write.
	writeBatchFrames = 64
	writeBatchBytes  = 64 << 10
)

// countedReader counts the reads of a connection's socket that
// returned; it sits under the connection's buffered reader.
type countedReader struct {
	r io.Reader
	n *atomic.Int64
}

func (cr countedReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n.Add(1)
	return n, err
}

// conn is one client connection.
type conn struct {
	srv *Server
	nc  net.Conn
	br  *bufio.Reader // nc through countedReader; owned by the reader goroutine

	// out is the responses the reader has encoded and not yet sent, outBytes
	// their total length. Owned by the reader.
	out      []outFrame
	outBytes int

	// wmu serializes socket writes (the reader's, a feeder's, a parked REPL
	// WAIT's) and guards the sticky write error, the reusable gather list
	// iov and bufs, the view of it that net.Buffers.WriteTo consumes (a
	// field, so taking its address allocates nothing).
	wmu  sync.Mutex
	werr error
	iov  [][]byte
	bufs net.Buffers

	// groups is the burst: the keyed requests decoded but not yet
	// executed, groups[i] those of shard i in arrival order, queued of
	// them in all. runLocked executes groups[shard]; run is that method as
	// a value made once, because Batch retains the function it is given
	// and a closure per group would allocate. Owned by the reader.
	groups [][]task
	queued int
	shard  int
	run    func(*nvmstore.Store) error

	// pending counts the goroutines besides the reader that still push
	// responses (a replication feeder, parked REPL WAITs); the reader
	// closes the connection only after it reaches zero.
	pending sync.WaitGroup

	readClosed sync.Once

	// feed is this connection's replication feed once it subscribed
	// (written by the reader goroutine, detached when the reader exits).
	feed *repl.Feed

	// Transaction state; owned by the reader goroutine.
	txActive bool
	txWrites []txWrite
}

// closeRead half-closes the connection so the reader drains: in-flight
// requests still get responses, new frames are refused.
func (c *conn) closeRead() {
	c.readClosed.Do(func() {
		if tc, ok := c.nc.(*net.TCPConn); ok {
			tc.CloseRead()
			return
		}
		c.nc.SetReadDeadline(time.Now())
	})
}

// reply encodes a response on the reader, with the request's timeline when
// traced (nil otherwise), and queues it.
func (c *conn) reply(resp wire.Response, tl *obs.Timeline) {
	c.queue(wire.AppendResponse(wire.GetBuf(), resp), tl)
}

// queue adds an encoded response frame in a pooled buffer to what the
// reader holds, and sends that once it reaches a socket write's bound.
func (c *conn) queue(frame []byte, tl *obs.Timeline) {
	c.out = append(c.out, outFrame{buf: frame, tl: tl})
	c.outBytes += len(frame)
	if len(c.out) == writeBatchFrames || c.outBytes >= writeBatchBytes {
		c.flush()
	}
}

// flush sends the responses the reader holds, if any, as one socket write.
func (c *conn) flush() {
	c.send(c.out)
	c.out, c.outBytes = c.out[:0], 0
}

// push sends one response from a goroutine registered with c.pending.
func (c *conn) push(resp wire.Response) {
	c.send([]outFrame{{buf: wire.AppendResponse(wire.GetBuf(), resp)}})
}

func (c *conn) readLoop() {
	defer c.srv.connWG.Done()
	buf := wire.GetBuf()
	var payload []byte
	var err error
	for {
		// Every request already in the socket arrives with one read of
		// c.br; the frames after the first are served from its buffer —
		// also after closeRead, so a drain answers all of them.
		payload, buf, err = wire.ReadFrame(c.br, buf)
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				c.srv.logf("server: %s: read: %v", c.nc.RemoteAddr(), err)
			}
			break
		}
		req, derr := wire.DecodeRequest(payload)
		if derr != nil {
			// A peer that cannot frame correctly gets disconnected:
			// once the stream is out of sync every later byte is
			// garbage.
			c.srv.logf("server: %s: %v", c.nc.RemoteAddr(), derr)
			break
		}
		c.dispatch(req)
		// A partial frame ends the burst: the reader never blocks in a
		// read with a request decoded and unexecuted.
		if c.queued == writeBatchFrames || !wire.FrameBuffered(c.br) {
			c.execute()
			c.flush()
		}
	}
	c.execute() // a frame that failed to decode ends the burst too
	c.flush()
	wire.PutBuf(buf) // every alias died with the loop
	if c.feed != nil {
		// Dropping the feed closes its item channel; the feeder drains
		// (it registered with pending) and the Wait below joins it.
		c.srv.opts.Repl.Detach(c.feed)
	}
	// Half-close so a blocked peer write fails rather than waiting for
	// responses that will never come; parked answers leave before the close.
	c.closeRead()
	c.pending.Wait()
	c.nc.Close()
	s := c.srv
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.stats.conns.Add(-1)
	<-s.connSem
}

// answer replies to a request dispatch handled on the reader goroutine and
// counts it: every opcode answered inline ends here, so none goes
// uncounted.
func (c *conn) answer(req wire.Request, start time.Time, resp wire.Response) {
	c.reply(resp, nil)
	c.srv.record(req.Op, start)
}

// dispatch routes one decoded request. Runs on the reader goroutine.
func (c *conn) dispatch(req wire.Request) {
	start := time.Now()
	switch req.Op {
	case wire.OpGet, wire.OpPut, wire.OpDelete:
	default:
		// What the reader answers itself sees the connection's earlier
		// keyed requests applied: PUT k, SCAN from k returns the new row.
		c.execute()
	}
	// repl.MetaTable holds the replication position row and is excluded
	// from both the ship tap and snapshot bootstrap — user data stored
	// there would silently never replicate. Reserve it at the boundary so
	// the divergence is an error, not a surprise.
	switch req.Op {
	case wire.OpGet, wire.OpPut, wire.OpDelete, wire.OpScan:
		if req.Table == repl.MetaTable {
			c.answer(req, start, wire.Response{Code: wire.RespErr, ID: req.ID,
				Err: fmt.Sprintf("table %#x is reserved for replication metadata", repl.MetaTable)})
			return
		}
	}
	switch req.Op {
	case wire.OpGet:
		if c.txActive {
			if resp, hit := c.txRead(req); hit {
				c.answer(req, start, resp)
				return
			}
		}
		c.route(req, start, nil)
	case wire.OpPut:
		if msg := c.writeBlocked(); msg != "" {
			c.answer(req, start, wire.Response{Code: wire.RespErr, ID: req.ID, Err: msg})
			return
		}
		if c.txActive {
			c.txWrites = append(c.txWrites, txWrite{req.Table, req.Key, append([]byte(nil), req.Value...), false})
			c.answer(req, start, wire.Response{Code: wire.RespOK, ID: req.ID})
			return
		}
		c.route(req, start, append(wire.GetBuf(), req.Value...))
	case wire.OpDelete:
		if msg := c.writeBlocked(); msg != "" {
			c.answer(req, start, wire.Response{Code: wire.RespErr, ID: req.ID, Err: msg})
			return
		}
		if c.txActive {
			c.txWrites = append(c.txWrites, txWrite{req.Table, req.Key, nil, true})
			c.answer(req, start, wire.Response{Code: wire.RespOK, ID: req.ID})
			return
		}
		c.route(req, start, nil)
	case wire.OpScan:
		c.scan(req, start)
	case wire.OpBegin:
		resp := wire.Response{Code: wire.RespOK, ID: req.ID}
		if c.txActive {
			resp.Code, resp.Err = wire.RespErr, "transaction already active"
		} else {
			c.txActive = true
		}
		c.answer(req, start, resp)
	case wire.OpCommit:
		if msg := c.writeBlocked(); msg != "" {
			c.txActive = false
			c.txWrites = c.txWrites[:0]
			c.answer(req, start, wire.Response{Code: wire.RespErr, ID: req.ID, Err: msg})
			return
		}
		c.answer(req, start, c.commit(req))
	case wire.OpRollback:
		c.txActive = false
		c.txWrites = c.txWrites[:0]
		c.answer(req, start, wire.Response{Code: wire.RespOK, ID: req.ID})
	case wire.OpStats:
		resp := wire.Response{ID: req.ID}
		buf, err := json.Marshal(c.srv.Stats())
		if err != nil {
			resp.Code, resp.Err = wire.RespErr, err.Error()
		} else {
			resp.Code, resp.Value = wire.RespStats, buf
		}
		c.answer(req, start, resp)
	case wire.OpReplSubscribe:
		c.replSubscribe(req, start)
	case wire.OpReplAck:
		c.replAck(req, start)
	case wire.OpReplPromote:
		c.replPromote(req, start)
	case wire.OpReplLSNs:
		c.replLSNs(req, start)
	case wire.OpReplWait:
		c.replWait(req, start)
	}
}

// route adds a keyed request to the burst, under its owning shard. value,
// when non-nil, replaces req.Value with a copy the task owns (the frame
// buffer is about to be reused). A traced request gets its span timeline
// here — the only per-request allocation tracing adds, and only on
// sampled requests; transaction-buffered requests answer inline and are
// not timelined.
func (c *conn) route(req wire.Request, start time.Time, value []byte) {
	req.Value = value
	var tl *obs.Timeline
	if req.Traced() {
		tl = new(obs.Timeline)
		tl.Begin(req.TraceID, wire.OpName(req.Op), start.UnixNano())
		// The enqueue stage is the reader-side decode and dispatch work;
		// the queue stage runs until the request's own execution starts.
		tl.Mark(obs.StageEnqueue, time.Now().UnixNano())
	}
	shard := c.srv.store.ShardFor(req.Key)
	c.groups[shard] = append(c.groups[shard], task{req: req, start: start, tl: tl})
	c.queued++
	c.srv.queueDepth[shard].n.Add(1)
}

// txRead answers a GET from the connection's transaction buffer, most
// recent write wins. A miss falls through to the routed path.
func (c *conn) txRead(req wire.Request) (wire.Response, bool) {
	for i := len(c.txWrites) - 1; i >= 0; i-- {
		w := c.txWrites[i]
		if w.table != req.Table || w.key != req.Key {
			continue
		}
		if w.del {
			return wire.Response{Code: wire.RespNotFound, ID: req.ID}, true
		}
		return wire.Response{Code: wire.RespValue, ID: req.ID, Value: w.val}, true
	}
	return wire.Response{}, false
}

// commit applies the buffered transaction, one atomic sub-transaction
// per shard (shared-nothing semantics), in ascending shard order: which
// shards committed before a failing one does not vary from run to run.
func (c *conn) commit(req wire.Request) wire.Response {
	resp := wire.Response{Code: wire.RespOK, ID: req.ID}
	if !c.txActive {
		resp.Code, resp.Err = wire.RespErr, "no transaction"
		return resp
	}
	writes := c.txWrites
	c.txActive = false
	c.txWrites = nil
	byShard := make([][]txWrite, c.srv.store.NumShards())
	for _, w := range writes {
		i := c.srv.store.ShardFor(w.key)
		byShard[i] = append(byShard[i], w)
	}
	for i, group := range byShard {
		if len(group) == 0 {
			continue
		}
		err := c.srv.store.Batch(i, func(st *nvmstore.Store) error {
			return st.UpdateNoFlush(func() error {
				for _, w := range group {
					tab := st.Table(w.table)
					if tab == nil {
						return fmt.Errorf("unknown table %d", w.table)
					}
					if w.del {
						if _, err := tab.Delete(w.key); err != nil {
							return err
						}
						continue
					}
					if err := tab.Put(w.key, w.val); err != nil {
						return err
					}
				}
				return nil
			})
		})
		if err != nil {
			resp.Code = wire.RespErr
			resp.Err = fmt.Sprintf("commit on shard %d: %v (per-shard atomicity: other shards may have committed)", i, err)
			return resp
		}
	}
	return resp
}

// scan answers a SCAN with ShardedTable.Scan up to the clamped limit —
// the call an embedded caller makes: a stable commit-LSN prefix per
// shard, read without holding a shard's lock beyond the copy of the rows
// it contributes, resumed on a fresh snapshot if a shard restarts
// mid-scan. The server copies a row once: from the scan's cursor, where
// fn is handed it, straight into the response frame.
func (c *conn) scan(req wire.Request, start time.Time) {
	fail := func(msg string) {
		c.answer(req, start, wire.Response{Code: wire.RespErr, ID: req.ID, Err: msg})
	}
	tab := c.srv.store.Table(req.Table)
	if tab == nil {
		fail(fmt.Sprintf("unknown table %d", req.Table))
		return
	}
	limit := int(req.Limit)
	if limit <= 0 || limit > c.srv.opts.MaxScan {
		limit = c.srv.opts.MaxScan
	}
	// MaxScan caps rows; the frame bound caps bytes. Each entry encodes
	// as key(8) + len(4) + row, so clamp the row count to what fits in
	// one wire.MaxFrame whatever the table's row size.
	if byBytes := (wire.MaxFrame - 64) / (12 + tab.RowSize()); limit > byBytes {
		limit = byBytes
		if limit < 1 {
			limit = 1 // a single >8MiB row cannot be framed anyway
		}
	}
	// One pooled buffer sized for the worst case up front: the appends
	// below never reallocate. The row count is known only when the scan
	// returns (it may have resumed across a shard restart), so the frame's
	// head is patched then.
	frame := wire.BeginScanFrame(wire.GetBufN(wire.ScanFrameSize(limit, tab.RowSize())), req.ID)
	rows := 0
	collect := func(key uint64, field []byte) bool {
		frame = wire.AppendScanEntry(frame, key, field)
		rows++
		return true
	}
	if err := tab.Scan(req.Key, limit, 0, tab.RowSize(), collect); err != nil {
		wire.PutBuf(frame) // a partial result is no answer
		fail(err.Error())
		return
	}
	wire.FinishScanFrame(frame, rows)
	c.queue(frame, nil)
	c.srv.record(req.Op, start)
}

// send writes the batch's frames to the socket — or discards them: the
// write error is sticky, once the peer is gone every later frame goes to
// the floor — then recycles their buffers and completes their timelines.
func (c *conn) send(batch []outFrame) {
	c.wmu.Lock()
	if c.werr == nil {
		c.werr = c.writeBatch(batch)
	}
	c.wmu.Unlock()
	var now int64
	for _, f := range batch {
		// The frame is on the wire (or discarded): recycle it. Written,
		// dropped and severed frames alike, so the pool sees every buffer
		// back exactly once.
		wire.PutBuf(f.buf)
		if f.tl != nil {
			// The timeline is complete once the batch's bytes hit the
			// socket (or were discarded on a dead peer); after Record it
			// is published and must not be touched again.
			if now == 0 {
				now = time.Now().UnixNano()
			}
			f.tl.Finish(now)
			c.srv.flight.Record(f.tl)
		}
	}
}

// writeBatch sends the batch's encoded response frames as one vectored
// socket write under one deadline and returns the error that severed the
// connection, if one did. Injected faults are decided per frame, in order,
// before anything is sent: the frames ahead of a faulted one leave whole
// (plus half of it, for a partial fault), then the connection is severed
// — a batch is severable at every frame boundary, exactly like the
// frame-at-a-time writes it replaces. The caller holds c.wmu.
func (c *conn) writeBatch(batch []outFrame) error {
	s := c.srv
	iov := c.iov[:0]
	whole := 0
	var injected error
	for _, f := range batch {
		if in := s.opts.Faults; in != nil {
			if in.Check(fault.NetDrop).Fire {
				injected = errors.New("injected connection drop")
				break
			}
			if in.Check(fault.NetPartial).Fire {
				// Half a frame, then sever: the client sees a short read
				// on a frame it can neither finish nor trust.
				iov = append(iov, f.buf[:len(f.buf)/2])
				injected = errors.New("injected partial frame")
				break
			}
		}
		iov = append(iov, f.buf)
		whole++
	}
	c.iov = iov
	if len(iov) > 0 {
		// The deadline is what makes a stalled peer (TCP zero window)
		// a bounded problem: the write fails at the latest after
		// WriteTimeout, the connection is severed, and every later
		// response is discarded.
		c.nc.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout))
		c.bufs = iov
		_, werr := c.bufs.WriteTo(c.nc)
		s.stats.writeCalls.Add(1)
		if werr != nil {
			// Sever the connection so the next read fails; send discards
			// the responses to what the reader already holds.
			c.nc.Close()
			if !errors.Is(werr, net.ErrClosed) {
				s.logf("server: %s: write: %v", c.nc.RemoteAddr(), werr)
			}
			return werr
		}
		s.stats.framesWritten.Add(int64(whole))
	}
	if injected != nil {
		c.nc.Close()
	}
	return injected
}
