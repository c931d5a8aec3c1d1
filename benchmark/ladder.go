package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"nvmstore"
	"nvmstore/internal/wire"
)

// The ladder sends one stream of operations to each public boundary of
// the program in turn, a slice of the stream per boundary, on the data
// the measured phase left behind, timing the calls from outside:
//
//	wire     AppendRequest/ReadFrame/DecodeRequest and the response
//	         equivalents, in memory                         (wire only)
//	client   internal/client call over loopback into server (wire only)
//	sharded  ShardedTable.Lookup/Put/ScanSnapshot           (wire only)
//	engine   Store.Update around one Table call
//	btree    the same Table call inside an open transaction
//	noflush  Store.UpdateNoFlush around the Table call, and FlushWAL alone
//
// A layer's self time is its rung minus the rung beneath it, so the self
// times of a column add up to its top rung. Every rung is a loop of its
// own: operations of one kind, back to back, one caller.

// spanSample is the 1-in-N sampling of per-operation spans, in the
// ladder's loops and in the server's flight recorder alike.
const spanSample = 64

// span is one traced interval. Op is the operation's position in the
// ladder's stream of its kind; Parent is the loop that ran it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Op     int64  `json:"op"` // operation id, -1 for a loop
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(parent int, name string) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Op: -1, Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].End = time.Since(t.t0).Nanoseconds() }

// loop runs call on every operation and returns the loop's wall time.
// One operation in spanSample is timed on its own and recorded.
func (t *tracer) loop(parent int, name string, ops []op, call func(o op) bool) (wall time.Duration, failed int64) {
	start := time.Now()
	for _, o := range ops {
		if o.id%spanSample != 0 {
			if !call(o) {
				failed++
			}
			continue
		}
		s := time.Since(t.t0)
		ok := call(o)
		e := time.Since(t.t0)
		t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Op: int64(o.id), Start: s.Nanoseconds(), End: e.Nanoseconds()})
		if !ok {
			failed++
		}
	}
	return time.Since(start), failed
}

// write stores the spans as <dir>/<workload>.trace.json.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	data, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// callRung is a rung above the Store: one call per operation.
type callRung struct {
	name string
	call func(o op) bool
}

// rungStat is one loop's cost per operation.
type rungStat struct {
	n      int
	failed int64
	wallNs float64
	simNs  float64 // simulated device time, summed over shards
	allocs float64
	lines  float64 // NVM cache lines loaded
	bytes  float64 // bytes written to NVM and SSD, log included
}

// Rung names, top to bottom. wire.req and wire.resp are parts of client,
// not rungs beneath it.
var rungNames = []string{"wire.req", "wire.resp", "client", "sharded", "engine", "btree", "noflush"}

type ladderResult struct {
	rungs map[string]*[numKinds]*rungStat
	// flushNs is FlushWAL alone, per call, each call covering flushBatch
	// commits.
	flushNs float64
	failed  int64
	ops     int64
}

const (
	txChunk    = 256 // operations per open transaction in the btree rung
	flushBatch = 32  // commits per FlushWAL in the noflush rung: the server's default batch
)

func (l *ladderResult) get(name string, kind int) *rungStat {
	if row := l.rungs[name]; row != nil && row[kind] != nil {
		return row[kind]
	}
	return &rungStat{}
}

// ladder runs every rung for every operation kind in the workload's mix.
func (r *run) ladder(d driver, tr *tracer) *ladderResult {
	l := &ladderResult{rungs: make(map[string]*[numKinds]*rungStat)}
	root := tr.begin(0, "ladder")
	defer tr.end(root)

	record := func(name string, kind int, n int, body func(id int) (time.Duration, int64)) {
		c0 := d.counters()
		id := tr.begin(root, name+"."+kindNames[kind])
		wall, failed := body(id)
		tr.end(id)
		c1 := d.counters()
		per := func(x float64) float64 { return x / float64(n) }
		st := &rungStat{
			n: n, failed: failed,
			wallNs: per(float64(wall.Nanoseconds())),
			simNs:  per(float64((c1.simTotal - c0.simTotal).Nanoseconds())),
			allocs: per(float64(c1.mem.Mallocs - c0.mem.Mallocs)),
			lines:  per(float64(c1.m.Buffer.LinesLoaded - c0.m.Buffer.LinesLoaded)),
			bytes: per(float64((c1.m.NVMTotalWrites-c0.m.NVMTotalWrites)*cacheLine +
				(c1.m.SSDPagesWritten-c0.m.SSDPagesWritten)*pageSize)),
		}
		if l.rungs[name] == nil {
			l.rungs[name] = new([numKinds]*rungStat)
		}
		l.rungs[name][kind] = st
		l.failed += failed
		l.ops += int64(n)
	}

	val := make([]byte, fieldSize)
	row := make([]byte, rowSize)
	var version uint64
	stamp := func(o op) {
		if o.kind == opPut {
			version++
			fillField(val, o.key, int(o.field), version)
		}
	}

	// txCall is the call of a rung that gives every table call a
	// transaction of its own, committed by commit.
	txCall := func(tab *nvmstore.Table, commit func(func() error) error) func(op) bool {
		var cur op
		var found bool
		body := func() error {
			var err error
			found, err = d.tableOp(tab, cur, val, row)
			return err
		}
		return func(o op) bool {
			cur = o
			stamp(o)
			return commit(body) == nil && found
		}
	}

	for kind := 0; kind < numKinds; kind++ {
		if r.sp.share(kind) == 0 {
			continue
		}
		n := r.scaled(r.sp.ladderOps)
		if kind == opScan {
			n = max(n/8, 1)
		}
		// Every rung takes the next n operations of one stream. Replaying
		// the same n would be unfair to the upper rungs: the lower ones
		// would find the simulated CPU cache (20 MB) warm with exactly
		// their lines.
		ops := make([]op, n)
		s := r.sp.newStream(r.z, r.seed, tagLadder+uint64(kind))
		measure := func(name string, body func(id int) (time.Duration, int64)) {
			s.fillKind(ops, uint8(kind))
			record(name, kind, n, body)
		}

		if r.sp.wire {
			measure("wire.req", func(id int) (time.Duration, int64) { return codecRequests(tr, id, ops) })
			measure("wire.resp", func(id int) (time.Duration, int64) { return codecResponses(tr, id, ops) })
		}
		for _, cr := range d.callRungs() {
			measure(cr.name, func(id int) (time.Duration, int64) { return tr.loop(id, cr.name, ops, cr.call) })
		}

		// engine: one transaction per operation.
		measure("engine", func(id int) (wall time.Duration, failed int64) {
			d.onStores(ops, func(st *nvmstore.Store, tab *nvmstore.Table, part []op) {
				w, f := tr.loop(id, "engine", part, txCall(tab, st.Update))
				wall += w
				failed += f
			})
			return wall, failed
		})

		// btree: the bare table call; Begin and Commit sit outside the
		// timed loop, once per txChunk operations.
		measure("btree", func(id int) (wall time.Duration, failed int64) {
			d.onStores(ops, func(st *nvmstore.Store, tab *nvmstore.Table, part []op) {
				for len(part) > 0 {
					m := min(txChunk, len(part))
					st.Begin()
					w, f := tr.loop(id, "btree", part[:m], func(o op) bool {
						stamp(o)
						found, err := d.tableOp(tab, o, val, row)
						return err == nil && found
					})
					if err := st.Commit(); err != nil {
						f++
					}
					wall += w
					failed += f
					part = part[m:]
				}
			})
			return wall, failed
		})

		if kind != opPut {
			continue
		}
		// noflush: the engine rung without its flush, and the flush alone.
		var flushWall time.Duration
		var flushes int64
		measure("noflush", func(id int) (wall time.Duration, failed int64) {
			d.onStores(ops, func(st *nvmstore.Store, tab *nvmstore.Table, part []op) {
				call := txCall(tab, st.UpdateNoFlush)
				for len(part) > 0 {
					m := min(flushBatch, len(part))
					w, f := tr.loop(id, "noflush", part[:m], call)
					t0 := time.Now()
					if _, err := st.FlushWAL(); err != nil {
						f++
					}
					flushWall += time.Since(t0)
					flushes++
					wall += w
					failed += f
					part = part[m:]
				}
			})
			return wall, failed
		})
		l.flushNs = float64(flushWall.Nanoseconds()) / float64(flushes)
	}
	return l
}

// share is the percentage of the workload's operations of one kind.
func (sp *spec) share(kind int) int {
	switch kind {
	case opPut:
		return sp.putPct
	case opScan:
		return sp.scanPct
	}
	return 100 - sp.putPct - sp.scanPct
}

// mixed weights a per-kind quantity by the workload's mix.
func (sp *spec) mixed(f func(kind int) float64) float64 {
	sum := 0.0
	for k := 0; k < numKinds; k++ {
		if s := sp.share(k); s > 0 {
			sum += f(k) * float64(s) / 100
		}
	}
	return sum
}

// codecRequests encodes each request, reads the frame back and decodes
// it: what client and server together do to a request's bytes.
func codecRequests(tr *tracer, id int, ops []op) (time.Duration, int64) {
	val := make([]byte, fieldSize)
	var frame, scratch []byte
	var rd bytes.Reader
	return tr.loop(id, "wire.req", ops, func(o op) bool {
		req := wire.Request{ID: o.id, Table: tableID, Key: o.key}
		switch o.kind {
		case opPut:
			req.Op, req.Value = wire.OpPut, val
		case opScan:
			req.Op, req.Limit = wire.OpScan, scanLen
		default:
			req.Op = wire.OpGet
		}
		frame = wire.AppendRequest(frame[:0], req)
		rd.Reset(frame)
		var payload []byte
		var err error
		payload, scratch, err = wire.ReadFrame(&rd, scratch)
		if err != nil {
			return false
		}
		got, err := wire.DecodeRequest(payload)
		return err == nil && got.Key == o.key
	})
}

// codecResponses does the same for the response the operation gets: a
// 1000-byte row, a bare OK, or fifty rows.
func codecResponses(tr *tracer, id int, ops []op) (time.Duration, int64) {
	row := make([]byte, rowSize)
	entries := make([]wire.Entry, scanLen)
	for i := range entries {
		entries[i] = wire.Entry{Key: uint64(i), Value: row}
	}
	var frame, scratch []byte
	var rd bytes.Reader
	return tr.loop(id, "wire.resp", ops, func(o op) bool {
		resp := wire.Response{ID: o.id}
		switch o.kind {
		case opPut:
			resp.Code = wire.RespOK
		case opScan:
			resp.Code, resp.Entries = wire.RespScan, entries
		default:
			resp.Code, resp.Value = wire.RespValue, row
		}
		frame = wire.AppendResponse(frame[:0], resp)
		rd.Reset(frame)
		var payload []byte
		var err error
		payload, scratch, err = wire.ReadFrame(&rd, scratch)
		if err != nil {
			return false
		}
		got, err := wire.DecodeResponse(payload)
		return err == nil && got.ID == o.id
	})
}

// selfTimes turns the rungs into per-layer metrics. The wire codec is
// part of the client rung, so the server's self time (client, server
// and loopback together; the two cannot be told apart from outside)
// is the client rung minus the codec and minus the sharded rung.
func (l *ladderResult) selfTimes(sp *spec, v values) {
	wall := func(name string, kind int) float64 { return l.get(name, kind).wallNs }
	v["wire.req_codec_ns"] = sp.mixed(func(k int) float64 { return wall("wire.req", k) })
	v["wire.resp_codec_ns"] = sp.mixed(func(k int) float64 { return wall("wire.resp", k) })
	v["wire.codec_allocs_per_op"] = sp.mixed(func(k int) float64 {
		return l.get("wire.req", k).allocs + l.get("wire.resp", k).allocs
	})
	for k, name := range kindNames {
		if sp.wire {
			v["server.self_ns_"+name] = wall("client", k) - wall("wire.req", k) - wall("wire.resp", k) - wall("sharded", k)
		} else {
			v["server.self_ns_"+name] = 0
		}
	}
	for _, k := range []int{opGet, opPut} {
		name := kindNames[k]
		if sp.wire {
			v["sharded.self_ns_"+name] = wall("sharded", k) - wall("engine", k)
		} else {
			v["sharded.self_ns_"+name] = 0
		}
		v["engine.self_ns_"+name] = wall("engine", k) - wall("btree", k)
		v["btree.op_ns_"+name] = wall("btree", k)
	}
	v["btree.op_ns_scan50"] = wall("btree", opScan)
	v["wal.flush_self_ns"] = wall("engine", opPut) - wall("noflush", opPut)
}

// print writes the ladder as one table per operation kind.
func (l *ladderResult) print(w io.Writer, sp *spec) {
	for k, kname := range kindNames {
		if sp.share(k) == 0 {
			continue
		}
		fmt.Fprintf(w, "ladder %s (per operation)\n", kname)
		fmt.Fprintf(w, "  %-10s %8s %12s %12s %10s %10s %12s\n", "rung", "ops", "wall_ns", "sim_ns", "allocs", "nvm_lines", "bytes_written")
		for _, name := range rungNames {
			row := l.rungs[name]
			if row == nil || row[k] == nil {
				continue
			}
			s := row[k]
			fmt.Fprintf(w, "  %-10s %8d %12.1f %12.1f %10.2f %10.2f %12.1f\n", name, s.n, s.wallNs, s.simNs, s.allocs, s.lines, s.bytes)
		}
		if k == opPut {
			fmt.Fprintf(w, "  %-10s %8s %12.1f   per FlushWAL call covering %d commits\n", "flush", "", l.flushNs, flushBatch)
		}
	}
}
