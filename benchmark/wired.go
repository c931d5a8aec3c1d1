package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"nvmstore"
	"nvmstore/internal/client"
	"nvmstore/internal/obs"
	"nvmstore/internal/server"
	"nvmstore/internal/wire"
)

const (
	wireConns = 2 // connections, and client goroutines, in the throughput phase
	wireDepth = 8 // requests each goroutine keeps in flight (point workloads)
)

// wireDepthOf is how many requests each client goroutine keeps in flight
// in a throughput segment: scan clients are synchronous.
func wireDepthOf(sp *spec) int {
	if sp.scanPct > 0 {
		return 1
	}
	return wireDepth
}

// wired drives an in-process server on 127.0.0.1 through internal/client:
// a loaded client (two connections) for the throughput phase and a
// one-connection client used synchronously for the latency phase.
type wired struct {
	sp    *spec
	store *nvmstore.ShardedStore
	table *nvmstore.ShardedTable
	srv   *server.Server
	done  chan error // Serve's return value

	cl, cl1 *client.Client

	depth   int
	version atomic.Uint64

	loadWalls []float64 // host wall seconds of each chunk of the load

	// queueDepth accumulates the STATS samples of the traced run.
	queueSum, queueN float64
}

// openWired opens the sharded store, serves it, and loads every row over
// the wire with pipelined PUTs of whole rows.
func openWired(sp *spec, traced, strict bool, conns int) (*wired, error) {
	store, err := nvmstore.OpenSharded(sp.shards, storeOptions(sp, traced, strict))
	if err != nil {
		return nil, err
	}
	w := &wired{sp: sp, store: store, depth: wireDepthOf(sp), done: make(chan error, 1)}
	if w.table, err = store.CreateTable(tableID, rowSize); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w.srv = server.New(store, server.Options{})
	go func() { w.done <- w.srv.Serve(ln) }()

	opts := client.Options{Conns: conns, Depth: wireDepth}
	if traced {
		opts.TraceSample = spanSample
	}
	if w.cl, err = client.Dial(ln.Addr().String(), opts); err != nil {
		return nil, err
	}
	opts.Conns = 1
	if w.cl1, err = client.Dial(ln.Addr().String(), opts); err != nil {
		return nil, err
	}
	for from := 0; from < sp.rows; from += loadChunk {
		start := time.Now()
		if err := w.load(from, min(from+loadChunk, sp.rows)); err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
		w.loadWalls = append(w.loadWalls, time.Since(start).Seconds())
	}
	if err := store.Checkpoint(); err != nil {
		return nil, fmt.Errorf("checkpoint after load: %w", err)
	}
	return w, nil
}

// loadChunk is how many rows one timed chunk of the load PUTs: some ten
// milliseconds' worth, the grain of the quiet filter (see setUpSeconds).
const loadChunk = 1000

// load PUTs rows from..to-1, each connection's goroutine every other one.
func (w *wired) load(from, to int) error {
	errs := make([]error, wireConns)
	var wg sync.WaitGroup
	for g := 0; g < wireConns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			row := make([]byte, rowSize)
			var win []*client.Call
			settle := func() {
				if _, err := win[0].Result(); err != nil && errs[g] == nil {
					errs[g] = err
				}
				win = win[1:]
			}
			for k := from + g; k < to; k += wireConns {
				fillRow(row, uint64(k))
				win = append(win, w.cl.PutAsync(tableID, uint64(k), row))
				if len(win) == wireDepth {
					settle()
				}
			}
			for len(win) > 0 {
				settle()
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *wired) workers() int { return wireConns }

// checkScan checks a SCAN result: keys from..from+n-1 exist (nothing is
// ever deleted), so the rows must be exactly those, in order.
func (w *wired) checkScan(from uint64, entries []wire.Entry) bool {
	want := w.sp.rows - int(from)
	if want > scanLen {
		want = scanLen
	}
	if len(entries) != want {
		return false
	}
	for i, e := range entries {
		if e.Key != from+uint64(i) || len(e.Value) != rowSize || !stampOK(e.Value, e.Key) {
			return false
		}
	}
	return true
}

func (w *wired) checkPoint(o op, resp wire.Response, err error) bool {
	if err != nil {
		return false
	}
	if o.kind == opPut {
		return resp.Code == wire.RespOK
	}
	return resp.Code == wire.RespValue && len(resp.Value) == rowSize && stampOK(resp.Value, o.key)
}

type pending struct {
	call *client.Call
	o    op
	t0   time.Time
}

// worker is one closed-loop client goroutine: it keeps up to depth
// requests in flight and settles the oldest before issuing another.
func (w *wired) worker(ops []op, samples []uint32) (out []uint32, failed int64) {
	val := make([]byte, fieldSize)
	win := make([]pending, 0, w.depth)
	settle := func() {
		p := win[0]
		resp, err := p.call.Result()
		samples = append(samples, clampNs(time.Since(p.t0)))
		if !w.checkPoint(p.o, resp, err) {
			failed++
		}
		win = append(win[:0], win[1:]...)
	}
	for _, o := range ops {
		if len(win) == w.depth {
			settle()
		}
		t0 := time.Now()
		switch o.kind {
		case opScan:
			entries, err := w.cl.Scan(tableID, o.key, scanLen)
			samples = append(samples, clampNs(time.Since(t0)))
			if err != nil || !w.checkScan(o.key, entries) {
				failed++
			}
		case opPut:
			// PutAsync has encoded val when it returns, so val is reused.
			fillField(val, o.key, 0, w.version.Add(1))
			win = append(win, pending{w.cl.PutAsync(tableID, o.key, val), o, t0})
		default:
			win = append(win, pending{w.cl.GetAsync(tableID, o.key), o, t0})
		}
	}
	for len(win) > 0 {
		settle()
	}
	return samples, failed
}

// segment starts one worker per connection and waits for all of them.
// Wire time is host wall time only (the server never sleeps for device
// time); the simulated part of hybrid time is the slowest shard's.
func (w *wired) segment(ops [][]op, samples [][]uint32) (wall, sim time.Duration, failed int64) {
	sim0 := w.store.MaxSimulatedTime()
	fails := make([]int64, len(ops))
	var wg sync.WaitGroup
	start := time.Now()
	for g := range ops {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			samples[g], fails[g] = w.worker(ops[g], samples[g])
		}(g)
	}
	wg.Wait()
	wall = time.Since(start)
	for _, f := range fails {
		failed += f
	}
	return wall, w.store.MaxSimulatedTime() - sim0, failed
}

// call runs one operation synchronously on the one-connection client.
func (w *wired) call(o op, val []byte) bool {
	switch o.kind {
	case opScan:
		entries, err := w.cl1.Scan(tableID, o.key, scanLen)
		return err == nil && w.checkScan(o.key, entries)
	case opPut:
		fillField(val, o.key, 0, w.version.Add(1))
		return w.cl1.Put(tableID, o.key, val) == nil
	}
	row, found, err := w.cl1.Get(tableID, o.key)
	return err == nil && found && len(row) == rowSize && stampOK(row, o.key)
}

func (w *wired) latSegment(ops []op, lat *[numKinds][]uint32) (failed int64) {
	val := make([]byte, fieldSize)
	for _, o := range ops {
		t0 := time.Now()
		ok := w.call(o, val)
		lat[o.kind] = append(lat[o.kind], clampNs(time.Since(t0)))
		if !ok {
			failed++
		}
	}
	return failed
}

func (w *wired) counters() *counters {
	c := &counters{
		m:        w.store.Metrics(),
		sim:      w.store.MaxSimulatedTime(),
		simTotal: w.store.TotalSimulatedTime(),
		commits:  make([]int64, w.sp.shards),
	}
	for i := range c.commits {
		_ = w.store.WithShard(i, func(st *nvmstore.Store) error {
			c.logFill += st.LogFill()
			c.commits[i] = st.Metrics().Log.Commits
			return nil
		})
	}
	hostCounters(c)
	return c
}

func (w *wired) checkpoint() error { return w.store.Checkpoint() }

func (w *wired) wearMax() float64 { return float64(w.store.WearProfile().MaxPerLine) }

func (w *wired) stats() (server.StatsDoc, error) {
	var doc server.StatsDoc
	raw, err := w.cl1.Stats()
	if err != nil {
		return doc, err
	}
	return doc, json.Unmarshal(raw, &doc)
}

// watch polls STATS every 50 ms, accumulating the shard queue depths,
// until the returned function is called. The poll takes the shard locks,
// so it runs beside the traced phase only.
func (w *wired) watch() func() {
	stop, done := make(chan struct{}), make(chan struct{})
	go w.sampleQueues(stop, done)
	return func() {
		close(stop)
		<-done
	}
}

func (w *wired) sampleQueues(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			doc, err := w.stats()
			if err != nil {
				return
			}
			for _, d := range doc.ShardQueueDepth {
				w.queueSum += float64(d)
			}
			w.queueN++
		}
	}
}

// traceMetrics reads what only the server can tell: the flight
// recorder's p99 decomposition, accept waits, and the client's retries.
func (w *wired) traceMetrics(v values) {
	v["client.retries"] = float64(w.cl.Retries() + w.cl1.Retries())
	doc, err := w.stats()
	if err != nil {
		return
	}
	v["server.conn_waits"] = float64(doc.ConnWaits)
	if w.queueN > 0 {
		v["server.queue_depth_mean"] = w.queueSum / w.queueN
	}
	if doc.Trace != nil {
		st := doc.Trace.P99.Stages
		v["server.p99_enqueue_us"] = float64(st[obs.StageEnqueue]) / 1e3
		v["server.p99_queue_us"] = float64(st[obs.StageQueue]) / 1e3
		v["server.p99_exec_us"] = float64(st[obs.StageExec]) / 1e3
		v["server.p99_flush_us"] = float64(st[obs.StageFlush]) / 1e3
		v["server.p99_write_us"] = float64(st[obs.StageWrite]) / 1e3
	}
}

// stop drops the clients and drains the server, leaving the store open.
func (w *wired) stop() error {
	w.cl.Close()
	w.cl1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := w.srv.Shutdown(ctx); err != nil {
		return err
	}
	return <-w.done
}

func (w *wired) close() error {
	if err := w.stop(); err != nil {
		return err
	}
	return w.store.Close()
}

// onStores runs fn on each shard's Store with the operations that shard
// owns (every scan: a sharded scan reads all shards), in chunks under
// the shard lock, yielding to the maintainer's backpressure in between
// as the server does.
func (w *wired) onStores(ops []op, fn func(st *nvmstore.Store, tab *nvmstore.Table, ops []op)) {
	const chunk = 64
	for i := 0; i < w.sp.shards; i++ {
		var mine []op
		for _, o := range ops {
			if o.kind == opScan || w.store.ShardFor(o.key) == i {
				mine = append(mine, o)
			}
		}
		for len(mine) > 0 {
			n := min(chunk, len(mine))
			w.store.PaceWriter(i)
			_ = w.store.WithShard(i, func(st *nvmstore.Store) error {
				fn(st, st.Table(tableID), mine[:n])
				return nil
			})
			mine = mine[n:]
		}
	}
}

// tableOp is what the server executes for one request, minus its
// transaction: a whole-row lookup, an update of the first field, or a
// scan of whole rows.
func (w *wired) tableOp(tab *nvmstore.Table, o op, val, row []byte) (bool, error) {
	switch o.kind {
	case opPut:
		return tab.UpdateField(o.key, 0, val)
	case opScan:
		n := 0
		err := tab.Scan(o.key, scanLen, 0, rowSize, func(uint64, []byte) bool { n++; return true })
		return n > 0, err
	}
	return tab.Lookup(o.key, row)
}

// callRungs are the ladder's rungs above the Store, top first.
func (w *wired) callRungs() []callRung {
	val := make([]byte, fieldSize)
	row := make([]byte, rowSize)
	return []callRung{
		{"client", func(o op) bool { return w.call(o, val) }},
		{"sharded", func(o op) bool {
			switch o.kind {
			case opPut:
				fillField(val, o.key, 0, w.version.Add(1))
				return w.table.Put(o.key, val) == nil
			case opScan:
				sn, err := w.store.Snapshot()
				if err != nil {
					return false
				}
				n := 0
				err = w.table.ScanSnapshot(sn, o.key, scanLen, 0, rowSize, func(uint64, []byte) bool { n++; return true })
				sn.Close()
				return err == nil && n > 0
			}
			found, err := w.table.Lookup(o.key, row)
			return err == nil && found && stampOK(row, o.key)
		}},
	}
}

// verifyWired reruns part of the workload through a server over a fresh
// store that forgets unflushed NVM writes. One connection carries the
// requests, so writes to one key are applied in the order they were
// issued and "the last acknowledged version" is well defined. Each read
// must return a version no older than the last one acknowledged before
// it was issued and no newer than the last one issued. Then the clients
// are dropped, the store crashes, and every written key is read back.
func verifyWired(sp *spec, z *zipfParams, seed uint64, n int) (verdict, error) {
	var v verdict
	w, err := openWired(sp, false, true, 1)
	if err != nil {
		return v, err
	}
	issued := make(map[uint64]uint64) // key -> newest version sent
	acked := make(map[uint64]uint64)  // key -> newest version acknowledged
	type inflight struct {
		pending
		version uint64 // PUT: the version written; GET: acked[key] at issue
	}
	val := make([]byte, fieldSize)
	var win []inflight
	settle := func() {
		p := win[0]
		win = win[1:]
		resp, err := p.call.Result()
		if !w.checkPoint(p.o, resp, err) {
			v.failed++
			return
		}
		if p.o.kind == opPut {
			acked[p.o.key] = p.version
			return
		}
		got, ok := fieldVersion(resp.Value, p.o.key, 0)
		if !ok || got < p.version || got > issued[p.o.key] {
			v.failed++
		}
	}
	s := sp.newStream(z, seed, tagVerify)
	for i := 0; i < n; i++ {
		o := s.next()
		v.attempted++
		if len(win) == w.depth {
			settle()
		}
		switch o.kind {
		case opScan:
			entries, err := w.cl.Scan(tableID, o.key, scanLen)
			ok := err == nil && w.checkScan(o.key, entries)
			for _, e := range entries {
				// Nothing is in flight (scan clients are synchronous),
				// so each row must be exactly its last written version.
				got, full := fieldVersion(e.Value, e.Key, 0)
				ok = ok && full && got == acked[e.Key]
			}
			if !ok {
				v.failed++
			}
		case opPut:
			ver := w.version.Add(1)
			fillField(val, o.key, 0, ver)
			issued[o.key] = ver
			win = append(win, inflight{pending{call: w.cl.PutAsync(tableID, o.key, val), o: o}, ver})
		default:
			win = append(win, inflight{pending{call: w.cl.GetAsync(tableID, o.key), o: o}, acked[o.key]})
		}
	}
	for len(win) > 0 {
		settle()
	}

	if err := w.stop(); err != nil {
		return v, err
	}
	sim0, t0 := w.store.MaxSimulatedTime(), time.Now()
	rec, err := w.store.CrashRestart()
	if err != nil {
		return v, fmt.Errorf("crash restart: %w", err)
	}
	v.restart = time.Since(t0) + w.store.MaxSimulatedTime() - sim0
	v.redone = rec.Redone
	defer w.store.Close()

	tab := w.store.Table(tableID)
	row := make([]byte, rowSize)
	for key, ver := range acked {
		v.attempted++
		found, err := tab.Lookup(key, row)
		got, ok := fieldVersion(row, key, 0)
		if err != nil || !found || !ok || got != ver {
			v.failed++
			v.lost++
		}
	}
	v.attempted++
	if rows, err := tab.Count(); err != nil || rows != sp.rows {
		v.failed++
	}
	return v, nil
}
