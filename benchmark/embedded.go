package main

import (
	"fmt"
	"time"

	"nvmstore"
)

// embedded drives one Store from one goroutine through Store.Update and
// Table.LookupField/UpdateField. Nothing in it runs on a timer, so every
// count it produces repeats exactly for one seed.
type embedded struct {
	sp  *spec
	st  *nvmstore.Store
	tab *nvmstore.Table

	// The transaction bodies are built once and read their operation
	// from cur, so that the harness adds no allocation per operation.
	cur          op
	found        bool
	buf, val     [fieldSize]byte
	version      uint64
	getFn, putFn func() error
}

func storeOptions(sp *spec, observe, strict bool) nvmstore.Options {
	return nvmstore.Options{
		Architecture:      nvmstore.ThreeTier,
		DRAMBytes:         sp.dram,
		NVMBytes:          sp.nvm,
		SSDBytes:          sp.ssd,
		Observe:           observe,
		StrictPersistence: strict,
	}
}

// openEmbedded opens the store and bulk-loads the table at the paper's
// 0.66 leaf fill, then checkpoints: the load bypasses the log, and crash
// recovery needs the checkpoint as its base.
func openEmbedded(sp *spec, observe, strict bool) (*embedded, error) {
	st, err := nvmstore.Open(storeOptions(sp, observe, strict))
	if err != nil {
		return nil, err
	}
	tab, err := st.CreateTable(tableID, rowSize)
	if err != nil {
		return nil, err
	}
	err = tab.BulkLoad(sp.rows,
		func(i int) uint64 { return uint64(i) },
		func(i int, dst []byte) { fillRow(dst, uint64(i)) },
		0.66)
	if err != nil {
		return nil, fmt.Errorf("bulk load: %w", err)
	}
	if err := st.Checkpoint(); err != nil {
		return nil, fmt.Errorf("checkpoint after load: %w", err)
	}
	e := &embedded{sp: sp, st: st}
	e.bind(tab)
	return e, nil
}

// bind points the transaction bodies at tab; table handles go stale
// across a restart.
func (e *embedded) bind(tab *nvmstore.Table) {
	e.tab = tab
	e.getFn = func() error {
		var err error
		e.found, err = tab.LookupField(e.cur.key, int(e.cur.field)*fieldSize, fieldSize, e.buf[:])
		return err
	}
	e.putFn = func() error {
		var err error
		e.found, err = tab.UpdateField(e.cur.key, int(e.cur.field)*fieldSize, e.val[:])
		return err
	}
}

// exec runs one operation as one transaction and reports whether it
// succeeded and returned the right row.
func (e *embedded) exec(o op) bool {
	e.cur = o
	if o.kind == opPut {
		e.version++
		fillField(e.val[:], o.key, int(o.field), e.version)
		return e.st.Update(e.putFn) == nil && e.found
	}
	return e.st.Update(e.getFn) == nil && e.found && stampOK(e.buf[:], o.key)
}

func (e *embedded) workers() int { return 1 }

// segment times each operation on both clocks: host wall time around
// the call plus the simulated device time it charged.
func (e *embedded) segment(ops [][]op, samples [][]uint32) (wall, sim time.Duration, failed int64) {
	sim0 := e.st.SimulatedTime()
	start := time.Now()
	prev := sim0
	out := samples[0]
	for _, o := range ops[0] {
		t0 := time.Now()
		ok := e.exec(o)
		d := time.Since(t0)
		now := e.st.SimulatedTime()
		out = append(out, clampNs(d+now-prev))
		prev = now
		if !ok {
			failed++
		}
	}
	samples[0] = out
	return time.Since(start), e.st.SimulatedTime() - sim0, failed
}

func (e *embedded) latSegment([]op, *[numKinds][]uint32) int64 { return 0 }

func (e *embedded) counters() *counters {
	c := &counters{
		m:        e.st.Metrics(),
		sim:      e.st.SimulatedTime(),
		simTotal: e.st.SimulatedTime(),
		logFill:  e.st.LogFill(),
	}
	hostCounters(c)
	return c
}

func (e *embedded) checkpoint() error { return e.st.Checkpoint() }

func (e *embedded) wearMax() float64 { return float64(e.st.WearProfile().MaxPerLine) }

func (e *embedded) traceMetrics(values) {}

func (e *embedded) watch() func() { return func() {} }

func (e *embedded) close() error { return e.st.Close() }

// onStores runs fn on the one Store with all the operations.
func (e *embedded) onStores(ops []op, fn func(st *nvmstore.Store, tab *nvmstore.Table, ops []op)) {
	fn(e.st, e.tab, ops)
}

// tableOp is the workload's table call without its transaction.
func (e *embedded) tableOp(tab *nvmstore.Table, o op, val, row []byte) (bool, error) {
	if o.kind == opPut {
		return tab.UpdateField(o.key, int(o.field)*fieldSize, val)
	}
	return tab.LookupField(o.key, int(o.field)*fieldSize, fieldSize, row[:fieldSize])
}

// callRungs is empty: nothing sits above the Store here.
func (e *embedded) callRungs() []callRung { return nil }

// verifyEmbedded reruns part of the workload on a fresh store that forgets
// unflushed NVM writes, crashes it, and checks that every acknowledged
// write is still there.
func verifyEmbedded(sp *spec, z *zipfParams, seed uint64, n int) (verdict, error) {
	var v verdict
	e, err := openEmbedded(sp, false, true)
	if err != nil {
		return v, err
	}
	defer e.close()
	type cell struct {
		key   uint64
		field uint8
	}
	want := make(map[cell]uint64) // last acknowledged version; absent means the loaded one
	s := sp.newStream(z, seed, tagVerify)
	for i := 0; i < n; i++ {
		o := s.next()
		c := cell{o.key, o.field}
		v.attempted++
		if o.kind == opPut {
			if !e.exec(o) {
				v.failed++
				continue
			}
			want[c] = e.version
			continue
		}
		// One goroutine: a read must see exactly the last write.
		if !e.exec(o) {
			v.failed++
		} else if got, ok := fieldVersion(e.buf[:], o.key, int(o.field)); !ok || got != want[c] {
			v.failed++
		}
	}

	sim0, t0 := e.st.SimulatedTime(), time.Now()
	rec, err := e.st.CrashRestart()
	if err != nil {
		return v, fmt.Errorf("crash restart: %w", err)
	}
	v.restart = time.Since(t0) + e.st.SimulatedTime() - sim0
	v.redone = rec.Redone
	e.bind(e.st.Table(tableID))

	for c, ver := range want {
		v.attempted++
		e.cur = op{key: c.key, field: c.field}
		err := e.st.Update(e.getFn)
		got, ok := fieldVersion(e.buf[:], c.key, int(c.field))
		if err != nil || !e.found || !ok || got != ver {
			v.failed++
			v.lost++
		}
	}
	v.attempted++
	if rows, err := e.tab.Count(); err != nil || rows != sp.rows {
		v.failed++
	}
	return v, nil
}
