// Package harness sweeps a seeded workload across scheduled crash and
// fault points and checks recovery invariants after every one.
//
// It lives in a subpackage of internal/fault because it sits on the
// opposite side of the dependency: internal/fault is imported by the
// devices, while the harness drives the whole assembled store (and, for
// replication, a live primary→replica pair).
//
// The sweep works in two passes per fault kind. A dry run with an
// empty, armed plan counts the kind's injection *opportunities* — every
// NVM flush, SSD page access, or WAL append the workload performs. The
// live runs then pin one single-shot fault to each of a set of
// opportunity indices spread across that range (Rule{EveryN: k,
// Limit: 1}), so the crash lands at a different, deterministic point of
// the workload every time: mid-persist, mid-eviction, mid-commit.
// After each crash the harness recovers with CrashRestart and checks:
//
//   - the buffer manager's structural invariants hold
//     (core.Manager.CheckInvariants, reached through engine.Of);
//   - the store holds every transaction acknowledged before the crash
//     plus some prefix, in commit order, of those left unacknowledged,
//     each of them in full — no lost write, no partial transaction;
//   - the store keeps serving transactions after recovery, and the
//     final state matches the model.
package harness

import (
	"encoding/binary"
	"fmt"
	"maps"

	"nvmstore"
	"nvmstore/internal/engine"
	"nvmstore/internal/fault"
	"nvmstore/internal/shard"
)

// Config parameterizes a sweep. The zero value sweeps the default
// kinds over a small three-tier store.
type Config struct {
	// Seed derives the workload and every fault plan (default 1).
	Seed uint64
	// Txs is the number of transactions per run (default 60).
	Txs int
	// PointsPerKind is how many distinct crash points to schedule per
	// fault kind (default 20, clamped to the opportunity count).
	PointsPerKind int
	// Kinds lists the storage fault kinds to sweep. Defaults to every
	// crash- and error-kind across the NVM, SSD, and WAL tiers (plus
	// the group-flush crash point when GroupCommit is set).
	Kinds []fault.Kind
	// GroupCommit switches the workload to the group-commit protocol:
	// transactions commit without flushing and a shared log-tail flush
	// every groupEvery transactions makes them durable — the write path
	// every ShardedStore.Batch caller (the server's connection readers,
	// ShardedTable writes) runs. Crashes can then land between a commit
	// record and its group flush (fault.WALGroupCrash), where the invariant
	// changes shape: unflushed committed transactions may be lost, but
	// only as an all-or-nothing suffix — the survivors must form a
	// prefix in commit order, each fully applied.
	GroupCommit bool
	// Logf, when set, receives per-point progress lines.
	Logf func(format string, args ...any)
	// arch is the architecture under test; the zero value is ThreeTier,
	// the only one with all three device tiers. Only this package's tests
	// set it. Main Memory cannot be swept: it cannot recover from a crash
	// (Engine.CrashRestart refuses it). Every other architecture runs
	// every sweep; NVM Direct's checkpoint round, one per log flush, has
	// no page to write back and cuts the log.
	arch nvmstore.Architecture
}

// What every sweep runs on: one table of 1024 rows of 128 bytes, and
// under Config.GroupCommit one shared log flush every 3 transactions.
// Without group commit every 4th transaction is wide: 12 writes spread
// over the keyspace, on more leaves than the 6 pages of openStore's DRAM.
const (
	rows       = 1024
	rowSize    = 128
	groupEvery = 3
	stealEvery = 4
	wideOps    = 12
)

func (c *Config) applyDefaults() {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Txs <= 0 {
		c.Txs = 60
	}
	if c.PointsPerKind <= 0 {
		c.PointsPerKind = 20
	}
	if len(c.Kinds) == 0 {
		c.Kinds = []fault.Kind{
			fault.NVMTornFlush, fault.NVMCrash,
			fault.WALFlushCrash, fault.WALAppendError,
			fault.SSDReadError, fault.SSDWriteError,
			fault.CkptRound,
		}
		if c.GroupCommit {
			c.Kinds = append(c.Kinds, fault.WALGroupCrash)
		}
	}
}

// Report summarizes a sweep.
type Report struct {
	// Opportunities is the dry-run injection-opportunity count per
	// swept kind — the size of each kind's schedule space.
	Opportunities map[fault.Kind]int64
	// Points is the number of distinct scheduled fault points run.
	Points int
	// Crashes is how many of them the scheduled fault surfaced in and
	// the store recovered from (a failed recovery is a violation).
	Crashes int
	// Violations lists every invariant failure, formatted with its
	// fault kind and crash point. Empty means the sweep passed.
	Violations []string
}

// Run executes the sweep and returns its report. The error is non-nil
// only for harness-level failures (a store that cannot be built); an
// invariant violation is reported in Report.Violations, so callers must
// check both.
func Run(cfg Config) (Report, error) {
	cfg.applyDefaults()
	rep := Report{Opportunities: make(map[fault.Kind]int64)}
	opp, err := dryRun(cfg)
	if err != nil {
		return rep, err
	}
	for _, kind := range cfg.Kinds {
		n := opp.Opportunities(kind)
		rep.Opportunities[kind] = n
		rep.sweep(kind.String(), spread(cfg.PointsPerKind, n), cfg.Logf, func(point int64) (bool, error) {
			return runPoint(cfg, kind, point)
		})
	}
	return rep, nil
}

// sweep runs every point of one named schedule through run and fills
// rep: every point counts in Points, a point whose run returns an error
// is a violation, and one that reports crashed without an error counts
// in Crashes.
func (rep *Report) sweep(name string, points []int64, logf func(string, ...any), run func(point int64) (crashed bool, err error)) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	for _, point := range points {
		rep.Points++
		crashed, err := run(point)
		if err != nil {
			rep.Violations = append(rep.Violations, fmt.Sprintf("%s@%d: %v", name, point, err))
			logf("%s@%d: VIOLATION: %v", name, point, err)
			continue
		}
		if crashed {
			rep.Crashes++
		}
		logf("%s@%d: ok (crashed=%v)", name, point, crashed)
	}
}

// openStore builds the store under test: strict persistence (unflushed
// NVM lines vanish on crash), debug checks on, and DRAM/NVM budgets
// deliberately far below the data set so the workload churns through
// every tier — evictions write to SSD and misses read it back, giving
// the SSD fault kinds real injection opportunities. The table is
// pre-populated with the full keyspace and checkpointed before any
// fault is armed, so the sweep starts from a durable baseline. NVM
// Direct and Basic NVM BM keep every page on NVM, so they get room for
// the whole table there.
func openStore(arch nvmstore.Architecture) (*nvmstore.Store, *nvmstore.Table, error) {
	nvmBytes := int64(128 << 10)
	if arch == nvmstore.NVMDirect || arch == nvmstore.BasicNVMBuffer {
		nvmBytes = 4 << 20
	}
	st, err := nvmstore.Open(nvmstore.Options{
		Architecture:      arch,
		DRAMBytes:         96 << 10,
		NVMBytes:          nvmBytes,
		SSDBytes:          64 << 20,
		WALBytes:          4 << 20,
		StrictPersistence: true,
		DebugChecks:       true,
		// The workload appends tens of KB against a 4 MB log; an
		// artificially low soft threshold makes inline pacing run
		// incremental-checkpoint rounds throughout the sweep, giving the
		// ckpt.round crash site real opportunities to land in.
		Maintenance: nvmstore.MaintenanceOptions{SoftFill: 0.001, HardFill: 0.5},
	})
	if err != nil {
		return nil, nil, err
	}
	tab, err := st.CreateTable(1, rowSize)
	if err != nil {
		return nil, nil, err
	}
	err = tab.BulkLoad(rows,
		func(i int) uint64 { return uint64(i) },
		func(i int, dst []byte) { copy(dst, rowFor(uint64(i), -1)) },
		0.9)
	if err != nil {
		return nil, nil, fmt.Errorf("harness: bulk load: %v", err)
	}
	if err := st.Checkpoint(); err != nil {
		return nil, nil, fmt.Errorf("harness: baseline checkpoint: %v", err)
	}
	return st, tab, nil
}

// dryRun runs the workload fault-free with an armed empty plan and
// returns the per-device opportunity counters.
func dryRun(cfg Config) (fault.Injectors, error) {
	st, tab, err := openStore(cfg.arch)
	if err != nil {
		return fault.Injectors{}, err
	}
	defer st.Close()
	inj := st.InjectFaults(&fault.Plan{Seed: cfg.Seed})
	w := newWorkload(cfg)
	for i := 0; i < cfg.Txs; i++ {
		if crashed, err := w.step(st, tab, i); crashed || err != nil {
			return inj, fmt.Errorf("harness: dry run tx %d failed: crashed=%v err=%v", i, crashed, err)
		}
	}
	return inj, nil
}

// spread picks up to count opportunity indices covering [1, n]: the
// earliest point, the latest, and an even spread between. A kind with no
// opportunities gets no points.
func spread(count int, n int64) []int64 {
	if n <= 0 {
		return nil
	}
	if int64(count) > n {
		count = int(n)
	}
	if count <= 1 {
		return []int64{1 + n/2}
	}
	out := make([]int64, 0, count)
	var last int64
	for i := 0; i < count; i++ {
		k := 1 + int64(i)*(n-1)/int64(count-1)
		if k > last {
			out = append(out, k)
			last = k
		}
	}
	return out
}

// runPoint runs the workload with a single-shot fault pinned to the
// point-th opportunity of kind, recovering and checking invariants at
// the crash. It reports whether the fault actually surfaced.
func runPoint(cfg Config, kind fault.Kind, point int64) (crashed bool, err error) {
	st, tab, err := openStore(cfg.arch)
	if err != nil {
		return false, err
	}
	defer st.Close()
	st.InjectFaults(&fault.Plan{Seed: cfg.Seed, Rules: []fault.Rule{
		{Kind: kind, EveryN: point, Limit: 1},
	}})
	w := newWorkload(cfg)
	for i := 0; i < cfg.Txs; i++ {
		hit, err := w.step(st, tab, i)
		if err != nil {
			return crashed, fmt.Errorf("tx %d: %v", i, err)
		}
		if !hit {
			continue
		}
		// The fault surfaced inside transaction i (as a fault.Crash
		// panic or an injected error). Either way the in-memory state
		// is suspect: power-fail and recover.
		crashed = true
		if _, rerr := st.CrashRestart(); rerr != nil {
			return crashed, fmt.Errorf("recovery after tx %d: %v", i, rerr)
		}
		// Recovery rebuilds the trees; pre-crash table handles hold
		// stale swizzled pointers into the lost DRAM frames.
		tab = st.Table(1)
		if ierr := engine.Of(st).Manager().CheckInvariants(); ierr != nil {
			return crashed, fmt.Errorf("invariants after tx %d: %v", i, ierr)
		}
		if verr := w.verifyAfterCrash(tab); verr != nil {
			return crashed, fmt.Errorf("state after tx %d: %v", i, verr)
		}
	}
	if verr := w.matches(tab, w.model); verr != nil {
		return crashed, fmt.Errorf("final state: %v", verr)
	}
	return crashed, nil
}

// ---- the deterministic transactional workload ----

// pendingOp is the net per-key effect of the transaction in flight when
// a crash hit: the committed value before the transaction (nil if
// absent) and the value it was writing (nil for a delete).
type pendingOp struct {
	before []byte
	after  []byte
}

// workload is a deterministic sequence of small read-write transactions
// plus the model of what the store must contain.
type workload struct {
	cfg   Config
	rng   shard.Stream
	model map[uint64][]byte
	// pending is the in-flight transaction's net effect, kept until it
	// commits or a crash resolves it.
	pending map[uint64]pendingOp
	// staged, under GroupCommit, holds the effects of transactions
	// committed without a flush, in commit order; the group flush
	// folds them into the model.
	staged []map[uint64]pendingOp
	buf    []byte
}

func newWorkload(cfg Config) *workload {
	w := &workload{
		cfg:   cfg,
		rng:   shard.Stream(cfg.Seed*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d),
		model: make(map[uint64][]byte, rows),
		buf:   make([]byte, rowSize),
	}
	// The model starts as the bulk-loaded baseline (txIdx -1 rows).
	for key := uint64(0); key < uint64(rows); key++ {
		w.model[key] = rowFor(key, -1)
	}
	return w
}

// rowFor derives the row a given transaction writes to a key.
func rowFor(key uint64, txIdx int) []byte {
	row := make([]byte, rowSize)
	binary.LittleEndian.PutUint64(row, key)
	binary.LittleEndian.PutUint64(row[8:], uint64(txIdx)+1)
	for i := 16; i < len(row); i++ {
		row[i] = byte(key>>3) + byte(txIdx) + byte(i)
	}
	return row
}

// runTx runs one transaction of 1–3 upserts/deletes, or a wide one of
// wideOps. It reports hit=true when an injected fault surfaced (crash
// panic or error); a non-nil error is a real, non-injected failure. On a
// clean commit the model absorbs the transaction's effect; on a hit the
// effect stays in w.pending for verifyAfterCrash to resolve.
func (w *workload) runTx(st *nvmstore.Store, tab *nvmstore.Table, txIdx int) (hit bool, err error) {
	w.pending = make(map[uint64]pendingOp)
	nops := 1 + int(w.rng.Next()%3)
	type op struct {
		key uint64
		del bool
	}
	ops := make([]op, nops)
	for i := range ops {
		ops[i] = op{key: w.rng.Next() % uint64(rows), del: w.rng.Next()%10 < 3}
	}
	if !w.cfg.GroupCommit && txIdx%stealEvery == stealEvery-1 {
		// A wide transaction: its writes spread evenly over the keyspace
		// touch more leaves than DRAM holds, so it steals its own
		// uncommitted pages, and a crash after a steal leaves bytes of
		// the loser on NVM or SSD that only recovery's undo removes.
		start := w.rng.Next() % uint64(rows)
		ops = make([]op, wideOps)
		for i := range ops {
			ops[i] = op{key: (start + uint64(i*rows/wideOps)) % uint64(rows), del: w.rng.Next()%10 < 3}
		}
	}

	defer func() {
		if r := recover(); r != nil {
			if _, ok := fault.AsCrash(r); ok {
				hit, err = true, nil
				return
			}
			panic(r)
		}
	}()

	st.Begin()
	for _, o := range ops {
		p, seen := w.pending[o.key]
		if !seen {
			p.before = w.model[o.key]
		}
		if o.del {
			if _, derr := tab.Delete(o.key); derr != nil {
				if fault.IsInjected(derr) {
					return true, nil
				}
				return false, derr
			}
			p.after = nil
		} else {
			row := rowFor(o.key, txIdx)
			if uerr := tab.Put(o.key, row); uerr != nil {
				if fault.IsInjected(uerr) {
					return true, nil
				}
				return false, uerr
			}
			p.after = row
		}
		w.pending[o.key] = p
	}
	if w.cfg.GroupCommit {
		if cerr := engine.Of(st).CommitNoFlush(); cerr != nil {
			if fault.IsInjected(cerr) {
				return true, nil
			}
			return false, cerr
		}
		// Committed but unflushed: durable only after the group flush.
		w.staged = append(w.staged, w.pending)
		w.pending = nil
		return false, nil
	}
	if cerr := st.Commit(); cerr != nil {
		if fault.IsInjected(cerr) {
			return true, nil
		}
		return false, cerr
	}
	// Committed: fold into the model.
	fold(w.model, w.pending)
	w.pending = nil
	return false, nil
}

// step runs transaction i and, under GroupCommit, the group flush when
// one is due (every groupEvery transactions and after the last).
func (w *workload) step(st *nvmstore.Store, tab *nvmstore.Table, i int) (hit bool, err error) {
	hit, err = w.runTx(st, tab, i)
	if hit || err != nil || !w.cfg.GroupCommit {
		return hit, err
	}
	if (i+1)%groupEvery == 0 || i == w.cfg.Txs-1 {
		return w.flushGroup(st)
	}
	return false, nil
}

// flushGroup runs the shared log-tail flush that makes every staged
// transaction durable, reporting an injected fault the way runTx does.
// This is where fault.WALGroupCrash fires: commit records are in the
// log, acks have not been released, the flush is about to start.
func (w *workload) flushGroup(st *nvmstore.Store) (hit bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := fault.AsCrash(r); ok {
				hit, err = true, nil
				return
			}
			panic(r)
		}
	}()
	if _, ferr := st.FlushWAL(); ferr != nil {
		if fault.IsInjected(ferr) {
			return true, nil
		}
		return false, ferr
	}
	// The flush landed: every staged transaction is durable.
	for _, p := range w.staged {
		fold(w.model, p)
	}
	w.staged = nil
	return false, nil
}

// fold applies one transaction's net effect to a model.
func fold(model map[uint64][]byte, p map[uint64]pendingOp) {
	for key, op := range p {
		if op.after == nil {
			delete(model, key)
		} else {
			model[key] = op.after
		}
	}
}

// matches compares the whole keyspace against an explicit model: each key
// through a lookup, and the leaf chain through a scan, which must list
// the model's keys once each in ascending order. A key stored twice, one
// copy in a leaf the root no longer reaches by its key, passes every
// lookup and fails the scan.
func (w *workload) matches(tab *nvmstore.Table, model map[uint64][]byte) error {
	for key := uint64(0); key < uint64(rows); key++ {
		ok, err := tab.Lookup(key, w.buf)
		if err != nil {
			return fmt.Errorf("lookup %d: %v", key, err)
		}
		want, exists := model[key]
		switch {
		case exists && !ok:
			return fmt.Errorf("key %d missing", key)
		case !exists && ok:
			return fmt.Errorf("key %d unexpectedly present", key)
		case exists && string(w.buf) != string(want):
			return fmt.Errorf("key %d corrupted (tx tag %d, want %d)",
				key, binary.LittleEndian.Uint64(w.buf[8:]), binary.LittleEndian.Uint64(want[8:]))
		}
	}
	n, prev, order := 0, uint64(0), true
	err := tab.Scan(0, 0, 0, 0, func(key uint64, _ []byte) bool {
		order = n == 0 || key > prev
		n, prev = n+1, key
		return order
	})
	switch {
	case err != nil:
		return fmt.Errorf("scan: %v", err)
	case !order:
		return fmt.Errorf("scan lists key %d out of order or twice", prev)
	case n != len(model):
		return fmt.Errorf("scan lists %d keys, want %d", n, len(model))
	}
	return nil
}

// verifyAfterCrash resolves the transactions a crash left
// unacknowledged. The candidates to survive are, under GroupCommit, the
// staged transactions (the in-flight one never appended its commit
// record, so recovery undoes it) and otherwise the in-flight
// transaction. The log makes commit i durable before commit i+1, so the
// store must match the model with some prefix of the candidates folded
// in, each in full; a half-applied transaction matches no prefix. The
// longest matching prefix becomes the model.
func (w *workload) verifyAfterCrash(tab *nvmstore.Table) error {
	candidates := w.staged
	if !w.cfg.GroupCommit {
		candidates = []map[uint64]pendingOp{w.pending}
	}
	models := []map[uint64][]byte{w.model}
	for _, p := range candidates {
		next := maps.Clone(models[len(models)-1])
		fold(next, p)
		models = append(models, next)
	}
	var fullest error
	for k := len(models) - 1; k >= 0; k-- {
		err := w.matches(tab, models[k])
		if err == nil {
			w.model = models[k]
			w.staged, w.pending = nil, nil
			return nil
		}
		if fullest == nil {
			fullest = err
		}
	}
	return fmt.Errorf("no prefix of the %d unacknowledged transactions matches the store; against all of them: %v",
		len(candidates), fullest)
}
