// Package engine assembles a complete storage engine out of the buffer
// manager (internal/core), the write-ahead log (internal/wal), and B+-trees
// (internal/btree).
//
// One Engine type, parameterized by core.Topology, implements all five
// architectures the paper evaluates — Main Memory, SSD BM, Basic NVM BM,
// NVM Direct, and the three-tier NVM-optimized buffer manager — following
// the paper's methodology of implementing every design inside the same
// storage engine (§5: "all systems use the same logging scheme, B+-tree,
// and test driver").
//
// Transactions are single-threaded and explicit: Begin, tree operations,
// then Commit or Rollback. Every modification logs a logical redo record
// (the key and the after image); its undo image stays in DRAM with the
// transaction's op list, which Rollback walks. Commit is CommitNoFlush,
// which appends the commit record, then FlushWAL, which flushes the log
// tail to NVM and paces checkpoint maintenance. Page write-back is gated
// by a write barrier that first appends the undo images of the running
// transaction's ops not yet in the log, then flushes the log, so the
// write-ahead rule holds even though pages of uncommitted transactions
// may be stolen; a page image logs them too, because redo replays images
// whatever the outcome.
//
// Recovery (wal.Recover) redoes the history of committed and aborted
// transactions and every page image, unconditionally, then rolls the one
// loser back from its undo images. The NVM Direct architecture writes
// tuples in place, a steal at every modification, so it runs the write
// barrier as each one is logged. Its log holds undo for in-flight
// transactions only (§2.1), and that is its maintenance thresholds: every
// FlushWAL runs one checkpoint round, which has no page to write back and
// cuts the log.
//
// The B-trees report their structural changes — splits, shifts, new roots —
// and keep no durability state: makeDurable alone decides, by topology,
// how a change becomes durable: page images in the log, or force-writes on
// NVM Direct. On the buffered topologies a root change is a root record
// in the log, and it reaches the superblock catalog at the next log cut;
// NVM Direct, whose old root splits in place, writes the catalog at once.
package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"

	"nvmstore/internal/btree"
	"nvmstore/internal/core"
	"nvmstore/internal/fault"
	"nvmstore/internal/simclock"
	"nvmstore/internal/wal"
)

// Opcodes stored in the Off field of a logical record (low two bits);
// field updates keep the payload offset in the upper bits. The record's
// PID is the tree id. Each image starts with the 8-byte key: the redo
// image (After) continues with the payload (insert) or the new field
// bytes (update), and nothing for a delete; the undo image (Before, in an
// undo record) with the old payload (delete) or
// the old field bytes (update), and nothing for an insert. Page images are
// wal.RecImage records whose PID is a raw page id, or catalogPage.
const (
	opInsert = 1
	opDelete = 2
	opUpdate = 3
)

// catalogPage is the PID of a root record: a wal.RecImage whose image is
// one tree's catalog entry (catalogEntry), logged where a split grows the
// tree by a level. No page id reaches it.
const catalogPage = ^uint64(0)

// ErrNoTransaction is returned when a modification happens outside
// Begin/Commit.
var ErrNoTransaction = errors.New("engine: modification outside a transaction")

// Of returns the Engine behind a root-package *nvmstore.Store. It is the
// one seam through which the layers built on the store — replication
// (internal/repl), the serving layer (internal/server) and the fault
// harness — reach what the embedded KV API does not export: the log's
// ship tap and durability frontier, logical replay, unflushed commits,
// tier counters and the buffer manager's invariants. Package nvmstore
// assigns it when it is initialized; nothing else does. Like every
// Engine method, what the caller does with the result must run while
// the store's shard lock is held.
var Of func(store any) *Engine

// DefaultConfig returns the paper's configuration for one of the five
// architectures: the three-tier buffer manager enables cache-line-grained
// pages, mini pages, and pointer swizzling; the basic buffer managers are
// page-grained without swizzling; the main-memory system keeps swizzling
// (it stands in for direct pointers). Capacities the architecture does not
// use may be zero.
func DefaultConfig(topo core.Topology, dramBytes, nvmBytes, ssdBytes int64) core.Config {
	cfg := core.Config{
		Topology:  topo,
		DRAMBytes: dramBytes,
		NVMBytes:  nvmBytes,
		SSDBytes:  ssdBytes,
	}
	switch topo {
	case core.MemOnly:
		cfg.Swizzling = true
		cfg.SSDBytes = 0
	case core.ThreeTier:
		cfg.CacheLineGrained = true
		cfg.MiniPages = true
		cfg.Swizzling = true
	case core.DRAMNVM, core.DRAMSSD, core.DirectNVM:
		// Page-grained, no swizzling: the unoptimized baselines.
	}
	return cfg
}

// treeMeta is one catalog entry.
type treeMeta struct {
	id      uint64
	payload int
	layout  btree.LeafLayout
	root    core.PageID
	height  int
}

// Engine is a storage engine instance. Not safe for concurrent use.
type Engine struct {
	m    *core.Manager
	log  *wal.Log
	tree map[uint64]*btree.Tree

	txActive bool
	curTx    wal.TxID
	txOps    []txOp
	// undoLogged counts the leading txOps whose undo image is in the log.
	undoLogged int
	// redo is the reusable buffer a redo image is assembled in; the log
	// copies it.
	redo []byte
	// undo holds the undo images of the running transaction's txOps back
	// to back; Begin empties it. Images are only ever appended — Rollback's
	// compensations too — so each txOp's img stays valid until the next
	// Begin, even where a growing append moved the buffer.
	undo []byte

	replaying bool
	// restructured and grown list the pages recovery's own redo
	// restructured and the trees whose root it grew, which CrashRestart
	// logs once redo and undo are done (logRestructured).
	restructured []core.PageID
	grown        []uint64

	// catalog is the tree catalog as the superblock holds it. On the
	// buffered topologies a root change reaches it only at the next log
	// cut (truncateLog), and catalogStale says one is waiting; until then
	// redo moves the root at the root record's LSN. NVM Direct writes it
	// at the root change (LogRoot).
	catalog      []byte
	catalogStale bool

	// maint tunes incremental checkpointing and paced write-back; see
	// MaintenanceOptions. Normalized (no zero fields), except on NVM
	// Direct, whose thresholds are 0 so that every FlushWAL runs one
	// round, which cuts the log.
	maint MaintenanceOptions
	// ckptCursor resumes the dirty-frame walk across checkpoint rounds.
	ckptCursor int
	// ckpt counts incremental-checkpoint activity.
	ckpt CkptStats
	// ckptFaults is checked at the fault.CkptRound injection site, once
	// per checkpoint round.
	ckptFaults *fault.Injector
}

// txOp records a logical operation of the running transaction for
// Rollback and logUndo.
type txOp struct {
	op     int
	treeID uint64
	key    uint64
	off    int
	img    []byte // the undo image, key first (see the opcodes)
}

// Open creates an engine over a fresh set of simulated devices.
func Open(cfg core.Config) (*Engine, error) {
	m, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	off, size := m.WALRegion()
	e := &Engine{
		m:    m,
		log:  wal.New(m.NVM(), off, size),
		tree: make(map[uint64]*btree.Tree),
	}
	e.SetMaintenance(MaintenanceOptions{})
	if cfg.Topology == core.MemOnly {
		m.SetWriteBarrier(e.log.Flush) // no page ever reaches persistent storage
	} else {
		m.SetWriteBarrier(e.writeBarrier)
	}
	if cfg.Recorder != nil {
		e.log.SetRecorder(cfg.Recorder, m.Clock())
	}
	return e, nil
}

// Manager returns the underlying buffer manager.
func (e *Engine) Manager() *core.Manager { return e.m }

// Log returns the write-ahead log.
func (e *Engine) Log() *wal.Log { return e.log }

// Clock returns the virtual clock accumulating simulated device time.
func (e *Engine) Clock() *simclock.Clock { return e.m.Clock() }

// Topology returns the engine's storage architecture.
func (e *Engine) Topology() core.Topology { return e.m.Config().Topology }

// ArmFaults derives per-device injectors from plan and installs them on
// the engine's NVM device, SSD device (when the topology has one), and
// WAL. Distinct engines (shards) pass distinct site numbers so their
// fault streams are independent yet reproducible; each engine consumes
// three consecutive site salts. A nil plan disarms every device.
func (e *Engine) ArmFaults(plan *fault.Plan, site uint64) fault.Injectors {
	inj := fault.Injectors{
		NVM: plan.Injector(site * 3),
		SSD: plan.Injector(site*3 + 1),
		WAL: plan.Injector(site*3 + 2),
	}
	e.m.NVM().SetFaults(inj.NVM)
	if ssd := e.m.SSD(); ssd != nil {
		ssd.SetFaults(inj.SSD)
	} else {
		inj.SSD = nil
	}
	e.log.SetFaults(inj.WAL)
	// The ckpt.round site shares the WAL injector: checkpoint rounds
	// are log maintenance, and reusing the site keeps one salt per
	// device.
	e.ckptFaults = inj.WAL
	return inj
}

// CreateTree creates a new B+-tree and registers it in the persistent
// catalog.
func (e *Engine) CreateTree(id uint64, payloadSize int, layout btree.LeafLayout) (*btree.Tree, error) {
	if _, ok := e.tree[id]; ok {
		return nil, fmt.Errorf("engine: tree %d already exists", id)
	}
	t, err := btree.Create(e.m, id, payloadSize, layout)
	if err != nil {
		return nil, err
	}
	// The new entry joins the catalog as the superblock holds it, which
	// leaves out a root change waiting for the log's next cut.
	catalog := appendEntry(e.catalog, t)
	if err := e.m.SetUserMeta(catalog); err != nil {
		return nil, err
	}
	e.catalog = catalog
	e.register(t)
	return t, nil
}

// Tree returns a previously created (or recovered) tree, or nil.
func (e *Engine) Tree(id uint64) *btree.Tree { return e.tree[id] }

// TreeIDs returns the ids of all registered trees in ascending order.
func (e *Engine) TreeIDs() []uint64 {
	ids := make([]uint64, 0, len(e.tree))
	for id := range e.tree {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func (e *Engine) register(t *btree.Tree) {
	t.SetLogger(e)
	e.tree[t.ID()] = t
}

// Begin starts a transaction.
func (e *Engine) Begin() {
	if e.txActive {
		panic("engine: nested transaction")
	}
	e.txActive = true
	e.curTx = e.log.Begin()
	e.txOps = e.txOps[:0]
	e.undo = e.undo[:0]
	e.undoLogged = 0
	// Advance the transaction stamp: pages modified by this transaction
	// carry it as their version (what snapshot reads compare against).
	e.m.Versions().BeginTx()
}

// Versions exposes the buffer manager's multi-version read-path state
// (per-page version counters, copy-on-write version store, snapshot
// registry). Same synchronization contract as the engine itself.
func (e *Engine) Versions() *core.Versions { return e.m.Versions() }

// InTx reports whether a transaction is active.
func (e *Engine) InTx() bool { return e.txActive }

// Commit makes the running transaction durable: CommitNoFlush, then
// FlushWAL, which paces maintenance once the tail is durable. A read-only
// transaction commits for free: nothing is logged, flushed or paced.
func (e *Engine) Commit() error {
	readOnly := len(e.txOps) == 0
	if err := e.CommitNoFlush(); err != nil || readOnly {
		return err
	}
	_, err := e.FlushWAL()
	return err
}

// CommitNoFlush commits the running transaction without flushing the log
// tail: the commit record is appended, but the transaction is not durable
// until FlushWAL (or any other flush of the tail) lands. Group-commit
// callers coalesce many commits into one flush this way; they must not
// acknowledge the transaction before that flush returns. A crash before
// it leaves a loser, which recovery rolls back from its undo records — on
// NVM Direct too, whose write barrier logged them before each in-place
// store.
func (e *Engine) CommitNoFlush() error {
	if !e.txActive {
		return ErrNoTransaction
	}
	if len(e.txOps) == 0 {
		e.txActive = false
		return nil // read-only: nothing to log or flush
	}
	if err := e.log.CommitNoFlush(e.curTx); err != nil {
		e.abandon()
		return err
	}
	e.txActive = false
	return nil
}

// FlushWAL flushes the log tail, making every CommitNoFlush since the
// last flush durable, and returns how many commits the flush covered.
// Outside a transaction it then paces maintenance (pace), the one place
// a commit's checkpoint work runs.
func (e *Engine) FlushWAL() (int64, error) {
	n := e.log.FlushTail()
	if e.txActive {
		return n, nil
	}
	return n, e.pace()
}

// Rollback undoes the running transaction using the undo images kept
// since Begin, then logs an abort record. The compensating operations are
// themselves logged (CLR-style): recovery redoes an aborted transaction —
// operations plus compensations, netting out — instead of undoing it,
// which would clobber later transactions' changes to the same keys. The
// compensations join txOps behind the ops they undo, so a steal part-way
// through logs their undo images too; a crash there leaves a loser whose
// undo images, rolled back in reverse, restore the state before Begin.
func (e *Engine) Rollback() error {
	if !e.txActive {
		return ErrNoTransaction
	}
	n := len(e.txOps)
	if n == 0 {
		e.txActive = false
		return nil
	}
	for i := n - 1; i >= 0; i-- {
		op := e.txOps[i]
		if err := apply(e.tree[op.treeID], undoOf[op.op], op.key, op.off, op.img[8:]); err != nil {
			e.abandon()
			return fmt.Errorf("engine: rollback: %w", err)
		}
	}
	if err := e.log.Abort(e.curTx); err != nil {
		e.abandon()
		return err
	}
	e.txActive = false
	return nil
}

// abandon ends a transaction whose commit or rollback failed. Its changes
// stay in the pool with neither commit nor abort record, so a later
// write-back may persist them: their undo images go to the log first, and
// recovery rolls the transaction back as a loser.
func (e *Engine) abandon() {
	e.logUndo()
	e.txActive = false
}

// Checkpoint forces all dirty pages to persistent storage and truncates
// the log, stalling until the whole dirty set is written back: a drain of
// the pool, then the same counted cut a CheckpointRound ends in. Then it
// releases the cut log's host pages (wal.Log.Release). The commit path
// never calls it — incremental rounds checkpoint in bounded steps there —
// but loads, shutdown and restart paths still want the synchronous full
// barrier. It must not run inside a transaction.
func (e *Engine) Checkpoint() error {
	if e.txActive {
		return fmt.Errorf("engine: checkpoint inside a transaction")
	}
	e.m.FlushAll()
	e.truncateLog()
	// Hand the cut log's pages back to the host; a log the retention
	// watermark kept keeps them. Paced rounds leave them: the log's next
	// lap would write them again.
	return e.log.Release()
}

// The engine is the btree.Logger for all its trees: tree modifications
// arrive here, are recorded for rollback, and appended to the WAL before
// the page is modified.

// LogInsert implements btree.Logger.
func (e *Engine) LogInsert(treeID, key uint64, payload []byte) error {
	return e.logOp(txOp{op: opInsert, treeID: treeID, key: key}, nil, payload)
}

// LogDelete implements btree.Logger.
func (e *Engine) LogDelete(treeID, key uint64, old []byte) error {
	return e.logOp(txOp{op: opDelete, treeID: treeID, key: key}, old, nil)
}

// LogUpdate implements btree.Logger.
func (e *Engine) LogUpdate(treeID, key uint64, off int, before, after []byte) error {
	return e.logOp(txOp{op: opUpdate, treeID: treeID, key: key, off: off}, before, after)
}

// logOp appends op's redo record — the key, then redo — and keeps op, its
// undo image built from the key and undo, for Rollback and logUndo. The
// log reserves room for op's undo record, so a later steal never meets a
// full log. On NVM Direct the tree writes the change in place as soon as
// logOp returns, a steal at every op, so the write barrier runs here.
func (e *Engine) logOp(op txOp, undo, redo []byte) error {
	if e.replaying {
		return nil
	}
	if !e.txActive {
		return ErrNoTransaction
	}
	start := len(e.undo)
	e.undo = binary.LittleEndian.AppendUint64(e.undo, op.key)
	e.undo = append(e.undo, undo...) // undo aliases the page: copy it now
	op.img = e.undo[start:len(e.undo):len(e.undo)]
	e.redo = binary.LittleEndian.AppendUint64(e.redo[:0], op.key)
	e.redo = append(e.redo, redo...)
	if _, err := e.log.Update(e.curTx, op.treeID, op.op|op.off<<2, e.redo, len(op.img)); err != nil {
		return err
	}
	e.txOps = append(e.txOps, op)
	if e.Topology() == core.DirectNVM {
		e.writeBarrier()
	}
	return nil
}

// logUndo appends an undo record for every op of the running transaction
// that no undo record covers yet. It runs where uncommitted bytes could
// reach persistent storage: in the write barrier before a page write-back
// (a steal), before a page image, which redo replays whatever the
// transaction's outcome, and when abandon leaves the changes in the pool.
// Each record fills room its op's redo record reserved, so it cannot fail.
func (e *Engine) logUndo() {
	for ; e.undoLogged < len(e.txOps); e.undoLogged++ {
		op := &e.txOps[e.undoLogged]
		e.log.AppendUndo(e.curTx, op.treeID, op.op|op.off<<2, op.img)
	}
}

// writeBarrier runs before any dirty page content reaches persistent
// storage: the running transaction's uncovered undo images, then the log
// flush, so the write-ahead rule holds for the undo as for the redo.
func (e *Engine) writeBarrier() {
	if e.txActive {
		e.logUndo()
	}
	e.log.Flush()
}

// LogStructure implements btree.Logger: makeDurable decides how the
// change's pages become durable.
func (e *Engine) LogStructure(pages ...core.Handle) error {
	return e.makeDurable(nil, pages)
}

// LogRoot implements btree.Logger. On NVM Direct, where the old root
// splits in place next, the new root is force-written and named in the
// superblock catalog at once, in a transaction or in recovery: every redo
// and undo descent then starts from the tree NVM holds, and no root
// record is logged. A bulk load's root waits for the checkpoint that
// makes the load durable. On the buffered topologies a root change inside
// a transaction is a root record, which redo replays at its LSN, after the
// records that descend from the old root; the catalog learns of it only
// at the next log cut (truncateLog), when every page the root reaches is
// durable. A root that their recovery grows is noted with its page, and
// logRestructured logs a root record for it.
func (e *Engine) LogRoot(treeID uint64, root core.Handle) error {
	e.catalogStale = true
	if !e.txActive && !e.replaying {
		return nil // a bulk load, which is no logged change
	}
	if e.Topology() == core.DirectNVM {
		if err := e.makeDurable(nil, []core.Handle{root}); err != nil {
			return err
		}
		return e.saveCatalog()
	}
	if e.replaying {
		e.grown = append(e.grown, treeID)
		return e.makeDurable(nil, []core.Handle{root})
	}
	entry := catalogEntry(e.tree[treeID])
	return e.makeDurable(entry[:], []core.Handle{root})
}

// makeDurable is the one decision of how a structural change becomes
// durable: pages, fixed, are what it changed, and root, when not nil, the
// root record of a new root, which pages then holds alone.
//
//   - The buffered topologies log each page's image, redone whatever the
//     transaction's outcome, so the undo images of its ops so far, whose
//     bytes an image may hold, go first. Every image is read before the
//     first is appended: reading can promote a mini page, whose new frame
//     can evict another page, and that write-back's barrier flushes the
//     log. With no flush between them, recovery redoes the images and the
//     root record behind them all or none (wal.Log.Recover). While
//     recovery replays, nothing can be appended behind the records it
//     redoes: the pages are noted, and logRestructured images them once
//     redo and undo are done.
//   - NVM Direct stores in place, so its pages reach NVM before any record
//     could describe them; it force-writes them in order instead. It logs
//     no root record: LogRoot names a new root in the catalog.
//   - Main Memory has nothing to make durable.
func (e *Engine) makeDurable(root []byte, pages []core.Handle) error {
	switch e.Topology() {
	case core.MemOnly:
		return nil
	case core.DirectNVM:
		for _, h := range pages {
			e.m.ForceWrite(h)
		}
		return nil
	}
	if e.replaying {
		for _, h := range pages {
			e.restructured = append(e.restructured, h.PID())
		}
		return nil
	}
	if !e.txActive {
		return ErrNoTransaction
	}
	e.logUndo()
	var imgs [3][]byte
	for i, h := range pages {
		e.m.UnswizzleChildren(h) // an image holds page ids, not swizzled references
		imgs[i] = h.ReadAll()
	}
	for i, h := range pages {
		if _, err := e.log.Image(e.curTx, uint64(h.PID()), imgs[i]); err != nil {
			return err
		}
	}
	if root == nil {
		return nil
	}
	_, err := e.log.Image(e.curTx, catalogPage, root)
	return err
}

// logRestructured makes durable what recovery's own redo restructured: the
// images of the pages it noted, as they stand after redo and undo, and a
// root record for each tree whose root it grew, as one committed log
// transaction. Images taken at the split itself would be wrong: the next
// recovery redoes them behind every other record, so they would revert the
// later records' effects. Each page is fixed only while its image is
// copied, so any number of pages fits the pool, and every copy is taken
// before the first append, so no write-back's flush comes between them.
// The transaction is the log's alone: it holds no logical change for
// Engine.Commit to count, so its mark is appended and flushed here, and
// recovery paces no maintenance.
//
// When the records do not fit the log's room (a crash can leave the log
// nearly full), recovery goes on without them rather than fail every
// restart: its closing checkpoint can then write a cut page back before
// the catalog names the new root, and a crash between the two loses the
// keys the split moved.
func (e *Engine) logRestructured() error {
	slices.Sort(e.restructured)
	slices.Sort(e.grown)
	pids, grown := slices.Compact(e.restructured), slices.Compact(e.grown)
	e.restructured, e.grown = pids, grown
	if len(pids) == 0 {
		return nil
	}
	sizes := make([]int, len(pids), len(pids)+len(grown))
	for i := range pids {
		sizes[i] = core.PageSize
	}
	for range grown {
		sizes = append(sizes, entrySize)
	}
	if !e.log.Fits(sizes...) {
		return nil
	}
	imgs := make([][]byte, len(pids))
	for i, pid := range pids {
		h, err := e.m.Fix(core.MakeRef(pid), core.ModeFull)
		if err != nil {
			return err
		}
		e.m.UnswizzleChildren(h) // an image holds page ids, not swizzled references
		imgs[i] = bytes.Clone(h.ReadAll())
		e.m.Unfix(h)
	}
	tx := e.log.Begin()
	for i, pid := range pids {
		if _, err := e.log.Image(tx, uint64(pid), imgs[i]); err != nil {
			return err
		}
	}
	for _, id := range grown {
		entry := catalogEntry(e.tree[id])
		if _, err := e.log.Image(tx, catalogPage, entry[:]); err != nil {
			return err
		}
	}
	if err := e.log.CommitNoFlush(tx); err != nil {
		return err
	}
	e.log.Flush()
	return nil
}

// Redo implements wal.Handler: repeat history with idempotent logical
// operations; page-image records restore the page wholesale, and root
// records move a tree's root.
func (e *Engine) Redo(r wal.Record) error {
	if r.Kind == wal.RecImage {
		if r.PID == catalogPage {
			return e.redoRoot(r.After)
		}
		h, err := e.m.Fix(core.MakeRef(core.PageID(r.PID)), core.ModeFull)
		if err != nil {
			return fmt.Errorf("engine: redo page image %d: %w", r.PID, err)
		}
		// Earlier replay steps may have swizzled this page's child
		// references; the image would overwrite them with page ids while
		// the children still think they are swizzled.
		e.m.UnswizzleChildren(h)
		copy(h.WriteAll(), r.After)
		e.m.Unfix(h)
		return nil
	}
	t, key, err := e.logical(r, r.After)
	if err != nil {
		return err
	}
	return apply(t, r.Off&3, key, r.Off>>2, r.After[8:])
}

// redoRoot moves a tree's root to the one its root record names. Like a
// page image it is redone whatever its transaction's outcome, and redoing
// it twice changes nothing.
func (e *Engine) redoRoot(img []byte) error {
	if len(img) != entrySize {
		return fmt.Errorf("engine: root record of %d bytes", len(img))
	}
	tm := decodeEntry(img)
	t := e.tree[tm.id]
	if t == nil {
		return fmt.Errorf("engine: root record for unknown tree %d", tm.id)
	}
	e.catalogStale = true
	return t.SetRoot(tm.root, tm.height)
}

// Undo implements wal.Handler: roll back one change of the loser from its
// undo image.
func (e *Engine) Undo(r wal.Record) error {
	t, key, err := e.logical(r, r.Before)
	if err != nil {
		return err
	}
	return apply(t, undoOf[r.Off&3], key, r.Off>>2, r.Before[8:])
}

// undoOf maps an opcode to the one that undoes it from the undo image: a
// delete undoes an insert, an insert of the old payload a delete, and an
// update back to the old bytes an update.
var undoOf = [4]int{opInsert: opDelete, opDelete: opInsert, opUpdate: opUpdate}

// apply is the one application of a logical operation, for redo, undo and
// Rollback: op on key of t, with img the payload (insert) or the field
// bytes at payload offset off (update). Each is idempotent — delete if
// present, upsert (btree.Tree.Put, which splits nothing for a present
// key), set the field — so redoing a change a page already holds, or
// undoing one whose page never left DRAM, is harmless.
func apply(t *btree.Tree, op int, key uint64, off int, img []byte) error {
	var err error
	switch op {
	case opInsert:
		err = t.Put(key, img)
	case opDelete:
		_, err = t.Delete(key)
	case opUpdate:
		_, err = t.UpdateField(key, off, img)
	default:
		err = fmt.Errorf("engine: unknown opcode %d", op)
	}
	return err
}

// logical returns the tree a logical record names and the key img, one of
// its images, starts with.
func (e *Engine) logical(r wal.Record, img []byte) (*btree.Tree, uint64, error) {
	t := e.tree[r.PID]
	if t == nil {
		return nil, 0, fmt.Errorf("engine: record %d for unknown tree %d", r.LSN, r.PID)
	}
	if len(img) < 8 {
		return nil, 0, fmt.Errorf("engine: record %d: image of %d bytes has no key", r.LSN, len(img))
	}
	return t, binary.LittleEndian.Uint64(img), nil
}

// ApplyLogical validates and replays one logical record from another
// engine's log inside the running transaction — the replica apply path.
// Unlike Redo during recovery, the engine is NOT in replay mode, so the
// tree operations are logged into this engine's own WAL: the replica
// has its own durability and crash recovery for everything it applied.
// Commit/abort marks are ignored (the caller delimits transactions);
// page images and undo records are rejected: page ids are meaningless
// across engines, and undo records never leave the log that wrote them.
// A malformed or hostile record returns an error instead of panicking.
func (e *Engine) ApplyLogical(r wal.Record) error {
	switch r.Kind {
	case wal.RecCommit, wal.RecAbort:
		return nil
	case wal.RecUpdate:
	default:
		return fmt.Errorf("engine: record %d of kind %d cannot be applied logically", r.LSN, r.Kind)
	}
	if !e.txActive {
		return ErrNoTransaction
	}
	return e.Redo(r)
}

// CleanRestart simulates an orderly shutdown and restart: checkpoint,
// drop all volatile state, rebuild the mapping table from NVM, reload the
// catalog. The three-tier architecture comes back with a warm NVM cache —
// the property Figure 17 measures.
func (e *Engine) CleanRestart() error {
	if e.txActive {
		return fmt.Errorf("engine: restart inside a transaction")
	}
	if err := e.Checkpoint(); err != nil {
		return err
	}
	if err := e.m.CleanRestart(); err != nil {
		return err
	}
	return e.reload()
}

// CrashRestart simulates a power failure and restart: DRAM is lost,
// unflushed NVM lines revert, the catalog and mapping table are read back
// from NVM, and the WAL is replayed (redo committed work, undo losers).
// Main-memory engines do not support crash recovery: their pages have no
// persistent home, which is exactly the durability gap the paper's
// buffered architectures close.
func (e *Engine) CrashRestart() (wal.RecoveryStats, error) {
	if e.Topology() == core.MemOnly {
		return wal.RecoveryStats{}, fmt.Errorf("engine: main-memory architecture cannot recover from a crash")
	}
	e.txActive = false
	if err := e.m.CrashRestart(); err != nil {
		return wal.RecoveryStats{}, err
	}
	if err := e.reload(); err != nil {
		return wal.RecoveryStats{}, err
	}
	e.replaying, e.restructured, e.grown = true, e.restructured[:0], e.grown[:0]
	stats, err := e.log.Recover(e)
	e.replaying = false
	if err != nil {
		return stats, err
	}
	if err := e.logRestructured(); err != nil {
		return stats, err
	}
	// All recovered state is in the buffer pool; checkpoint so the log
	// can be truncated.
	return stats, e.Checkpoint()
}

// reload rebuilds the tree map from the persistent catalog.
func (e *Engine) reload() error {
	e.catalog = bytes.Clone(e.m.UserMeta())
	e.catalogStale = false
	metas, err := decodeCatalog(e.catalog)
	if err != nil {
		return err
	}
	e.tree = make(map[uint64]*btree.Tree, len(metas))
	for _, tm := range metas {
		t, err := btree.Load(e.m, tm.id, tm.payload, tm.layout, tm.root, tm.height)
		if err != nil {
			return fmt.Errorf("engine: reload tree %d: %w", tm.id, err)
		}
		e.register(t)
	}
	return nil
}

// saveCatalog persists every tree's root and height in the manager's
// superblock metadata, at the log cut after a root change, and on NVM
// Direct at the root change itself.
func (e *Engine) saveCatalog() error {
	buf := make([]byte, 2, 2+len(e.tree)*entrySize)
	binary.LittleEndian.PutUint16(buf, uint16(len(e.tree)))
	for _, t := range e.tree {
		entry := catalogEntry(t)
		buf = append(buf, entry[:]...)
	}
	if err := e.m.SetUserMeta(buf); err != nil {
		return err
	}
	e.catalog, e.catalogStale = buf, false
	return nil
}

// entrySize is the size of one catalog entry.
const entrySize = 22

// catalogEntry encodes t's catalog entry: id, payload size, layout, root
// and height.
func catalogEntry(t *btree.Tree) [entrySize]byte {
	var entry [entrySize]byte
	binary.LittleEndian.PutUint64(entry[0:], t.ID())
	binary.LittleEndian.PutUint32(entry[8:], uint32(t.PayloadSize()))
	entry[12] = byte(t.Layout())
	binary.LittleEndian.PutUint64(entry[13:], uint64(t.RootPID()))
	entry[21] = byte(t.Height())
	return entry
}

// appendEntry returns a copy of catalog, an encoded catalog or nothing,
// with t's entry added.
func appendEntry(catalog []byte, t *btree.Tree) []byte {
	var n uint16
	if len(catalog) > 0 {
		n, catalog = binary.LittleEndian.Uint16(catalog), catalog[2:]
	}
	out := binary.LittleEndian.AppendUint16(make([]byte, 0, 2+len(catalog)+entrySize), n+1)
	out = append(out, catalog...)
	entry := catalogEntry(t)
	return append(out, entry[:]...)
}

func decodeCatalog(b []byte) ([]treeMeta, error) {
	if len(b) == 0 {
		return nil, nil
	}
	if len(b) < 2 {
		return nil, fmt.Errorf("engine: catalog of %d bytes", len(b))
	}
	n := int(binary.LittleEndian.Uint16(b))
	if len(b) < 2+n*entrySize {
		return nil, fmt.Errorf("engine: catalog truncated: %d entries in %d bytes", n, len(b))
	}
	metas := make([]treeMeta, n)
	for i := range metas {
		metas[i] = decodeEntry(b[2+i*entrySize:])
	}
	return metas, nil
}

// decodeEntry decodes the catalog entry at the start of b, which holds
// one.
func decodeEntry(b []byte) treeMeta {
	return treeMeta{
		id:      binary.LittleEndian.Uint64(b[0:]),
		payload: int(binary.LittleEndian.Uint32(b[8:])),
		layout:  btree.LeafLayout(b[12]),
		root:    core.PageID(binary.LittleEndian.Uint64(b[13:])),
		height:  int(b[21]),
	}
}

// Close shuts the engine down in an orderly fashion: the log tail is
// flushed so every committed transaction is durable, and with
// checkpoint=true all dirty pages are written back and the log
// truncated (a cold store that recovers instantly). Close is idempotent
// and fails inside a transaction. The simulated devices live in process
// memory, so Close frees no device — the checkpoint only hands the log's
// pages back to the host — and exists to define the durable state a
// server hand-off or restart starts from.
func (e *Engine) Close(checkpoint bool) error {
	if e.txActive {
		return fmt.Errorf("engine: close inside a transaction")
	}
	if checkpoint {
		return e.Checkpoint()
	}
	e.log.Flush()
	return nil
}
