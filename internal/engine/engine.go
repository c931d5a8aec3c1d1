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
// then Commit or Rollback. Every modification logs a logical redo/undo
// record; Commit flushes the log tail to NVM. Page write-back is gated by
// a write barrier that flushes the log first, so the write-ahead rule
// holds even though pages of uncommitted transactions may be stolen.
//
// Recovery is ARIES-style: repeat history from the redo images, then roll
// back losers from the undo images. The NVM Direct architecture truncates
// the log after every commit, as in the paper (§2.1): its tuples are
// flushed in place before the transaction completes, so the log only needs
// to cover in-flight transactions.
package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"

	"nvmstore/internal/btree"
	"nvmstore/internal/core"
	"nvmstore/internal/fault"
	"nvmstore/internal/simclock"
	"nvmstore/internal/wal"
)

// Opcodes stored in the wal.Record Off field (low two bits); field updates
// keep the payload offset in the upper bits. For opImage records the PID
// field holds a raw page id instead of a tree id.
const (
	opImage  = 0
	opInsert = 1
	opDelete = 2
	opUpdate = 3
)

// ErrNoTransaction is returned when a modification happens outside
// Begin/Commit.
var ErrNoTransaction = errors.New("engine: modification outside a transaction")

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

	replaying bool

	// maint tunes incremental checkpointing and paced write-back; see
	// MaintenanceOptions. Always normalized (no zero fields).
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
// Rollback.
type txOp struct {
	op     int
	treeID uint64
	key    uint64
	off    int
	img    []byte // insert: payload; delete: old payload; update: before
}

// Open creates an engine over a fresh set of simulated devices.
func Open(cfg core.Config) (*Engine, error) {
	m, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	off, size := m.WALRegion()
	e := &Engine{
		m:     m,
		log:   wal.New(m.NVM(), off, size),
		tree:  make(map[uint64]*btree.Tree),
		maint: MaintenanceOptions{}.normalized(),
	}
	m.SetWriteBarrier(e.log.Flush)
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
	e.register(t)
	if err := e.saveCatalog(); err != nil {
		return nil, err
	}
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

// IsPageImage reports whether a WAL update record is a physical page
// image (logged for B+-tree splits) rather than a logical operation.
// Page images are meaningful only on the engine that wrote them — page
// ids and layouts differ across stores — so replication ships only the
// logical records and lets the replica's own trees split independently.
func IsPageImage(r wal.Record) bool {
	return r.Kind == wal.RecUpdate && r.Off&3 == opImage
}

func (e *Engine) register(t *btree.Tree) {
	t.SetLogger(e)
	t.SetMetaSync(e.saveCatalog)
	// In-place NVM pages are durable as written, and main-memory pages
	// have no persistent home: neither needs split images in the log.
	topo := e.Topology()
	t.SetStructuralLogging(topo != core.DirectNVM && topo != core.MemOnly)
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

// Commit makes the running transaction durable. On the NVM Direct
// architecture the log is truncated right after, as every change is
// already persisted in place (§2.1). On the buffered architectures the
// commit path never runs a full checkpoint: once the log passes the
// maintenance soft-fill threshold, each commit contributes one bounded
// incremental-checkpoint round (see MaintenanceOptions and pace).
func (e *Engine) Commit() error {
	if !e.txActive {
		return ErrNoTransaction
	}
	e.txActive = false
	if len(e.txOps) == 0 {
		return nil // read-only: nothing to log or flush
	}
	if err := e.log.Commit(e.curTx); err != nil {
		return err
	}
	if e.Topology() == core.DirectNVM {
		e.truncateLog()
		return nil
	}
	return e.pace()
}

// CommitNoFlush commits the running transaction without flushing the log
// tail: the commit record is appended, but the transaction is not durable
// until FlushWAL (or any other flush of the tail) lands. Group-commit
// callers coalesce many commits into one flush this way; they must not
// acknowledge the transaction before that flush returns. On the NVM
// Direct architecture there is nothing to coalesce — every change is
// persisted in place and the log truncated per commit — so CommitNoFlush
// degenerates to Commit and the transaction is durable on return.
func (e *Engine) CommitNoFlush() error {
	if !e.txActive {
		return ErrNoTransaction
	}
	if e.Topology() == core.DirectNVM {
		return e.Commit()
	}
	e.txActive = false
	if len(e.txOps) == 0 {
		return nil // read-only: nothing to log or flush
	}
	return e.log.CommitNoFlush(e.curTx)
}

// FlushWAL flushes the log tail, making every CommitNoFlush since the
// last flush durable, and returns how many commits the flush covered.
// Commit's inline maintenance pacing is deferred to here under group
// commit; it is skipped while a transaction is running.
func (e *Engine) FlushWAL() (int64, error) {
	n := e.log.FlushTail()
	if e.txActive || e.Topology() == core.DirectNVM {
		return n, nil
	}
	return n, e.pace()
}

// Rollback undoes the running transaction using the logical undo
// information collected since Begin, then logs an abort record. The
// compensating operations are themselves logged (CLR-style): recovery
// redoes an aborted transaction — operations plus compensations, netting
// out — instead of undoing it, which would clobber later transactions'
// changes to the same keys.
func (e *Engine) Rollback() error {
	if !e.txActive {
		return ErrNoTransaction
	}
	if len(e.txOps) == 0 {
		e.txActive = false
		return nil
	}
	// The compensations log through the normal path below; guard against
	// them growing txOps while we walk it backwards.
	ops := e.txOps
	e.txOps = nil
	for i := len(ops) - 1; i >= 0; i-- {
		op := ops[i]
		t := e.tree[op.treeID]
		var err error
		switch op.op {
		case opInsert:
			_, err = t.Delete(op.key)
		case opDelete:
			err = t.InsertOrReplace(op.key, op.img)
		case opUpdate:
			_, err = t.UpdateField(op.key, op.off, op.img)
		}
		if err != nil {
			e.txActive = false
			return fmt.Errorf("engine: rollback: %w", err)
		}
	}
	e.txActive = false
	e.txOps = e.txOps[:0]
	return e.log.Abort(e.curTx)
}

// Checkpoint forces all dirty pages to persistent storage and truncates
// the log, stalling until the whole dirty set is written back: a drain of
// the pool, then the same counted cut a CheckpointRound ends in. The
// commit path never calls it — incremental rounds checkpoint in bounded
// steps there — but shutdown, restart, and snapshot paths still want the
// synchronous full barrier. It must not run inside a transaction.
func (e *Engine) Checkpoint() error {
	if e.txActive {
		return fmt.Errorf("engine: checkpoint inside a transaction")
	}
	e.m.FlushAll()
	e.truncateLog()
	return nil
}

// The engine is the btree.Logger for all its trees: tree modifications
// arrive here, are recorded for rollback, and appended to the WAL before
// the page is modified.

// LogInsert implements btree.Logger.
func (e *Engine) LogInsert(treeID, key uint64, payload []byte) error {
	if e.replaying {
		return nil
	}
	if !e.txActive {
		return ErrNoTransaction
	}
	img := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint64(img, key)
	copy(img[8:], payload)
	if _, err := e.log.Update(e.curTx, treeID, opInsert, nil, img); err != nil {
		return err
	}
	e.txOps = append(e.txOps, txOp{op: opInsert, treeID: treeID, key: key})
	return nil
}

// LogDelete implements btree.Logger.
func (e *Engine) LogDelete(treeID, key uint64, old []byte) error {
	if e.replaying {
		return nil
	}
	if !e.txActive {
		return ErrNoTransaction
	}
	img := make([]byte, 8+len(old))
	binary.LittleEndian.PutUint64(img, key)
	copy(img[8:], old)
	if _, err := e.log.Update(e.curTx, treeID, opDelete, img, nil); err != nil {
		return err
	}
	e.txOps = append(e.txOps, txOp{op: opDelete, treeID: treeID, key: key, img: img[8:]})
	return nil
}

// LogUpdate implements btree.Logger.
func (e *Engine) LogUpdate(treeID, key uint64, off int, before, after []byte) error {
	if e.replaying {
		return nil
	}
	if !e.txActive {
		return ErrNoTransaction
	}
	b := make([]byte, 8+len(before))
	binary.LittleEndian.PutUint64(b, key)
	copy(b[8:], before)
	a := make([]byte, 8+len(after))
	binary.LittleEndian.PutUint64(a, key)
	copy(a[8:], after)
	if _, err := e.log.Update(e.curTx, treeID, opUpdate|off<<2, b, a); err != nil {
		return err
	}
	e.txOps = append(e.txOps, txOp{op: opUpdate, treeID: treeID, key: key, off: off, img: b[8:]})
	return nil
}

// LogPageImage implements btree.Logger: a redo-only record carrying the
// full after-image of a page changed by a split.
func (e *Engine) LogPageImage(pid core.PageID, image []byte) error {
	if e.replaying {
		return nil
	}
	if !e.txActive {
		return ErrNoTransaction
	}
	_, err := e.log.Update(e.curTx, uint64(pid), opImage, nil, image)
	return err
}

// Redo implements wal.Handler: repeat history with idempotent logical
// operations; page-image records restore the page wholesale.
func (e *Engine) Redo(r wal.Record) error {
	op, off := r.Off&3, r.Off>>2
	if op == opImage {
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
	t := e.tree[r.PID]
	if t == nil {
		return fmt.Errorf("engine: redo for unknown tree %d", r.PID)
	}
	switch op {
	case opInsert:
		return t.InsertOrReplace(binary.LittleEndian.Uint64(r.After), r.After[8:])
	case opDelete:
		_, err := t.Delete(binary.LittleEndian.Uint64(r.Before))
		return err
	case opUpdate:
		_, err := t.UpdateField(binary.LittleEndian.Uint64(r.After), off, r.After[8:])
		return err
	}
	return fmt.Errorf("engine: unknown opcode %d", op)
}

// ApplyLogical validates and replays one logical record from another
// engine's log inside the running transaction — the replica apply path.
// Unlike Redo during recovery, the engine is NOT in replay mode, so the
// tree operations are logged into this engine's own WAL: the replica
// has its own durability and crash recovery for everything it applied.
// Commit/abort marks are ignored (the caller delimits transactions);
// page-image records are rejected because page ids are meaningless
// across engines. Image lengths are validated so a malformed or hostile
// record returns an error instead of panicking.
func (e *Engine) ApplyLogical(r wal.Record) error {
	if r.Kind != wal.RecUpdate {
		return nil
	}
	op := r.Off & 3
	switch op {
	case opImage:
		return fmt.Errorf("engine: page-image record %d cannot be applied logically", r.LSN)
	case opInsert, opUpdate:
		if len(r.After) < 8 {
			return fmt.Errorf("engine: logical record %d: short after image", r.LSN)
		}
	case opDelete:
		if len(r.Before) < 8 {
			return fmt.Errorf("engine: logical record %d: short before image", r.LSN)
		}
	}
	if !e.txActive {
		return ErrNoTransaction
	}
	return e.Redo(r)
}

// Undo implements wal.Handler: roll back one loser record. Page-image
// records are redo-only (splits stay, like nested top actions).
func (e *Engine) Undo(r wal.Record) error {
	op, off := r.Off&3, r.Off>>2
	if op == opImage {
		return nil
	}
	t := e.tree[r.PID]
	if t == nil {
		return fmt.Errorf("engine: undo for unknown tree %d", r.PID)
	}
	switch op {
	case opInsert:
		key := binary.LittleEndian.Uint64(r.After)
		_, err := t.Delete(key)
		return err
	case opDelete:
		key := binary.LittleEndian.Uint64(r.Before)
		return t.InsertOrReplace(key, r.Before[8:])
	case opUpdate:
		key := binary.LittleEndian.Uint64(r.Before)
		_, err := t.UpdateField(key, off, r.Before[8:])
		return err
	}
	return fmt.Errorf("engine: unknown opcode %d", op)
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
	e.replaying = true
	stats, err := e.log.Recover(e)
	e.replaying = false
	if err != nil {
		return stats, err
	}
	// All recovered state is in the buffer pool; checkpoint so the log
	// can be truncated.
	return stats, e.Checkpoint()
}

// reload rebuilds the tree map from the persistent catalog.
func (e *Engine) reload() error {
	metas, err := decodeCatalog(e.m.UserMeta())
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
// superblock metadata. It runs on tree creation and on every root change.
func (e *Engine) saveCatalog() error {
	buf := make([]byte, 2, 2+len(e.tree)*22)
	binary.LittleEndian.PutUint16(buf, uint16(len(e.tree)))
	for _, t := range e.tree {
		var entry [22]byte
		binary.LittleEndian.PutUint64(entry[0:], t.ID())
		binary.LittleEndian.PutUint32(entry[8:], uint32(t.PayloadSize()))
		entry[12] = byte(t.Layout())
		binary.LittleEndian.PutUint64(entry[13:], uint64(t.RootPID()))
		entry[21] = byte(t.Height())
		buf = append(buf, entry[:]...)
	}
	return e.m.SetUserMeta(buf)
}

func decodeCatalog(b []byte) ([]treeMeta, error) {
	if len(b) == 0 {
		return nil, nil
	}
	if len(b) < 2 {
		return nil, fmt.Errorf("engine: catalog of %d bytes", len(b))
	}
	n := int(binary.LittleEndian.Uint16(b))
	if len(b) < 2+n*22 {
		return nil, fmt.Errorf("engine: catalog truncated: %d entries in %d bytes", n, len(b))
	}
	metas := make([]treeMeta, n)
	for i := 0; i < n; i++ {
		entry := b[2+i*22:]
		metas[i] = treeMeta{
			id:      binary.LittleEndian.Uint64(entry[0:]),
			payload: int(binary.LittleEndian.Uint32(entry[8:])),
			layout:  btree.LeafLayout(entry[12]),
			root:    core.PageID(binary.LittleEndian.Uint64(entry[13:])),
			height:  int(entry[21]),
		}
	}
	return metas, nil
}

// SaveSnapshot checkpoints the engine and writes all durable state to w;
// LoadSnapshot on an identically configured engine restores it. Must not
// run inside a transaction. The engine stays usable afterwards.
func (e *Engine) SaveSnapshot(w io.Writer) error {
	if e.txActive {
		return fmt.Errorf("engine: snapshot inside a transaction")
	}
	if err := e.Checkpoint(); err != nil {
		return err
	}
	return e.m.SaveSnapshot(w)
}

// LoadSnapshot replaces the engine's state with a snapshot written by
// SaveSnapshot on an engine with the same configuration.
func (e *Engine) LoadSnapshot(r io.Reader) error {
	if e.txActive {
		return fmt.Errorf("engine: snapshot load inside a transaction")
	}
	if err := e.m.LoadSnapshot(r); err != nil {
		return err
	}
	if err := e.reload(); err != nil {
		return err
	}
	// The snapshot was checkpointed: the log is empty, but Recover
	// repositions the append cursor and transaction counters.
	e.replaying = true
	_, err := e.log.Recover(e)
	e.replaying = false
	return err
}

// Close shuts the engine down in an orderly fashion: the log tail is
// flushed so every committed transaction is durable, and with
// checkpoint=true all dirty pages are written back and the log
// truncated (a cold store that recovers instantly). Close is idempotent
// and fails inside a transaction. The simulated devices live in process
// memory, so Close releases nothing — it exists to define the durable
// state a server hand-off or restart starts from.
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
