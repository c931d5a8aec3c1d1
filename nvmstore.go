// Package nvmstore is a storage engine for the DRAM / NVM / SSD memory
// hierarchy, reproducing "Managing Non-Volatile Memory in Database Systems"
// (van Renen et al., SIGMOD 2018).
//
// A Store is a transactional key-value engine over B+-trees whose storage
// layer is one of the paper's five architectures, selected by Architecture:
// a pure main-memory engine, a traditional SSD buffer manager, a
// page-grained NVM buffer manager, an engine working on NVM in place, or
// the paper's three-tier design in which DRAM and NVM are both caches over
// SSD, NVM-resident pages are loaded one cache line at a time, hot tuples
// of cold pages live in 1 KB mini pages, and hot page references are
// swizzled into direct pointers.
//
// The NVM and SSD devices are simulated (the paper itself had to rely on
// Intel's emulation platform): latency is charged to a virtual clock
// (Store.SimulatedTime) rather than slept, per-cache-line wear is counted,
// and power failures can be injected (Store.CrashRestart), after which the
// write-ahead log repeats committed work and rolls back losers.
//
// A minimal session:
//
//	store, _ := nvmstore.Open(nvmstore.Options{
//		Architecture: nvmstore.ThreeTier,
//		DRAMBytes:    64 << 20,
//		NVMBytes:     320 << 20,
//		SSDBytes:     16 << 30,
//	})
//	table, _ := store.CreateTable(1, 128)
//	store.Begin()
//	table.Insert(42, make([]byte, 128))
//	store.Commit()
//
// Stores are not safe for concurrent use: like the paper's evaluation, the
// engines are single-threaded (multi-threading is discussed as future work
// in the paper's Appendix A.1). A ShardedStore hash-partitions the key
// space across Stores, one lock each, and is safe for concurrent use; its
// Batch shares one log flush among the commits it runs, and its Snapshot
// gives scans a stable read point.
package nvmstore

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"nvmstore/internal/btree"
	"nvmstore/internal/core"
	"nvmstore/internal/engine"
	"nvmstore/internal/fault"
	"nvmstore/internal/obs"
	"nvmstore/internal/wal"
)

// Architecture selects the storage layout, one of the five designs the
// paper evaluates.
type Architecture int

const (
	// ThreeTier is the paper's contribution: DRAM and NVM as caches over
	// SSD with cache-line-grained pages, mini pages, and pointer
	// swizzling.
	ThreeTier Architecture = iota
	// MainMemory keeps all pages in DRAM; capacity is bounded by
	// Options.DRAMBytes and there is no page-based persistence.
	MainMemory
	// NVMDirect works on NVM in place, flushing every modification.
	NVMDirect
	// BasicNVMBuffer is a page-grained DRAM buffer pool over NVM
	// (FOEDUS-style).
	BasicNVMBuffer
	// SSDBuffer is a traditional buffer manager: DRAM over SSD.
	SSDBuffer
)

// String returns the paper's name for the architecture.
func (a Architecture) String() string { return a.topology().String() }

// ParseArchitecture returns the architecture with the given short name,
// one of those `nvmstore archs` lists: 3tier, mem, direct, basic, ssd.
func ParseArchitecture(name string) (Architecture, error) {
	t, err := core.ParseTopology(name)
	for a := ThreeTier; err == nil && a <= SSDBuffer; a++ {
		if a.topology() == t {
			return a, nil
		}
	}
	return ThreeTier, err
}

func (a Architecture) topology() core.Topology {
	switch a {
	case MainMemory:
		return core.MemOnly
	case NVMDirect:
		return core.DirectNVM
	case BasicNVMBuffer:
		return core.DRAMNVM
	case SSDBuffer:
		return core.DRAMSSD
	default:
		return core.ThreeTier
	}
}

// LeafLayout selects how table leaves store entries.
type LeafLayout = btree.LeafLayout

// Leaf layouts: sorted arrays with binary search (the default), or the
// open-addressing hash layout of §5.5 that trades scan speed for fewer
// NVM accesses per point lookup.
const (
	LayoutSorted = btree.LayoutSorted
	LayoutHash   = btree.LayoutHash
)

// Errors surfaced by the store. Capacity and duplicate-key conditions can
// be tested with errors.Is.
var (
	ErrCapacity     = core.ErrCapacity
	ErrDuplicateKey = btree.ErrDuplicateKey
	ErrNoTx         = engine.ErrNoTransaction
)

// Options configures a Store. Capacities the chosen architecture does not
// use may be zero.
type Options struct {
	// Architecture selects the storage layout (default ThreeTier).
	Architecture Architecture
	// DRAMBytes bounds the DRAM buffer pool; zero means unlimited
	// (the usual setting for MainMemory).
	DRAMBytes int64
	// NVMBytes is the simulated NVM capacity for pages; the log region
	// is reserved on top.
	NVMBytes int64
	// SSDBytes is the simulated SSD capacity.
	SSDBytes int64
	// WALBytes sizes the NVM log region (default 16 MB).
	WALBytes int64

	// Maintenance tunes incremental checkpointing and paced dirty
	// write-back (see MaintenanceOptions). The zero value selects every
	// default. The rounds run on the commit (or WAL tail flush) that
	// finds the log past a threshold, bounded to Maintenance.Batch pages
	// each — in a ShardedStore under the shard lock Batch already holds.
	Maintenance MaintenanceOptions

	// StrictPersistence makes NVM writes that were never flushed vanish
	// on CrashRestart — the adversarial model for recovery testing.
	StrictPersistence bool

	// DebugChecks enables the paper's §A.6 debugging mode: on eviction,
	// every clean cache line is verified against its persistent copy.
	DebugChecks bool

	// CheckpointOnClose makes Close write back all dirty pages and
	// truncate the log, so the next open recovers instantly from a cold
	// state. Without it Close only flushes the log tail (committed work
	// is durable either way; recovery replays the log).
	CheckpointOnClose bool

	// Observe enables the observability layer: per-tier latency
	// histograms recorded at every storage boundary, surfaced through
	// Metrics().Latency. Costs a few percent of throughput; off by
	// default.
	Observe bool
}

// Store is a single-threaded transactional storage engine.
type Store struct {
	e         *engine.Engine
	collector *obs.Collector

	checkpointOnClose bool
	closed            bool
}

// The layers built on the store reach its engine through engine.Of.
func init() { engine.Of = func(st any) *engine.Engine { return st.(*Store).e } }

// Open creates a store with fresh simulated devices.
func Open(opts Options) (*Store, error) {
	cfg := engine.DefaultConfig(opts.Architecture.topology(), opts.DRAMBytes, opts.NVMBytes, opts.SSDBytes)
	cfg.WALBytes = opts.WALBytes
	cfg.StrictPersistence = opts.StrictPersistence
	cfg.DebugChecks = opts.DebugChecks
	var collector *obs.Collector
	if opts.Observe {
		collector = obs.NewCollector()
		cfg.Recorder = collector
	}
	e, err := engine.Open(cfg)
	if err != nil {
		return nil, err
	}
	e.SetMaintenance(opts.Maintenance)
	return &Store{e: e, collector: collector, checkpointOnClose: opts.CheckpointOnClose}, nil
}

// Close shuts the store down in an orderly fashion: the write-ahead log
// tail is flushed, so every committed transaction is durable, and with
// Options.CheckpointOnClose a final checkpoint writes back all dirty
// pages. Close is idempotent — repeated calls return nil — and fails
// inside an open transaction. The store's simulated devices live in
// process memory, so a closed store can still be read; Close defines
// the durable state a drain (e.g. a serving layer's shutdown) ends in.
// Their media and device counters live off the Go heap and are
// released once the store is unreachable, not at Close.
func (s *Store) Close() error {
	if s.closed {
		return nil
	}
	if err := s.e.Close(s.checkpointOnClose); err != nil {
		return err
	}
	s.closed = true
	return nil
}

// Architecture returns the store's storage layout.
func (s *Store) Architecture() string { return s.e.Topology().String() }

// CreateTable creates a table of fixed-size rows keyed by uint64. The id
// must be unique within the store and is how the table is found again
// after a restart.
func (s *Store) CreateTable(id uint64, rowSize int) (*Table, error) {
	return s.CreateTableLayout(id, rowSize, LayoutSorted)
}

// CreateTableLayout is CreateTable with an explicit leaf layout.
func (s *Store) CreateTableLayout(id uint64, rowSize int, layout LeafLayout) (*Table, error) {
	t, err := s.e.CreateTree(id, rowSize, layout)
	if err != nil {
		return nil, err
	}
	return &Table{t: t, s: s}, nil
}

// Table returns the table with the given id, or nil if it does not exist
// (tables reappear automatically after restarts).
func (s *Store) Table(id uint64) *Table {
	t := s.e.Tree(id)
	if t == nil {
		return nil
	}
	return &Table{t: t, s: s}
}

// Begin starts a transaction. Transactions are explicit: modifications
// outside Begin/Commit fail with ErrNoTx.
func (s *Store) Begin() { s.e.Begin() }

// Commit makes the running transaction durable (the log tail is flushed
// to NVM).
func (s *Store) Commit() error { return s.e.Commit() }

// Rollback undoes the running transaction.
func (s *Store) Rollback() error { return s.e.Rollback() }

// Update runs fn inside a transaction, committing on success and rolling
// back when fn returns an error.
func (s *Store) Update(fn func() error) error {
	s.Begin()
	if err := fn(); err != nil {
		if rbErr := s.Rollback(); rbErr != nil {
			return errors.Join(err, rbErr)
		}
		return err
	}
	return s.Commit()
}

// FlushWAL flushes the write-ahead log tail, making every UpdateNoFlush
// commit since the last flush durable, and returns how many commits the
// flush covered.
func (s *Store) FlushWAL() (int64, error) { return s.e.FlushWAL() }

// UpdateNoFlush is Update with the final flush elided: on success the
// commit record is appended but not flushed, so the write is durable only
// after a later FlushWAL (or the next flushing commit) and must not be
// acknowledged before. It is the body of ShardedStore.Batch's group
// commit. Rollbacks still flush — abort records always go to the medium
// immediately.
func (s *Store) UpdateNoFlush(fn func() error) error {
	s.Begin()
	if err := fn(); err != nil {
		if rbErr := s.Rollback(); rbErr != nil {
			return errors.Join(err, rbErr)
		}
		return err
	}
	return s.e.CommitNoFlush()
}

// Checkpoint forces all dirty pages to persistent storage and truncates
// the write-ahead log, synchronously — the full stall the incremental
// rounds exist to avoid. Shutdown and snapshot paths use it; the commit
// path never does.
func (s *Store) Checkpoint() error { return s.e.Checkpoint() }

// MaintenanceOptions tunes incremental checkpointing and paced dirty
// write-back; see Options.Maintenance and engine.MaintenanceOptions for
// the field semantics.
type MaintenanceOptions = engine.MaintenanceOptions

// CkptStats counts incremental-checkpoint activity: bounded write-back
// rounds, pages written back, and WAL truncations with the bytes they
// discarded. Reported in Metrics.Ckpt.
type CkptStats = engine.CkptStats

// LogFill returns the WAL region's fill fraction (0..1) — the signal
// that drives paced write-back.
func (s *Store) LogFill() float64 { return s.e.LogFill() }

// CleanRestart simulates an orderly shutdown and restart: all volatile
// state is dropped and the page mapping table is rebuilt by scanning the
// NVM page headers (§4.4). On the three-tier architecture the NVM cache
// survives warm — the property the paper's restart experiment measures.
func (s *Store) CleanRestart() error { return s.e.CleanRestart() }

// RecoveryStats summarizes a crash recovery.
type RecoveryStats = wal.RecoveryStats

// CrashRestart simulates a power failure and restart: DRAM is lost,
// unflushed NVM lines revert (with Options.StrictPersistence), and the
// write-ahead log is replayed. Not supported on MainMemory, whose pages
// have no persistent home.
func (s *Store) CrashRestart() (RecoveryStats, error) { return s.e.CrashRestart() }

// InjectFaults arms the store's devices with injectors derived from a
// seeded fault plan (see internal/fault): NVM flush crashes and torn
// flushes, SSD I/O errors and stalls, WAL append failures and torn log
// flushes. Crash-kind faults surface as fault.Crash panics that the
// caller recovers before invoking CrashRestart; error-kind faults
// surface on the operation that hit them. A nil plan disarms
// everything. It returns the injector bundle for reading fired and
// opportunity counters.
func (s *Store) InjectFaults(plan *fault.Plan) fault.Injectors {
	return s.e.ArmFaults(plan, 0)
}

// SimulatedTime returns the accumulated simulated device time. Combined
// with wall time it yields the throughput figures the benchmark harness
// reports.
func (s *Store) SimulatedTime() time.Duration { return s.e.Clock().Elapsed() }

// Residency is the set of per-tier residency gauges: pages and cache
// lines currently resident per tier, dirty and pin counts.
type Residency = core.Residency

// LatencySnapshot holds the per-operation latency histograms of a store
// opened with Options.Observe; see Metrics.Latency.
type LatencySnapshot = obs.Snapshot

// LatencyRow is one operation's latency summary (count, p50/p90/p99, max,
// mean — all in simulated nanoseconds), as produced by
// LatencySnapshot.Rows.
type LatencyRow = obs.Row

// Metrics is a snapshot of engine and device counters.
type Metrics struct {
	// Buffer manager event counters (fixes, evictions, admissions, ...).
	Buffer core.Stats
	// Log activity (records, commits, flushes, truncations). Under group
	// commit Commits exceeds Flushes; see wal.Stats.
	Log wal.Stats
	// OpsPerFlush is Log.OpsPerFlush(): the average number of commits
	// each physical WAL flush made durable — group commit's amortization
	// factor (0 when nothing was flushed).
	OpsPerFlush float64
	// Ckpt counts incremental-checkpoint activity: write-back rounds,
	// pages per round, and maintenance truncations with the log bytes
	// they discarded.
	Ckpt CkptStats
	// WriterThrottles is always zero: no writer waits outside the shard
	// lock for a truncation any more. It remains only because
	// benchmark/metrics.go:216 (sharded.writer_throttles) reads it.
	WriterThrottles int64
	// NVMLinesRead counts cache lines read from NVM (including CPU-cache
	// hits); NVMLinesFlushed counts lines made durable.
	NVMLinesRead    int64
	NVMLinesFlushed int64
	// NVMReadRequests counts the read requests that fetched NVMLinesRead
	// (one per contiguous run; the device charges its latency per request
	// and a transfer term per further line); NVMReadRequestsCharged counts
	// those with at least one CPU-cache miss, which alone cost device time.
	NVMReadRequests        int64
	NVMReadRequestsCharged int64
	// NVMTotalWrites is the total cache-line write (wear) count across
	// the device — the endurance measure of the paper's Figure 16.
	NVMTotalWrites int64
	// SSDPagesRead and SSDPagesWritten count SSD traffic.
	SSDPagesRead    int64
	SSDPagesWritten int64
	// Residency reports where pages and cache lines currently live in
	// the hierarchy (instantaneous gauges, not counters).
	Residency Residency
	// Latency holds the per-operation latency histograms when the store
	// was opened with Options.Observe; nil otherwise. Use Latency.Rows()
	// for percentile summaries.
	Latency *LatencySnapshot
	// Read holds the multi-version read-path counters (snapshot reads,
	// copy-on-write version-store occupancy).
	Read ReadStats
}

// add accumulates another shard's snapshot: counters and gauges sum,
// latency histograms merge. OpsPerFlush is a ratio and the caller's to
// recompute from the summed Log.
func (m *Metrics) add(o Metrics) {
	m.Buffer.Add(o.Buffer)
	m.Log.Add(o.Log)
	m.Ckpt.Add(o.Ckpt)
	m.WriterThrottles += o.WriterThrottles
	m.NVMLinesRead += o.NVMLinesRead
	m.NVMLinesFlushed += o.NVMLinesFlushed
	m.NVMReadRequests += o.NVMReadRequests
	m.NVMReadRequestsCharged += o.NVMReadRequestsCharged
	m.NVMTotalWrites += o.NVMTotalWrites
	m.SSDPagesRead += o.SSDPagesRead
	m.SSDPagesWritten += o.SSDPagesWritten
	m.Residency.Add(o.Residency)
	m.Read.add(o.Read)
	if o.Latency != nil {
		if m.Latency == nil {
			m.Latency = &LatencySnapshot{}
		}
		m.Latency.Merge(o.Latency)
	}
}

// ReadStats is a snapshot of the multi-version read path: snapshot scans
// served from stable page images and the copy-on-write version store
// that backs them.
type ReadStats struct {
	// SnapshotReads counts the as-of leaves snapshot scans read: one per
	// leaf visited in place, whether the live page (its version predates
	// the snapshot) or a copy-on-write image from the version store.
	SnapshotReads int64
	// OptimisticHits and OptimisticRetries are always zero: every point
	// read goes through the buffer manager under the shard lock. The
	// fields remain only because the repo benchmark still reads them.
	OptimisticHits    int64
	OptimisticRetries int64
	// VersionsSaved counts copy-on-write page images saved for open
	// snapshots; VersionsReclaimed counts images freed once no snapshot
	// could read them; VersionsLive is the current resident image count.
	VersionsSaved     int64
	VersionsReclaimed int64
	VersionsLive      int64
	// VersionChainMax is the high-water length of any one page's version
	// chain — a proxy for how far the oldest open snapshot lags writers.
	VersionChainMax int64
	// ActiveSnapshots is the number of currently open snapshots pinning
	// old versions.
	ActiveSnapshots int64
}

// add accumulates another shard's read-path counters (gauges sum;
// VersionChainMax takes the max).
func (r *ReadStats) add(o ReadStats) {
	r.SnapshotReads += o.SnapshotReads
	r.OptimisticHits += o.OptimisticHits
	r.OptimisticRetries += o.OptimisticRetries
	r.VersionsSaved += o.VersionsSaved
	r.VersionsReclaimed += o.VersionsReclaimed
	r.VersionsLive += o.VersionsLive
	if o.VersionChainMax > r.VersionChainMax {
		r.VersionChainMax = o.VersionChainMax
	}
	r.ActiveSnapshots += o.ActiveSnapshots
}

// WearProfile summarizes the per-cache-line write distribution of the
// simulated NVM device — the endurance measure of the paper's Figure 16.
// Buffer-managed architectures both reduce and level wear; the in-place
// architecture concentrates it on hot lines.
type WearProfile struct {
	// TotalWrites is the number of cache-line writes the device absorbed.
	TotalWrites int64
	// LinesTouched is the number of distinct lines written at least once.
	LinesTouched int
	// MaxPerLine is the write count of the hottest line.
	MaxPerLine uint32
	// MedianPerLine is the write count of the median touched line.
	MedianPerLine uint32
}

// WearProfile computes the NVM wear distribution.
func (s *Store) WearProfile() WearProfile {
	return wearProfile(s.e.Manager().NVM().WearCounts())
}

// wearProfile summarizes the wear counters of one or more devices taken
// together, as if they were one larger device.
func wearProfile(devices ...[]uint32) WearProfile {
	var touched []uint32
	var p WearProfile
	for _, counts := range devices {
		for _, c := range counts {
			if c > 0 {
				touched = append(touched, c)
				p.TotalWrites += int64(c)
				if c > p.MaxPerLine {
					p.MaxPerLine = c
				}
			}
		}
	}
	p.LinesTouched = len(touched)
	if len(touched) > 0 {
		sort.Slice(touched, func(a, b int) bool { return touched[a] < touched[b] })
		p.MedianPerLine = touched[len(touched)/2]
	}
	return p
}

// ResetWear zeroes the NVM wear counters (for before/after comparisons).
func (s *Store) ResetWear() { s.e.Manager().NVM().ResetWear() }

// Metrics returns a snapshot of the store's counters.
func (s *Store) Metrics() Metrics {
	m := Metrics{
		Buffer: s.e.Manager().Stats(),
		Log:    s.e.Log().Stats(),
		Ckpt:   s.e.CkptStats(),
	}
	m.OpsPerFlush = m.Log.OpsPerFlush()
	nvmStats := s.e.Manager().NVM().Stats()
	m.NVMLinesRead = nvmStats.LinesRead
	m.NVMLinesFlushed = nvmStats.LinesFlushed
	m.NVMReadRequests = nvmStats.ReadOps
	m.NVMReadRequestsCharged = nvmStats.ReadOpsCharged
	m.NVMTotalWrites = s.e.Manager().NVM().TotalWrites()
	if ssd := s.e.Manager().SSD(); ssd != nil {
		st := ssd.Stats()
		m.SSDPagesRead = st.PagesRead
		m.SSDPagesWritten = st.PagesWritten
	}
	m.Residency = s.e.Manager().Residency()
	vs := s.e.Versions().Stats()
	m.Read = ReadStats{
		SnapshotReads:     vs.Served,
		VersionsSaved:     vs.Saved,
		VersionsReclaimed: vs.Reclaimed,
		VersionsLive:      vs.Live,
		VersionChainMax:   vs.ChainMax,
		ActiveSnapshots:   vs.ActiveSnapshots,
	}
	if s.collector != nil {
		// Flush the hit counters batched on the hot path so the
		// snapshot is complete (see Manager.SyncObs).
		s.e.Manager().SyncObs()
		m.Latency = s.collector.Snapshot()
	}
	return m
}

// Table is a B+-tree of fixed-size rows keyed by uint64.
type Table struct {
	t *btree.Tree
	s *Store
}

// RowSize returns the fixed row size in bytes.
func (t *Table) RowSize() int { return t.t.PayloadSize() }

// Insert adds a row; it fails with ErrDuplicateKey if the key exists and
// with ErrNoTx outside a transaction.
func (t *Table) Insert(key uint64, row []byte) error { return t.t.Insert(key, row) }

// Lookup copies the row for key into buf (RowSize bytes) and reports
// whether it was found.
func (t *Table) Lookup(key uint64, buf []byte) (bool, error) { return t.t.Lookup(key, buf) }

// LookupField copies n bytes at byte offset off of key's row into buf.
// On NVM-backed architectures only the probed keys and the requested
// field are transferred — the paper's cache-line-grained fast path.
func (t *Table) LookupField(key uint64, off, n int, buf []byte) (bool, error) {
	return t.t.LookupField(key, off, n, buf)
}

// UpdateField overwrites part of key's row, logging the new bytes for
// recovery. The old bytes stay in memory for Rollback and reach the log
// only if the row's page is written back before the commit.
func (t *Table) UpdateField(key uint64, off int, val []byte) (bool, error) {
	return t.t.UpdateField(key, off, val)
}

// Put inserts or replaces the row for key — btree.Tree.Put, the one
// upsert every write path and recovery share. When the key exists, row
// overwrites the leading len(row) bytes of the stored row and the rest is
// kept; when it does not, row is inserted zero-padded to RowSize. A row
// longer than RowSize fails. Like Insert, it needs a running transaction.
func (t *Table) Put(key uint64, row []byte) error { return t.t.Put(key, row) }

// Delete removes a row and reports whether it existed.
func (t *Table) Delete(key uint64) (bool, error) { return t.t.Delete(key) }

// Scan visits rows with key >= from in ascending order, passing fieldLen
// bytes at fieldOff of each row; it stops after limit rows (limit <= 0
// means all) or when fn returns false. The field slice is only valid
// during the callback.
func (t *Table) Scan(from uint64, limit int, fieldOff, fieldLen int, fn func(key uint64, field []byte) bool) error {
	return t.t.Scan(from, limit, fieldOff, fieldLen, fn)
}

// Count scans the table and returns the number of rows.
func (t *Table) Count() (int, error) { return t.t.Count() }

// BulkLoad fills an empty table with n rows in ascending key order at the
// given leaf fill factor (0 < fill <= 1), bypassing the log; call
// Store.Checkpoint afterwards to make the load durable. It must not run
// inside a transaction.
func (t *Table) BulkLoad(n int, keyAt func(i int) uint64, rowAt func(i int, dst []byte), fill float64) error {
	if t.s.e.InTx() {
		return fmt.Errorf("nvmstore: bulk load inside a transaction")
	}
	return t.t.BulkLoad(n, keyAt, rowAt, fill)
}
