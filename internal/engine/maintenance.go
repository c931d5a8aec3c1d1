package engine

import (
	"fmt"

	"nvmstore/internal/core"
	"nvmstore/internal/fault"
)

// Maintenance defaults, used when the corresponding MaintenanceOptions
// field is zero.
const (
	// DefaultMaintenanceBatch bounds the pages written back per
	// incremental-checkpoint round, and therefore the worst-case pause
	// one round imposes on the shard.
	DefaultMaintenanceBatch = 64
	// DefaultSoftFill is the log-fill fraction at which paced write-back
	// starts.
	DefaultSoftFill = 0.5
	// DefaultHardFill is the log-fill fraction from which a commit runs
	// rounds back to back until the log is cut, so appends never hit
	// wal.ErrLogFull.
	DefaultHardFill = 0.9
)

// MaintenanceOptions tunes incremental (fuzzy) checkpointing and paced
// dirty write-back. A checkpoint is no longer one synchronous
// FlushAll+Truncate on the commit path: it is a sequence of bounded
// rounds (CheckpointRound), each writing back at most Batch dirty pages
// in clock order, with the WAL truncated once the dirty set is drained.
// The rounds run on the commit (or tail flush) that finds the log past
// a threshold — see pace. The zero value selects every default.
type MaintenanceOptions struct {
	// Batch bounds the pages written back per round. Smaller batches
	// mean a smaller stall for the commit that runs the round; larger
	// batches drain the dirty set in fewer rounds. Zero selects
	// DefaultMaintenanceBatch.
	Batch int
	// SoftFill is the log-fill fraction at which paced write-back
	// starts (zero selects DefaultSoftFill). Below it the engine leaves
	// dirty pages alone, preserving write coalescing in the pool.
	SoftFill float64
	// HardFill is the log-fill fraction past which the engine refuses
	// to let the log grow unchecked: the committing goroutine runs
	// rounds back to back until the log is cut. Zero selects
	// DefaultHardFill.
	HardFill float64
}

// normalized returns o with zero fields replaced by the defaults.
func (o MaintenanceOptions) normalized() MaintenanceOptions {
	if o.Batch <= 0 {
		o.Batch = DefaultMaintenanceBatch
	}
	if o.SoftFill <= 0 {
		o.SoftFill = DefaultSoftFill
	}
	if o.HardFill <= 0 {
		o.HardFill = DefaultHardFill
	}
	if o.HardFill < o.SoftFill {
		o.HardFill = o.SoftFill
	}
	return o
}

// CkptStats counts incremental-checkpoint and paced write-back
// activity.
type CkptStats struct {
	// Rounds counts bounded write-back rounds (CheckpointRound calls
	// that walked the frame table), NVM Direct's one round per FlushWAL
	// included.
	Rounds int64
	// Pages counts dirty pages written back by those rounds.
	Pages int64
	// Truncations counts every WAL truncation (all go through
	// truncateLog): the round that drains the dirty set, a full
	// Checkpoint.
	Truncations int64
	// TruncatedBytes sums the log bytes discarded by those truncations.
	TruncatedBytes int64
}

// Add folds other into c, for aggregating per-shard counters.
func (c *CkptStats) Add(other CkptStats) {
	c.Rounds += other.Rounds
	c.Pages += other.Pages
	c.Truncations += other.Truncations
	c.TruncatedBytes += other.TruncatedBytes
}

// SetMaintenance replaces the engine's maintenance tuning. Fields left
// zero keep their defaults. On NVM Direct both thresholds are zero
// whatever o says: its log holds undo for in-flight transactions only
// (§2.1), so every FlushWAL runs one round, which cuts the log. It must
// not run inside a transaction.
func (e *Engine) SetMaintenance(o MaintenanceOptions) {
	e.maint = o.normalized()
	if e.Topology() == core.DirectNVM {
		e.maint.SoftFill, e.maint.HardFill = 0, 0
	}
}

// CkptStats returns the incremental-checkpoint counters.
func (e *Engine) CkptStats() CkptStats { return e.ckpt }

// LogFill returns the WAL region's fill fraction (0..1).
func (e *Engine) LogFill() float64 {
	return float64(e.log.Bytes()) / float64(e.log.Capacity())
}

// CheckpointRound performs one bounded round of an incremental (fuzzy)
// checkpoint: write back up to batch dirty pages (batch <= 0 selects
// the configured Batch), resuming the frame walk where the previous
// round stopped, and — once no dirty page remains — flush and truncate
// the WAL. It returns how many pages this round wrote back and whether
// it truncated the log.
//
// Unlike Checkpoint, a round never stalls on the whole dirty set: pace
// interleaves rounds with the commits that call it, and the checkpoint
// is "fuzzy" because pages dirtied between rounds simply join a later
// round. Truncation only happens in the
// round that observes a fully clean pool, so every logged change is
// durable in its home location first; a crash between rounds recovers
// from the intact log exactly (the fault.CkptRound site at the top of
// each round is the harness's probe for this).
//
// On NVM Direct the pool holds no frame to write back — tuples persist
// in place — so a round cuts the log at once. On Main Memory pages have
// no persistent home; the round just flushes and cuts the log, which
// only covers the running transaction's rollback needs. It must not run
// inside a transaction.
func (e *Engine) CheckpointRound(batch int) (pages int, truncated bool, err error) {
	if e.txActive {
		return 0, false, fmt.Errorf("engine: checkpoint round inside a transaction")
	}
	if dec := e.ckptFaults.Check(fault.CkptRound); dec.Fire {
		panic(fault.Crash{Kind: fault.CkptRound, Site: "ckpt.round"})
	}
	if e.Topology() == core.MemOnly {
		return 0, e.truncateLog(), nil
	}
	if batch <= 0 {
		batch = e.maint.Batch
	}
	e.ckpt.Rounds++
	cursor, n := e.m.FlushSome(e.ckptCursor, batch)
	e.ckptCursor = cursor
	e.ckpt.Pages += int64(n)
	if e.m.DirtyFrames() == 0 {
		truncated = e.truncateLog()
	}
	return n, truncated, nil
}

// truncateLog flushes the tail (so unshipped records reach the
// replication tap before the region is reused), writes a root change that
// only the log holds to the superblock catalog, and truncates the WAL,
// updating the checkpoint counters. Every caller runs it where each page
// a root reaches is durable: on a clean pool, which NVM Direct's, whose
// pages are durable in place, always is. It reports whether the log was
// actually cut: the replication retention watermark can refuse (see
// wal.Log.Truncate), and an empty log has nothing to cut.
func (e *Engine) truncateLog() bool {
	e.log.Flush()
	// Every page a root reaches is durable, so the catalog may name it. It
	// goes before the cut: a crash between the two must not leave the old
	// root and no root record to move it. (If the watermark then refuses
	// the cut, redo of the kept log from the new root converges as it does
	// after a crash between FlushAll and the cut.)
	if e.catalogStale && e.saveCatalog() != nil {
		return false
	}
	before := e.log.Bytes()
	if before == 0 {
		return false
	}
	if e.log.Truncate() == 0 {
		return false
	}
	e.ckpt.Truncations++
	e.ckpt.TruncatedBytes += before
	return true
}

// pace is the one placement of checkpoint write-back: FlushWAL, which
// every Commit ends in, calls it once the tail is durable, outside any
// transaction, so it runs on the goroutine that filled the log and under
// whatever lock that goroutine already holds (a ShardedStore's Batch
// holds the shard lock around its one FlushWAL) — the writer that fills
// the log is the one that drains it, and backpressure needs no protocol. Below SoftFill it
// does nothing. From SoftFill it runs one bounded round per commit —
// write-back amortized across the writers that generate the dirt, in
// place of a stall-the-world checkpoint. From HardFill it runs rounds
// back to back until the log is truncated, so an append only ever meets
// wal.ErrLogFull when the cut is refused; each round is still
// batch-bounded, keeping the worst-case single-commit stall at one batch
// per round rather than one full pool flush.
func (e *Engine) pace() error {
	if e.LogFill() < e.maint.SoftFill {
		return nil
	}
	for {
		pages, truncated, err := e.CheckpointRound(0)
		if err != nil {
			return err
		}
		if truncated || e.LogFill() < e.maint.HardFill {
			return nil
		}
		if pages == 0 {
			// Nothing written back and no truncation: the pool is
			// already clean and the cut was refused (a retention
			// watermark; under replication the flush in truncateLog
			// ships the tail first, so that refusal cannot persist), or
			// the topology has no page write-back. More rounds cannot
			// shrink the log.
			return nil
		}
	}
}
