// Package wal implements the write-ahead log on NVM.
//
// The paper (§2.3) gives every evaluated engine the same textbook log:
// before and after images, flushed at commit. This log keeps only what
// recovery reads. A change is a RecUpdate record carrying its redo image
// (After). Its undo image (Before, never empty) stays with the caller,
// which appends it as a RecUndo record (AppendUndo) only once the change's
// bytes could reach persistent storage before its commit: a page stolen
// mid-transaction, or a page image, which redo replays whatever the
// transaction's outcome. A store that writes a change in place (NVM
// Direct) steals at every change, so it appends the undo record, and
// flushes it, before the store. A transaction commits by flushing the
// log tail (clwb + sfence in hardware, Device.Flush here).
//
// A transaction whose only record is one Update and that commits before
// anything else touches the log — every autocommit write — is one folded
// record: kind, LSN, uvarint page id, uvarint offset and redo image, with
// no transaction id and no image lengths. Update holds a transaction's
// first update record instead of writing it; CommitNoFlush folds the
// commit mark into it, and every other append, Flush and Truncate
// first write it as a plain RecUpdate. The folded record stands for two
// LSNs, the update's n and the commit's n+1, so LSNs, DurableLSN and the
// ship hook's stream (an update at n, its commit at n+1) do not tell the
// two layouts apart. A 100-byte field update with its 8-byte key is one
// 128-byte record, two lines.
//
// The log is written in whole cache lines. A record is a 4-byte size and
// a 4-byte CRC followed by its payload, and the records of one flush
// follow each other without gaps. Flush ends on a line boundary: it sets
// the flush-end bit in the size field of the last record it makes durable
// — the rest of that record's last line is the flush's pad — flushes
// [flushedTo, boundary) once, and moves the head to the boundary, so the
// next record starts on a fresh line and no line is flushed twice between
// two truncations. Recover reads the same rule back: behind a record with
// the flush-end bit the log goes on at the next line.
//
// Nothing marks the end of the log: Truncate does not erase the region, so
// the line after the last flush holds zeros, a record of an earlier
// generation, or garbage. (Release, after a truncation, hands the record
// area's host pages back to the host, and they read as zeros; the
// engine's full checkpoint calls it, its paced truncations do not.) The
// region's last line is the log's header: it holds the LSN floor, the
// highest LSN appended before the last Truncate, which Truncate persists
// and Recover starts from. A record whose LSN does not exceed the floor
// and every LSN before it is therefore stale. A scan that stops right
// behind a flush-end record (or before any record) has found the clean
// end; one that stops right behind any other record has found a flush
// torn by a crash (RecoveryStats.TornTail).
//
// Recover applies one rule, and nowhere else decides it:
//
//   - redo is logical and unconditional, in log order: every RecUpdate of
//     a committed or aborted transaction, every folded record (handed
//     over as a RecUpdate), and every RecImage up to the end of the last
//     completed flush. There are no page LSNs; a record is reapplied
//     whether or not its page already holds it, so a Handler's operations
//     must be idempotent;
//   - a RecImage behind the last completed flush, in a flush a crash tore,
//     is not redone: no page can hold its bytes, since a write-back
//     flushes the log first, and a tear could have kept some images of a
//     structural change and lost the others. A caller that appends the
//     images of one change with no flush between them gets them redone
//     all or none;
//   - a loser — neither commit nor abort record; there is at most one, the
//     log's last transaction — has its RecUpdate records skipped;
//   - the loser's RecUndo records are undone in reverse log order. Undo
//     records exist only for changes a steal or a page image could have
//     exposed.
//
// Every append makes room for the pad the next flush may add behind it,
// Update reserves room for the change's undo record and its pad, and the
// transaction's commit or abort mark releases the reservation, so
// ErrLogFull surfaces at the change that does not fit and never inside
// the write barrier.
// Undo records are no fault.WALAppendError site and never reach the ship
// hook.
//
// The log occupies a fixed region of the simulated NVM device. It is
// append-only until Truncate, which callers invoke once all logged
// changes are known to be durable elsewhere: the engine after a full
// checkpoint, the incremental-maintenance path when a write-back round
// leaves the page pool clean, and — in the
// NVM-direct architecture — every commit, because there the tuples
// themselves are flushed before the transaction finishes.
//
// Replication invariant: once the log has a ship hook (SetShip),
// Truncate must never discard a record that has not yet been handed to
// it — the record would silently vanish from the replication stream.
// Truncate therefore consults the retention watermark installed by
// SetRetain (the lowest LSN not yet shipped) and becomes a counted
// no-op while such a record is still resident. Records that HAVE
// shipped are retained by the replication layer in its own memory, so
// replica progress never pins the log region: checkpoint truncation
// proceeds under replication exactly as without it, and a replica that
// falls too far behind re-bootstraps from a snapshot. The ship hook
// delivers records strictly after the flush that made them durable, so
// a subscriber can never observe a record the primary could still
// lose — the ack⇒durable contract extends to the replication stream.
// The watermark binds every Truncate caller alike, not just the
// checkpoint: a maintenance drain that finds unshipped records resident
// simply keeps the log and retries on a later round.
//
// A Log is not safe for concurrent use, matching the single-threaded
// engines in this reproduction.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"nvmstore/internal/fault"
	"nvmstore/internal/nvm"
	"nvmstore/internal/obs"
	"nvmstore/internal/simclock"
)

// TxID identifies a transaction. Zero is never a valid transaction id.
type TxID uint64

// LSN is a log sequence number; LSNs increase strictly monotonically
// across the life of the log, surviving truncation and, through the
// header's LSN floor, recovery.
type LSN uint64

// Record kinds, the first payload byte of a record and Record.Kind.
const (
	// RecUpdate is the redo record of a logical change: After is its redo
	// image, and Before is empty.
	RecUpdate byte = 1
	// RecCommit and RecAbort are transaction marks with no images.
	RecCommit byte = 2
	RecAbort  byte = 3
	// RecUndo is the undo record of an earlier RecUpdate of the same
	// transaction (AppendUndo): Before is the undo image.
	RecUndo byte = 4
	// RecImage is a page's after image (After), redone whatever its
	// transaction's outcome.
	RecImage byte = 5
	// recFolded is a one-update transaction in one record: its update at
	// the record's LSN n and its commit at n+1. It exists only in the
	// log: Recover hands it to Redo as a RecUpdate, and the ship hook
	// delivers the update and the commit.
	recFolded byte = 6
)

// ErrLogFull is returned when the log region cannot hold another record;
// the engine must checkpoint and truncate.
var ErrLogFull = errors.New("wal: log region full")

// Record is one decoded log record.
type Record struct {
	// Kind is RecUpdate, RecCommit, RecAbort, RecUndo or RecImage.
	// Recovery hands update, undo and image records to the Handler; the
	// ship hook delivers every kind but RecUndo, so subscribers see
	// transaction boundaries.
	Kind byte
	LSN  LSN
	// Tx is zero in an update Recover read from a folded record.
	Tx TxID
	// Data records carry the page (or caller-defined object) id, an
	// offset, and one image: Before the undo image of a RecUndo, After
	// the redo image of a RecUpdate or RecImage.
	PID    uint64
	Off    int
	Before []byte
	After  []byte
}

// Handler receives records during recovery: Redo in log order for the
// records redo repeats, Undo in reverse log order for the loser's RecUndo
// records.
type Handler interface {
	Redo(r Record) error
	Undo(r Record) error
}

// RecoveryStats summarizes a Recover run.
type RecoveryStats struct {
	// Records counts the data records scanned: updates, undos, images.
	Records   int
	Committed int
	// Aborted counts transactions with an abort record: their log
	// already contains the compensating operations, so they are redone
	// but not undone.
	Aborted int
	// Losers counts in-flight transactions (neither commit nor abort
	// record): their updates are not redone, and their undo images are
	// rolled back.
	Losers int
	Redone int
	Undone int
	// TornTail reports that the scan stopped inside a flush a crash tore —
	// right behind a record that was not the last of its flush — rather
	// than at the clean end behind a flush's last record. Expected after
	// any mid-flush crash; the torn bytes are overwritten by subsequent
	// appends.
	TornTail bool
}

// Log is a write-ahead log on a region of a simulated NVM device.
type Log struct {
	dev  *nvm.Device
	off  int64
	size int64
	hdr  int64 // device offset of the header line, behind the records

	head      int64 // append position relative to off
	flushedTo int64 // durable prefix relative to off
	last      int64 // start of the last appended record, relative to off
	// written is the extent of the record area written since the last
	// Release, relative to off: what Release hands back.
	written int64

	nextLSN LSN
	nextTx  TxID

	stats Stats
	// unflushedCommits counts commit records appended since the last
	// flush; the next flush makes them all durable at once.
	unflushedCommits int64

	// scratch is the reusable record-encoding buffer: the device copies
	// the payload on WriteAt, so no record survives its append and one
	// buffer serves every Update/mark on the hot path (a Log is
	// single-threaded by contract).
	scratch []byte

	rec *obs.Collector
	clk *simclock.Clock

	faults *fault.Injector

	// durable is the highest LSN the device has flushed; records at or
	// below it survive any crash.
	durable LSN
	// ship, when set, receives every record after the flush that made it
	// durable; pending buffers owned copies between append and flush.
	ship    func([]Record)
	pending []Record
	// retain, when set, returns the lowest LSN not yet handed to the
	// ship hook; Truncate is a counted no-op while that LSN is still
	// resident.
	retain func() LSN

	// reserved is the room held back for the undo records that resTx,
	// the transaction appending now, may still need. One transaction
	// appends at a time; the first data record of another one ends the
	// previous reservation.
	resTx    TxID
	reserved int64

	// open holds the transactions with a record in the log and no commit
	// or abort mark yet: a transaction outside it appends its first one.
	open map[TxID]struct{}
	// held is a transaction's first update record, appended but not yet
	// written. Its commit mark folds into it; anything else that touches
	// the log writes it first as a plain update record (settle).
	held heldUpdate
}

// heldUpdate is an update record Update appended but did not write.
type heldUpdate struct {
	tx    TxID // zero: nothing held
	lsn   LSN
	pid   uint64
	off   int
	after []byte // owned; the buffer is reused by the next hold
}

// SetShip installs the replication tap: after every successful Flush, fn
// receives owned copies (images included) of the records that flush made
// durable, in append order, while the caller of Flush still holds the
// shard's lock. Records appended but crashed before their flush are
// never delivered, so subscribers only ever see the durable prefix. A
// nil fn removes the tap and drops any records buffered for it.
func (l *Log) SetShip(fn func([]Record)) {
	l.ship = fn
	if fn == nil {
		l.pending = nil
	}
}

// SetRetain installs the replication retention watermark: fn returns
// the lowest LSN the log must keep resident — the first record not yet
// handed to the ship hook (shipped records are the replication layer's
// to retain; they never pin the log). Truncate keeps the log intact
// (counting Stats.TruncateSkips) while fn's LSN is at most the highest
// appended LSN. A nil fn removes the guard.
func (l *Log) SetRetain(fn func() LSN) { l.retain = fn }

// DurableLSN returns the highest LSN made durable by a flush; 0 before
// the first flush. Acked transactions have commit LSNs at or below it.
func (l *Log) DurableLSN() LSN { return l.durable }

// SetFaults installs a fault injector: fault.WALAppendError makes
// appends fail with an injected *fault.Error, and fault.WALFlushCrash
// tears the flush of the log tail — a durable prefix of the unflushed
// bytes followed by a fault.Crash panic, the log-device version of a
// power failure between clwbs. A nil injector disables injection.
func (l *Log) SetFaults(in *fault.Injector) { l.faults = in }

// SetRecorder installs an observability collector, charging flush time to
// obs.OpWALFlush (measured on clk, the engine's virtual clock) and
// counting appended records under obs.OpWALAppend. Appends record zero
// latency by design: WriteAt models a store into the CPU cache, and the
// NVM cost is paid at flush time. A nil collector disables recording.
func (l *Log) SetRecorder(r *obs.Collector, clk *simclock.Clock) {
	l.rec = r
	l.clk = clk
}

// Stats counts log activity.
//
// Commits counts transactions whose commit record was appended
// (CommitNoFlush); each becomes durable at the next flush of the tail.
// Flushes counts
// physical tail flushes from any path — commits, aborts, the page
// write-back barrier, and explicit FlushTail calls. Without group commit
// every commit performs its own flush and Commits ≤ Flushes; under group
// commit many commits share one flush and Commits can exceed Flushes
// arbitrarily. The ratio of the two is the amortization factor group
// commit achieves.
type Stats struct {
	Records   int64
	Commits   int64
	Aborts    int64
	Flushes   int64
	Truncates int64
	// TruncateSkips counts Truncate calls refused by the replication
	// retention watermark (SetRetain): a record not yet handed to the
	// ship hook was still resident, so the log was kept.
	TruncateSkips int64
	// Undos counts undo records (AppendUndo), appended because a steal
	// or a page image could expose a change before its commit. They are
	// included in Records.
	Undos int64
	// Folded counts commits written in one record with their transaction's
	// only update. Each is one of Commits and one of Records.
	Folded int64
}

// Add folds other into s, for aggregating per-shard counters.
func (s *Stats) Add(other Stats) {
	s.Records += other.Records
	s.Commits += other.Commits
	s.Aborts += other.Aborts
	s.Flushes += other.Flushes
	s.Truncates += other.Truncates
	s.TruncateSkips += other.TruncateSkips
	s.Undos += other.Undos
	s.Folded += other.Folded
}

// OpsPerFlush returns Commits/Flushes, the average number of committed
// transactions each physical log-tail flush made durable — the
// flush-amortization factor of group commit. It returns 0 when no flush
// has happened. Values below 1 are possible without group commit because
// non-commit paths (aborts, the write-back barrier) also flush.
func (s Stats) OpsPerFlush() float64 {
	if s.Flushes == 0 {
		return 0
	}
	return float64(s.Commits) / float64(s.Flushes)
}

const (
	prefixSize = 8 // size + crc
	lsnHdr     = 1 + 8
	updateHdr  = lsnHdr + 8 + 8 + 4 + 4 + 4
	markHdr    = lsnHdr + 8
	// flushEnd, set in a record's size field, marks the last record of a
	// flush: the rest of its line is the flush's pad, and the log goes on
	// at the next line.
	flushEnd = uint32(1) << 31
)

// lineEnd returns the first line boundary at or after pos.
func lineEnd(pos int64) int64 {
	return (pos + nvm.LineSize - 1) / nvm.LineSize * nvm.LineSize
}

// New creates a log over [off, off+size) of dev. The region is either
// fresh (all zeros) or left over from a previous run; before appending to
// one left over, call Recover, which replays it and restores the LSN floor
// that tells its stale records apart. off must be on a line boundary; a
// partial last line is left unused, and the last whole line is the header.
func New(dev *nvm.Device, off, size int64) *Log {
	if size < 4096 || off%nvm.LineSize != 0 {
		panic(fmt.Sprintf("wal: log region of %d bytes at %d is too small or not line-aligned", size, off))
	}
	size -= size%nvm.LineSize + nvm.LineSize
	return &Log{dev: dev, off: off, size: size, hdr: off + size, nextLSN: 1, nextTx: 1, open: make(map[TxID]struct{})}
}

// Begin starts a transaction. Begin writes nothing: a transaction exists
// in the log only once its first update record does.
func (l *Log) Begin() TxID {
	tx := l.nextTx
	l.nextTx++
	return tx
}

// Update appends the redo record of a change of pid at off: after is the
// redo image, and undo the length of the undo image AppendUndo would log.
// The log reserves room for that record until tx's commit or abort mark,
// so a change that could not be undone fails here with ErrLogFull. The
// record is not durable until Flush, FlushTail or Abort.
//
// The first record of tx is held, not written: if tx's commit mark comes
// next, the two are written as one folded record; anything else that
// touches the log first writes the held one as a plain update record.
// Bytes counts it either way.
func (l *Log) Update(tx TxID, pid uint64, off int, after []byte, undo int) (LSN, error) {
	return l.data(RecUpdate, tx, pid, off, after, undoRoom(undo))
}

// undoRoom is the room an undo record with an undo image of n bytes may
// take: the record and the pad a flush may close it with. Appended at any
// head, it ends the log at most this many bytes further on a line
// boundary.
func undoRoom(n int) int64 { return lineEnd(prefixSize + updateHdr + int64(n)) }

// Image appends the after image of page pid. Recover redoes it whatever
// tx's outcome, once a flush has completed behind it.
func (l *Log) Image(tx TxID, pid uint64, image []byte) (LSN, error) {
	return l.data(RecImage, tx, pid, 0, image, 0)
}

// AppendUndo appends the undo record of an earlier Update of tx: before
// is its undo image. It writes into the room Update reserved, so it cannot
// fail; it is no fault.WALAppendError site, and the ship hook never sees
// it. It panics when tx reserved no room for it, which is a bug in the
// caller.
func (l *Log) AppendUndo(tx TxID, pid uint64, off int, before []byte) LSN {
	n := undoRoom(len(before))
	if tx != l.resTx || n > l.reserved {
		panic(fmt.Sprintf("wal: undo record needing %d bytes for tx %d exceeds its reservation", n, tx))
	}
	l.settle()
	l.reserved -= n
	l.stats.Undos++
	lsn := l.take()
	l.write(l.encode(RecUndo, lsn, tx, pid, off, before, nil))
	return lsn
}

// data appends a data record of kind with its image, after, reserving
// reserve more bytes for tx's undo records. It holds tx's first update
// record.
func (l *Log) data(kind byte, tx TxID, pid uint64, off int, after []byte, reserve int64) (LSN, error) {
	l.settle()
	if tx != l.resTx {
		l.resTx, l.reserved = tx, 0
	}
	if err := l.room(updateHdr+len(after), reserve); err != nil {
		return 0, err
	}
	l.reserved += reserve
	lsn := l.take()
	_, open := l.open[tx]
	if !open {
		l.open[tx] = struct{}{}
	}
	if !open && kind == RecUpdate {
		l.held = heldUpdate{tx: tx, lsn: lsn, pid: pid, off: off, after: append(l.held.after[:0], after...)}
	} else {
		l.write(l.encode(kind, lsn, tx, pid, off, nil, after))
	}
	if l.ship != nil {
		// An owned copy: the caller's image may be overwritten after we
		// return. A held update is shipped here, once, whatever layout it
		// is written in.
		l.pending = append(l.pending, Record{
			Kind: kind, LSN: lsn, Tx: tx, PID: pid, Off: off,
			After: append([]byte(nil), after...),
		})
	}
	return lsn, nil
}

// settle writes the held update record, if any, as a plain one.
func (l *Log) settle() {
	if h := &l.held; h.tx != 0 {
		l.write(l.encode(RecUpdate, h.lsn, h.tx, h.pid, h.off, nil, h.after))
		h.tx = 0
	}
}

// encode lays out a data record in the scratch buffer.
func (l *Log) encode(kind byte, lsn LSN, tx TxID, pid uint64, off int, before, after []byte) []byte {
	nb, na := len(before), len(after)
	payload := l.buf(updateHdr + nb + na)
	payload[0] = kind
	binary.LittleEndian.PutUint64(payload[1:], uint64(lsn))
	binary.LittleEndian.PutUint64(payload[9:], uint64(tx))
	binary.LittleEndian.PutUint64(payload[17:], pid)
	binary.LittleEndian.PutUint32(payload[25:], uint32(off))
	binary.LittleEndian.PutUint32(payload[29:], uint32(nb))
	binary.LittleEndian.PutUint32(payload[33:], uint32(na))
	copy(payload[37:], before)
	copy(payload[37+nb:], after)
	return payload
}

// CommitNoFlush appends a commit record without flushing the log tail.
// The transaction is NOT durable until the next Flush or FlushTail; a
// crash before then loses it, and recovery rolls it back like any loser.
// Callers implementing group commit must therefore not acknowledge the
// transaction before flushing. Counted in Stats.Commits immediately. If
// tx's one update record is still held, the two are written as one folded
// record, which takes the update's LSN and the commit's next to it.
func (l *Log) CommitNoFlush(tx TxID) error {
	if err := l.mark(RecCommit, tx); err != nil {
		return err
	}
	l.unflushedCommits++
	l.stats.Commits++
	return nil
}

// FlushTail flushes the log tail and returns how many commit records the
// flush made durable — the batch size of this group commit. It returns 0
// without flushing when the tail is already durable.
//
// FlushTail is the fault.WALGroupCrash site: when at least one commit is
// pending, an armed injector can crash *before* the flush — the power
// failure between a batch's last commit record and the coalesced persist
// barrier. Every pending commit is torn off the log and recovery rolls
// the transactions back; group-commit callers must not have acknowledged
// them yet.
func (l *Log) FlushTail() int64 {
	n := l.unflushedCommits
	if n > 0 {
		if dec := l.faults.Check(fault.WALGroupCrash); dec.Fire {
			panic(fault.Crash{Kind: fault.WALGroupCrash, Site: "wal.groupflush"})
		}
	}
	l.Flush()
	return n
}

// Abort appends an abort record. The caller must have undone the
// transaction's changes and logged the compensating operations first
// (CLR-style): recovery redoes an aborted transaction's records — original
// operations and compensations, netting out — and never undoes them, so a
// later transaction's changes to the same keys cannot be clobbered.
func (l *Log) Abort(tx TxID) error {
	if err := l.mark(RecAbort, tx); err != nil {
		return err
	}
	l.Flush()
	l.stats.Aborts++
	return nil
}

// buf returns the scratch buffer resized to n bytes.
func (l *Log) buf(n int) []byte {
	if cap(l.scratch) < n {
		l.scratch = make([]byte, n)
	}
	return l.scratch[:n]
}

// mark appends a commit or abort mark, a commit folded into tx's held
// update. The mark ends tx, so it may use tx's undo reservation, which it
// releases; if it fails, tx keeps it and its held update.
func (l *Log) mark(kind byte, tx TxID) error {
	kept := l.reserved
	if tx == l.resTx {
		l.reserved = 0
	}
	fold := kind == RecCommit && l.held.tx == tx
	var payload []byte
	if fold {
		payload = l.encodeFolded()
	} else {
		l.settle()
		payload = l.buf(markHdr)
		payload[0] = kind
		binary.LittleEndian.PutUint64(payload[1:], uint64(l.nextLSN))
		binary.LittleEndian.PutUint64(payload[9:], uint64(tx))
	}
	if err := l.room(len(payload), 0); err != nil {
		l.reserved = kept
		return err
	}
	if fold {
		l.held.tx = 0
		l.stats.Folded++
	}
	lsn := l.take()
	l.write(payload)
	delete(l.open, tx)
	if l.ship != nil {
		l.pending = append(l.pending, Record{Kind: kind, LSN: lsn, Tx: tx})
	}
	return nil
}

// room fails with ErrLogFull unless a record of n payload bytes, the pad
// the next flush may close its line with, and extra more reserved bytes
// fit beside the current reservation. The pad is counted because it would
// come before the reserved undo records. room is also the
// fault.WALAppendError site.
func (l *Log) room(n int, extra int64) error {
	if lineEnd(l.head+int64(prefixSize+n))+l.reserved+extra > l.size {
		return fmt.Errorf("wal: record of %d bytes at offset %d: %w", n, l.head, ErrLogFull)
	}
	if dec := l.faults.Check(fault.WALAppendError); dec.Fire {
		return &fault.Error{Kind: fault.WALAppendError, Site: "wal.append", Attempt: 1, Permanent: dec.Transient <= 0}
	}
	return nil
}

// encodeFolded lays out the held update and its commit as one folded
// record in the scratch buffer: kind, the update's LSN, the uvarint page
// id and offset, then the redo image.
func (l *Log) encodeFolded() []byte {
	h := &l.held
	p := l.buf(lsnHdr + 2*binary.MaxVarintLen64 + len(h.after))[:lsnHdr]
	p[0] = recFolded
	binary.LittleEndian.PutUint64(p[1:], uint64(h.lsn))
	p = binary.AppendUvarint(p, h.pid)
	p = binary.AppendUvarint(p, uint64(h.off))
	return append(p, h.after...)
}

// take hands out the next LSN.
func (l *Log) take() LSN {
	lsn := l.nextLSN
	l.nextLSN++
	return lsn
}

// write appends a length-and-checksum-prefixed record at the head without
// flushing.
func (l *Log) write(payload []byte) {
	l.last = l.head
	var prefix [prefixSize]byte
	binary.LittleEndian.PutUint32(prefix[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(prefix[4:], crc32.ChecksumIEEE(payload))
	l.dev.WriteAt(prefix[:], l.off+l.head)
	l.dev.WriteAt(payload, l.off+l.head+prefixSize)
	l.head += prefixSize + int64(len(payload))
	l.written = max(l.written, l.head)
	if l.rec != nil {
		l.rec.Latency(obs.OpWALAppend, 0)
	}
	l.stats.Records++
}

// Flush makes all appended records durable. On commit this is the paper's
// clwb of the log entry's cache lines followed by an sfence. Apart from
// Truncate's header it is the one place the log's lines reach the device,
// and it applies the line rule: the last record gets the flush-end bit,
// [flushedTo, boundary) is flushed, and the head moves to the boundary.
func (l *Log) Flush() {
	l.settle()
	if l.head == l.flushedTo {
		return
	}
	var size [4]byte
	binary.LittleEndian.PutUint32(size[:], uint32(l.head-l.last-prefixSize)|flushEnd)
	l.dev.WriteAt(size[:], l.off+l.last)
	end := lineEnd(l.head)
	n := end - l.flushedTo
	torn := l.faults.Check(fault.WALFlushCrash)
	if torn.Fire {
		// Tear the flush: the lines holding a prefix of the unflushed
		// records reach the medium, then the power fails. Recover sees the
		// durable prefix (whole records replay; a record cut by the tear
		// fails its CRC) and treats the rest as torn tail.
		n = int64(torn.Frac * float64(l.head-l.flushedTo))
	}
	var t0 int64
	if l.rec != nil {
		t0 = l.clk.Ns()
	}
	l.dev.Flush(l.off+l.flushedTo, int(n))
	if torn.Fire {
		panic(fault.Crash{Kind: fault.WALFlushCrash, Site: "wal.flush"})
	}
	if l.rec != nil {
		l.rec.Latency(obs.OpWALFlush, l.clk.Ns()-t0)
		if l.unflushedCommits > 0 {
			// The ops-per-flush distribution: value is a commit count,
			// not nanoseconds (see obs.OpWALBatch).
			l.rec.Latency(obs.OpWALBatch, l.unflushedCommits)
		}
	}
	l.unflushedCommits = 0
	l.head, l.flushedTo = end, end
	l.stats.Flushes++
	l.durable = l.nextLSN - 1
	if l.ship != nil && len(l.pending) > 0 {
		batch := l.pending
		l.pending = nil
		l.ship(batch)
	}
}

// Truncate discards the whole log and returns the highest LSN it
// discarded (the LSNs keep counting up afterwards). Its one device write
// persists that LSN in the header line as the floor Recover starts from,
// so no record left in the region can pass for a later one. Callers — the
// engine's full checkpoint, the incremental-maintenance drain when the
// page pool comes up clean, the NVM-direct commit path — must guarantee
// that every logged change is durable elsewhere first. When a retention
// watermark is installed (SetRetain) and a record not yet handed to the
// ship hook is still resident, Truncate keeps the log, increments
// Stats.TruncateSkips, and returns 0; the zero return is how the
// maintenance path learns the drain was refused and must retry later.
func (l *Log) Truncate() LSN {
	l.settle()
	if l.retain != nil {
		if keep := l.retain(); keep < l.nextLSN {
			l.stats.TruncateSkips++
			return 0
		}
	}
	var floor [8]byte
	binary.LittleEndian.PutUint64(floor[:], uint64(l.nextLSN-1))
	l.dev.Persist(floor[:], l.hdr)
	l.head = 0
	l.flushedTo = 0
	l.unflushedCommits = 0
	l.pending = nil
	l.stats.Truncates++
	return l.nextLSN - 1
}

// Release hands the host pages of the record area written since the last
// Release back to the device (nvm.Device.Release), so they stop being
// resident: the engine's full checkpoint calls it once Truncate has cut
// the log. It does nothing while the log holds a record — a truncation the
// retention watermark refused releases nothing. The released lines read
// as zeros, which Recover takes for the end of the log, and the header
// line behind the record area keeps the LSN floor. It fails only if the
// area holds a line appended and not flushed, which the device refuses to
// drop.
func (l *Log) Release() error {
	if l.Bytes() != 0 {
		return nil
	}
	// Bytes behind the written extent are zeros already: never written,
	// or released last time. The extent's last host page goes too, unless
	// it holds the header line.
	end := min((l.off+l.written+nvm.HostPage-1)/nvm.HostPage*nvm.HostPage, l.hdr)
	if err := l.dev.Release(l.off, int(end-l.off)); err != nil {
		return err
	}
	l.written = 0
	return nil
}

// Bytes returns the current size of the log contents, a held update record
// counted as the plain one it may still become.
func (l *Log) Bytes() int64 {
	if l.held.tx != 0 {
		return l.head + prefixSize + updateHdr + int64(len(l.held.after))
	}
	return l.head
}

// Capacity returns the room for records: the region less its header line.
func (l *Log) Capacity() int64 { return l.size }

// Fits reports whether one transaction of image records of the given
// lengths and its commit mark fit beside the current reservation, so a
// caller that must append them all or none can ask before the first.
func (l *Log) Fits(images ...int) bool {
	end := l.Bytes() + prefixSize + markHdr
	for _, n := range images {
		end += prefixSize + updateHdr + int64(n)
	}
	return lineEnd(end)+l.reserved <= l.size
}

// Stats returns a snapshot of the activity counters.
func (l *Log) Stats() Stats { return l.stats }

// Recover scans the log, applies the package's recovery rule — redo
// through h.Redo in log order for every record of a committed or aborted
// transaction and every page image of a completed flush, then h.Undo in
// reverse log order for the loser's undo images, while the loser's update
// records are skipped — and positions the log for new appends after the
// scanned records. The scan starts from the LSN floor in the header, goes
// on at the next line behind a record with the flush-end bit, and stops at
// the first position holding no record of the current generation: zeros,
// a size outside the region, a checksum mismatch, or a stale record. A
// torn record can only belong to a transaction whose commit record was
// never flushed.
//
// Nothing marks the end of the log: the region is not erased on Truncate,
// so the line behind the last flush holds zeros (as all of it does after
// a Release), a complete CRC-valid record of an earlier log generation,
// or garbage, and a crash can tear a flush at any line boundary. A stop
// behind a flush-end record, or before any record, is the clean end; a
// stop behind any other record is a torn tail. Two rules keep stale bytes
// and garbage apart from the log, and the scan stops (rather than failing)
// only when the end-of-log explanation holds:
//
//   - LSNs are strictly monotonic in append order and survive truncation
//     and recovery (the header's floor), so a CRC-valid record whose LSN
//     does not exceed the floor and every LSN before it must be stale:
//     the end of the log, stop.
//   - A CRC-valid record with an unknown type byte (or an impossible
//     size) was never written by this WAL. If a valid successor record
//     follows it, the bytes sit *mid-log* where no crash can place
//     garbage — that is true corruption and recovery fails loudly
//     instead of silently dropping committed records. With no valid
//     successor it is the last blob before the durable frontier, where
//     accidental CRC coincidences on torn or stale bytes are the only
//     remaining explanation: the end of the log, stop.
func (l *Log) Recover(h Handler) (RecoveryStats, error) {
	var floor [8]byte
	l.dev.ReadAt(floor[:], l.hdr)
	var (
		records   []Record
		committed = make(map[TxID]bool)
		aborted   = make(map[TxID]bool)
		seen      = make(map[TxID]bool)
		stats     RecoveryStats
		pos       int64
		maxLSN    = LSN(binary.LittleEndian.Uint64(floor[:]))
		maxTx     TxID
		// flushed: the scan stands behind the last record of a flush, or
		// before any record, where a stop is the clean end.
		flushed = true
		// complete: how many of records lie in completed flushes.
		complete int
	)
	for {
		size, payload, ok := l.record(pos)
		if !ok {
			break
		}
		next := pos + prefixSize + int64(len(payload))
		if size&flushEnd != 0 {
			next = lineEnd(next)
		}
		r, ok := decode(payload)
		if !ok {
			if l.validSuccessor(next, maxLSN) {
				return stats, fmt.Errorf("wal: corrupt record (type %d, %d bytes) mid-log at %d", payload[0], len(payload), pos)
			}
			break
		}
		if r.LSN <= maxLSN {
			// Stale: a record from before the last truncation, in a line
			// the current generation has not reached or a crash lost.
			break
		}
		maxLSN = r.LSN
		switch r.Kind {
		case RecCommit:
			committed[r.Tx] = true
		case RecAbort:
			aborted[r.Tx] = true
		case recFolded:
			// A committed update: its commit is the next LSN.
			r.Kind = RecUpdate
			maxLSN++
			stats.Committed++
			records = append(records, r)
		default:
			records = append(records, r)
		}
		if r.Tx != 0 {
			seen[r.Tx] = true
			maxTx = max(maxTx, r.Tx)
		}
		pos, flushed = next, size&flushEnd != 0
		if flushed {
			complete = len(records)
		}
	}
	stats.TornTail = !flushed

	stats.Records = len(records)
	for tx := range seen {
		switch {
		case committed[tx]:
			stats.Committed++
		case aborted[tx]:
			stats.Aborted++
		default:
			stats.Losers++
		}
	}

	// Redo: repeat the history of every transaction that ended — an
	// aborted one's compensations net its changes out — plus every page
	// image of a completed flush. The loser's changes are skipped: none of
	// their bytes reached persistent storage unless an undo image below
	// covers them. A folded record carries no transaction id: it holds its
	// own commit.
	ended := func(tx TxID) bool { return tx == 0 || committed[tx] || aborted[tx] }
	for i, r := range records {
		if r.Kind == RecUndo || r.Kind == RecUpdate && !ended(r.Tx) || r.Kind == RecImage && i >= complete {
			continue
		}
		if err := h.Redo(r); err != nil {
			return stats, fmt.Errorf("wal: redo lsn %d: %w", r.LSN, err)
		}
		stats.Redone++
	}
	// Undo: roll the loser's undo records back in reverse log order.
	for i := len(records) - 1; i >= 0; i-- {
		r := records[i]
		if ended(r.Tx) || r.Kind != RecUndo {
			continue
		}
		if err := h.Undo(r); err != nil {
			return stats, fmt.Errorf("wal: undo lsn %d: %w", r.LSN, err)
		}
		stats.Undone++
	}

	l.head = pos
	l.flushedTo = pos
	// Earlier runs may have written anywhere in the record area.
	l.written = l.size
	l.unflushedCommits = 0
	l.pending = nil // never-shipped appends died with the crash
	l.resTx, l.reserved = 0, 0
	l.held.tx = 0
	clear(l.open)
	l.nextLSN = maxLSN + 1
	l.nextTx = maxTx + 1
	l.durable = maxLSN
	return stats, nil
}

// validSuccessor reports whether a well-formed record of the current log
// generation (valid CRC, decodable, LSN past maxLSN) starts at pos. A
// valid successor proves that the bytes *before* pos sit mid-log, which
// rules out the end-of-log explanation for them: crashes only damage the
// frontier of the durable prefix, never bytes the log appended over.
func (l *Log) validSuccessor(pos int64, maxLSN LSN) bool {
	_, payload, ok := l.record(pos)
	if !ok {
		return false
	}
	r, ok := decode(payload)
	return ok && r.LSN > maxLSN
}

// decode parses a record's payload; its images alias the payload. ok is
// false unless the payload is a record this log writes: a known kind and
// a size that matches its layout. A folded record comes back with Kind
// recFolded and no Tx.
func decode(p []byte) (r Record, ok bool) {
	if len(p) < lsnHdr || p[0] < RecUpdate || p[0] > recFolded {
		return r, false
	}
	r.Kind, r.LSN = p[0], LSN(binary.LittleEndian.Uint64(p[1:]))
	switch r.Kind {
	case recFolded:
		pid, n := binary.Uvarint(p[lsnHdr:])
		if n <= 0 {
			return r, false
		}
		off, m := binary.Uvarint(p[lsnHdr+n:])
		if m <= 0 {
			return r, false
		}
		r.PID, r.Off, r.After = pid, int(off), p[lsnHdr+n+m:]
		return r, true
	case RecCommit, RecAbort:
		if len(p) < markHdr {
			return r, false
		}
		r.Tx = TxID(binary.LittleEndian.Uint64(p[9:]))
		return r, true
	}
	if len(p) < updateHdr {
		return r, false
	}
	nb := int(binary.LittleEndian.Uint32(p[29:]))
	na := int(binary.LittleEndian.Uint32(p[33:]))
	if updateHdr+nb+na != len(p) {
		return r, false
	}
	r.Tx = TxID(binary.LittleEndian.Uint64(p[9:]))
	r.PID = binary.LittleEndian.Uint64(p[17:])
	r.Off = int(binary.LittleEndian.Uint32(p[25:]))
	r.Before, r.After = p[updateHdr:updateHdr+nb], p[updateHdr+nb:]
	return r, true
}

// record reads the record at pos: its size field, flush-end bit included,
// and its payload. ok is false unless pos holds a nonempty record inside
// the region whose checksum matches.
func (l *Log) record(pos int64) (size uint32, payload []byte, ok bool) {
	if pos+prefixSize > l.size {
		return 0, nil, false
	}
	var prefix [prefixSize]byte
	l.dev.ReadAt(prefix[:], l.off+pos)
	size = binary.LittleEndian.Uint32(prefix[0:])
	n := int64(size &^ flushEnd)
	if n == 0 || pos+prefixSize+n > l.size {
		return 0, nil, false
	}
	payload = make([]byte, n)
	l.dev.ReadAt(payload, l.off+pos+prefixSize)
	return size, payload, crc32.ChecksumIEEE(payload) == binary.LittleEndian.Uint32(prefix[4:])
}
