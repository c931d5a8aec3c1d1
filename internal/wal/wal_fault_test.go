package wal

import (
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"

	"nvmstore/internal/fault"
	"nvmstore/internal/nvm"
)

// staleImages returns before/after images sized so that a whole inline
// record (prefix + payload) is exactly one 64-byte cache line: 8 + 37 + 9
// + 10. Inline records carry their undo, so a loser's is handed to Undo.
// Records then start and end on line boundaries, which is the geometry
// that lets a torn flush lose a sentinel line while keeping the record.
func staleImages() (before, after []byte) {
	return make([]byte, 9), make([]byte, 10)
}

// TestStaleRecordAfterTornFlushDetected reproduces the nastiest torn
// tail: after a truncation, a new record is appended over the old log
// and its lines are flushed, but the crash loses the line holding its
// trailing sentinel. The scan position then lands exactly on a complete,
// CRC-valid record of the *previous* generation. Recovery must not
// replay it — its stale LSN gives it away.
func TestStaleRecordAfterTornFlushDetected(t *testing.T) {
	l, dev := newTestLog(t, true)
	before, after := staleImages()

	// Generation 1: two one-line update records plus a commit mark, all
	// durable. LSNs 1, 2, 3.
	t1 := l.Begin()
	for i := 0; i < 2; i++ {
		if _, err := l.UpdateInline(t1, uint64(i+1), 0, before, after); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Commit(t1); err != nil {
		t.Fatal(err)
	}
	l.Truncate()

	// Generation 2: one update record (LSN 4) over [0, 64). Its
	// sentinel lives in the next line — the line still holding
	// generation 1's second record. Tear the flush: persist the
	// record's line only, then power-fail.
	t2 := l.Begin()
	if _, err := l.UpdateInline(t2, 9, 0, before, after); err != nil {
		t.Fatal(err)
	}
	dev.Flush(0, 64)
	dev.Crash()

	var got []Record
	l2 := New(dev, 0, 1<<16)
	st, err := l2.Recover(recorderHandler{&got})
	if err != nil {
		t.Fatal(err)
	}
	if !st.TornTail {
		t.Fatal("stale record not flagged as torn tail")
	}
	// Only the generation-2 record replays; the stale generation-1
	// record at the scan position (LSN 2 ≤ 4) must be dropped.
	if len(got) != 1 || got[0].LSN != 4 || got[0].PID != 9 {
		t.Fatalf("replayed %+v, want only the LSN-4 record", got)
	}
	if st.Losers != 1 {
		t.Fatalf("stats = %+v, want the torn tx as loser", st)
	}
}

// rewriteKind corrupts the type byte of the record at pos and fixes up
// its CRC so the corruption is not detectable by checksum.
func rewriteKind(dev *nvm.Device, pos int64, kind byte) {
	var prefix [prefixSize]byte
	dev.ReadAt(prefix[:], pos)
	n := int(binary.LittleEndian.Uint32(prefix[0:]))
	payload := make([]byte, n)
	dev.ReadAt(payload, pos+prefixSize)
	payload[0] = kind
	binary.LittleEndian.PutUint32(prefix[4:], crc32.ChecksumIEEE(payload))
	dev.Persist(payload[:1], pos+prefixSize)
	dev.Persist(prefix[:], pos)
}

// TestUnknownTypeMidLogIsCorruption: a CRC-valid record with an unknown
// type byte followed by a valid successor cannot be a torn tail —
// crashes only damage the durable frontier. Recovery must fail loudly
// rather than silently drop the corrupt record and everything after it.
func TestUnknownTypeMidLogIsCorruption(t *testing.T) {
	l, dev := newTestLog(t, false)
	before, after := staleImages()
	tx := l.Begin()
	if _, err := l.UpdateInline(tx, 1, 0, before, after); err != nil {
		t.Fatal(err)
	}
	if _, err := l.UpdateInline(tx, 2, 0, before, after); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(tx); err != nil {
		t.Fatal(err)
	}
	rewriteKind(dev, 0, 99)

	l2 := New(dev, 0, 1<<16)
	_, err := l2.Recover(newMemHandler())
	if err == nil || !strings.Contains(err.Error(), "corrupt record") {
		t.Fatalf("err = %v, want mid-log corruption error", err)
	}
}

// TestUnknownTypeAtTailIsTorn: the same unknown-type blob with nothing
// valid after it is explainable as torn-tail bytes whose CRC happens to
// match; the scan stops there instead of failing recovery.
func TestUnknownTypeAtTailIsTorn(t *testing.T) {
	l, dev := newTestLog(t, false)
	before, after := staleImages()
	tx := l.Begin()
	if _, err := l.UpdateInline(tx, 1, 0, before, after); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(tx); err != nil {
		t.Fatal(err)
	}
	// Corrupt the *last* record (the commit mark) — nothing follows it.
	commitPos := int64(64) // record 1 occupies [0, 64)
	rewriteKind(dev, commitPos, 77)

	var got []Record
	l2 := New(dev, 0, 1<<16)
	st, err := l2.Recover(recorderHandler{&got})
	if err != nil {
		t.Fatal(err)
	}
	if !st.TornTail {
		t.Fatal("unknown-type tail not flagged torn")
	}
	// The update survives but its commit mark is gone: loser, undone.
	if len(got) != 1 || st.Losers != 1 {
		t.Fatalf("records=%d stats=%+v, want 1 record and 1 loser", len(got), st)
	}
}

// TestInjectedFlushCrashRecovers: an injected torn WAL flush
// (fault.WALFlushCrash) panics mid-commit; after the power failure the
// transaction must recover as either fully committed or fully absent.
func TestInjectedFlushCrashRecovers(t *testing.T) {
	l, dev := newTestLog(t, true)
	plan := &fault.Plan{Seed: 11, Rules: []fault.Rule{{Kind: fault.WALFlushCrash, EveryN: 1, Limit: 1}}}
	l.SetFaults(plan.Injector(0))

	tx := l.Begin()
	if _, err := l.Update(tx, 1, 0, []byte("bbbb"), 4); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if _, ok := fault.AsCrash(recover()); !ok {
				t.Fatal("commit did not crash")
			}
		}()
		_ = l.Commit(tx)
	}()
	dev.Crash()

	h := newMemHandler()
	copy(h.page(1), "aaaa")
	l2 := New(dev, 0, 1<<16)
	st, err := l2.Recover(h)
	if err != nil {
		t.Fatal(err)
	}
	if st.Committed != 0 && string(h.page(1)[:4]) != "bbbb" {
		t.Fatalf("commit counted but not replayed: %+v", st)
	}
	if st.Committed == 0 && string(h.page(1)[:4]) != "aaaa" {
		t.Fatalf("uncommitted tx leaked: page=%q stats=%+v", h.page(1)[:4], st)
	}
}

// TestInjectedAppendError: fault.WALAppendError surfaces as a
// classifiable *fault.Error without advancing the log.
func TestInjectedAppendError(t *testing.T) {
	l, _ := newTestLog(t, false)
	plan := &fault.Plan{Seed: 3, Rules: []fault.Rule{{Kind: fault.WALAppendError, EveryN: 1, Limit: 1, Transient: 1}}}
	l.SetFaults(plan.Injector(0))

	tx := l.Begin()
	_, err := l.Update(tx, 1, 0, []byte("y"), 1)
	if err == nil {
		t.Fatal("append did not fail")
	}
	if fault.Classify(err) != fault.ClassTransient {
		t.Fatalf("err %v classified fatal, want transient", err)
	}
	if l.Bytes() != 0 {
		t.Fatalf("failed append advanced the log to %d bytes", l.Bytes())
	}
	// The limit is spent: the retry succeeds.
	if _, err := l.Update(tx, 1, 0, []byte("y"), 1); err != nil {
		t.Fatal(err)
	}
}
