package wal

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"nvmstore/internal/fault"
	"nvmstore/internal/nvm"
	"nvmstore/internal/simclock"
)

// memHandler replays records against an in-memory set of pages. Its
// per-page LSN skips a redo the page already holds; the log itself never
// asks for that (redo is unconditional), it only hands every record its
// LSN.
type memHandler struct {
	pages map[uint64][]byte
	lsn   map[uint64]LSN
}

func newMemHandler() *memHandler {
	return &memHandler{pages: make(map[uint64][]byte), lsn: make(map[uint64]LSN)}
}

func (h *memHandler) page(pid uint64) []byte {
	p, ok := h.pages[pid]
	if !ok {
		p = make([]byte, 256)
		h.pages[pid] = p
	}
	return p
}

func (h *memHandler) Redo(r Record) error {
	if r.LSN <= h.lsn[r.PID] {
		return nil
	}
	copy(h.page(r.PID)[r.Off:], r.After)
	h.lsn[r.PID] = r.LSN
	return nil
}

func (h *memHandler) Undo(r Record) error {
	copy(h.page(r.PID)[r.Off:], r.Before)
	return nil
}

func newTestLog(t *testing.T, strict bool) (*Log, *nvm.Device) {
	if t != nil {
		t.Helper()
	}
	clk := &simclock.Clock{}
	dev := nvm.New(nvm.Config{
		Size:              1 << 20,
		ReadLatency:       500 * time.Nanosecond,
		WriteLatency:      500 * time.Nanosecond,
		LineTransfer:      5 * time.Nanosecond,
		StrictPersistence: strict,
	}, clk)
	return New(dev, 0, 1<<16), dev
}

// commit appends tx's commit mark and flushes the tail, as a commit
// that is acknowledged alone does.
func commit(l *Log, tx TxID) error {
	if err := l.CommitNoFlush(tx); err != nil {
		return err
	}
	l.Flush()
	return nil
}

func TestCommittedTransactionRecovers(t *testing.T) {
	l, _ := newTestLog(t, false)
	tx := l.Begin()
	if _, err := l.Update(tx, 1, 10, []byte("new!"), 4); err != nil {
		t.Fatal(err)
	}
	if err := commit(l, tx); err != nil {
		t.Fatal(err)
	}

	h := newMemHandler()
	copy(h.page(1)[10:], "old!")
	st, err := l.Recover(h)
	if err != nil {
		t.Fatal(err)
	}
	if st.Committed != 1 || st.Losers != 0 || st.Redone != 1 || st.Undone != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if got := string(h.page(1)[10:14]); got != "new!" {
		t.Fatalf("page content = %q, want new!", got)
	}
}

func TestLoserTransactionRolledBack(t *testing.T) {
	l, _ := newTestLog(t, false)
	tx := l.Begin()
	if _, err := l.Update(tx, 1, 0, []byte("BBBB"), 4); err != nil {
		t.Fatal(err)
	}
	// The page is stolen before the commit: its undo goes first.
	l.AppendUndo(tx, 1, 0, []byte("AAAA"))
	l.Flush() // durable but never committed

	h := newMemHandler()
	copy(h.page(1), "BBBB") // the stolen page
	st, err := l.Recover(h)
	if err != nil {
		t.Fatal(err)
	}
	if st.Losers != 1 || st.Undone != 1 || st.Redone != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if got := string(h.page(1)[:4]); got != "AAAA" {
		t.Fatalf("page content = %q, want AAAA", got)
	}
}

func TestInterleavedTransactions(t *testing.T) {
	l, _ := newTestLog(t, false)
	t1 := l.Begin()
	t2 := l.Begin()
	// t1 and t2 interleave on different pages; t1 commits, t2 does not.
	// t2's page was never stolen, so it has no undo and is not redone.
	if _, err := l.Update(t1, 1, 0, []byte("X"), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Update(t2, 2, 0, []byte("Y"), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Update(t1, 1, 1, []byte("Z"), 1); err != nil {
		t.Fatal(err)
	}
	if err := commit(l, t1); err != nil {
		t.Fatal(err)
	}

	h := newMemHandler()
	copy(h.page(1), "ac")
	copy(h.page(2), "b")
	st, err := l.Recover(h)
	if err != nil {
		t.Fatal(err)
	}
	if st.Committed != 1 || st.Losers != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if got := string(h.page(1)[:2]); got != "XZ" {
		t.Fatalf("page 1 = %q, want XZ", got)
	}
	if got := string(h.page(2)[:1]); got != "b" {
		t.Fatalf("page 2 = %q, want b (rolled back)", got)
	}
}

func TestAbortedTransactionNotUndone(t *testing.T) {
	// An aborted transaction logs its compensations before the abort
	// record (CLR-style); recovery redoes everything and skips undo.
	l, _ := newTestLog(t, false)
	tx := l.Begin()
	if _, err := l.Update(tx, 3, 0, []byte("no"), 2); err != nil {
		t.Fatal(err)
	}
	// The compensation restoring the old value.
	if _, err := l.Update(tx, 3, 0, []byte("ok"), 2); err != nil {
		t.Fatal(err)
	}
	if err := l.Abort(tx); err != nil {
		t.Fatal(err)
	}
	h := newMemHandler()
	copy(h.page(3), "ok")
	st, err := l.Recover(h)
	if err != nil {
		t.Fatal(err)
	}
	if st.Aborted != 1 || st.Losers != 0 || st.Undone != 0 || st.Redone != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if got := string(h.page(3)[:2]); got != "ok" {
		t.Fatalf("page = %q, want ok", got)
	}
}

func TestTornTailIgnored(t *testing.T) {
	l, dev := newTestLog(t, true)
	t1 := l.Begin()
	if _, err := l.Update(t1, 1, 0, []byte("B"), 1); err != nil {
		t.Fatal(err)
	}
	if err := commit(l, t1); err != nil {
		t.Fatal(err)
	}
	// A second update is appended but never flushed; the crash tears it.
	t2 := l.Begin()
	if _, err := l.Update(t2, 1, 0, []byte("C"), 1); err != nil {
		t.Fatal(err)
	}
	dev.Crash()

	h := newMemHandler()
	copy(h.page(1), "a")
	st, err := l.Recover(h)
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 1 {
		t.Fatalf("recovered %d records, want 1 (torn tail dropped)", st.Records)
	}
	if got := string(h.page(1)[:1]); got != "B" {
		t.Fatalf("page = %q, want B", got)
	}
}

// TestRecoverPositionsLogForAppends: after recovery the next tx id exceeds
// every tx id in the log, the next LSN every LSN in it, and appends go
// behind the old records. A folded record carries no tx id, so the id of
// the one-update transaction at the end may come back.
func TestRecoverPositionsLogForAppends(t *testing.T) {
	l, dev := newTestLog(t, false)
	t1 := l.Begin()
	for _, v := range []string{"w", "x"} {
		if _, err := l.Update(t1, 1, 0, []byte(v), 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := commit(l, t1); err != nil {
		t.Fatal(err)
	}
	folded := l.Begin()
	if _, err := l.Update(folded, 1, 0, []byte("y"), 1); err != nil {
		t.Fatal(err)
	}
	if err := commit(l, folded); err != nil {
		t.Fatal(err)
	}

	// A second log object over the same region (a "restart").
	l2 := New(dev, 0, 1<<16)
	if _, err := l2.Recover(newMemHandler()); err != nil {
		t.Fatal(err)
	}
	t2 := l2.Begin()
	if t2 <= t1 {
		t.Fatalf("tx id after recovery = %d, want > %d", t2, t1)
	}
	lsn, err := l2.Update(t2, 1, 0, []byte("z"), 1)
	if err != nil {
		t.Fatal(err)
	}
	// LSNs 1 to 3 are t1's, 4 and 5 the folded update and its commit.
	if lsn != 6 {
		t.Fatalf("lsn after recovery = %d, want 6", lsn)
	}
	if err := commit(l2, t2); err != nil {
		t.Fatal(err)
	}
	h := newMemHandler()
	copy(h.page(1), "x")
	l3 := New(dev, 0, 1<<16)
	if _, err := l3.Recover(h); err != nil {
		t.Fatal(err)
	}
	if got := string(h.page(1)[:1]); got != "z" {
		t.Fatalf("page = %q, want z", got)
	}
}

func TestTruncate(t *testing.T) {
	l, _ := newTestLog(t, false)
	tx := l.Begin()
	if _, err := l.Update(tx, 1, 0, []byte("r"), 1); err != nil {
		t.Fatal(err)
	}
	if err := commit(l, tx); err != nil {
		t.Fatal(err)
	}
	l.Truncate()
	if l.Bytes() != 0 {
		t.Fatalf("Bytes() after truncate = %d", l.Bytes())
	}
	st, err := l.Recover(newMemHandler())
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 0 {
		t.Fatalf("records after truncate = %d, want 0", st.Records)
	}
}

func TestTruncateRetentionWatermark(t *testing.T) {
	l, _ := newTestLog(t, false)
	var keep LSN
	l.SetRetain(func() LSN { return keep })

	tx := l.Begin()
	if _, err := l.Update(tx, 1, 0, []byte("r"), 1); err != nil {
		t.Fatal(err)
	}
	if err := commit(l, tx); err != nil {
		t.Fatal(err)
	}
	l.Flush()

	// A resident record at or above the watermark (not yet handed to the
	// ship hook) pins the log: Truncate is a counted no-op.
	keep = l.DurableLSN()
	if got := l.Truncate(); got != 0 {
		t.Fatalf("Truncate under watermark returned %d, want 0", got)
	}
	if l.Bytes() == 0 || l.Stats().TruncateSkips != 1 {
		t.Fatalf("log not kept under watermark: bytes=%d stats=%+v", l.Bytes(), l.Stats())
	}

	// Watermark past the head — everything shipped — and truncation
	// proceeds.
	keep = l.DurableLSN() + 1
	if got := l.Truncate(); got != l.DurableLSN() {
		t.Fatalf("Truncate past watermark returned %d, want %d", got, l.DurableLSN())
	}
	if l.Bytes() != 0 || l.Stats().Truncates != 1 {
		t.Fatalf("log not truncated past watermark: bytes=%d stats=%+v", l.Bytes(), l.Stats())
	}

	// A nil fn removes the guard entirely.
	l.SetRetain(nil)
	tx2 := l.Begin()
	if _, err := l.Update(tx2, 1, 0, []byte("s"), 1); err != nil {
		t.Fatal(err)
	}
	if err := commit(l, tx2); err != nil {
		t.Fatal(err)
	}
	l.Flush()
	if got := l.Truncate(); got == 0 {
		t.Fatal("Truncate with the guard removed refused")
	}
}

func TestLogFull(t *testing.T) {
	clk := &simclock.Clock{}
	dev := nvm.New(nvm.Config{Size: 1 << 20, ReadLatency: 1, WriteLatency: 1, LineTransfer: 1}, clk)
	l := New(dev, 0, 4096)
	tx := l.Begin()
	img := make([]byte, 256)
	var err error
	for i := 0; i < 100; i++ {
		if _, err = l.Update(tx, 1, 0, img, len(img)); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrLogFull) {
		t.Fatalf("err = %v, want ErrLogFull", err)
	}
	// After truncation, appends work again.
	l.Truncate()
	if _, err := l.Update(l.Begin(), 1, 0, img, len(img)); err != nil {
		t.Fatal(err)
	}
}

// TestFitsIsExact: a transaction of image records and its commit mark
// append without ErrLogFull exactly when Fits says they fit. The last
// image grows a byte at a time across the end of the log, behind heads
// that an unflushed update of a few sizes leaves.
func TestFitsIsExact(t *testing.T) {
	for _, head := range []int{0, 1, 100} {
		var fit, full bool
		for n := 1500; n < 2500; n++ {
			dev := nvm.New(nvm.Config{Size: 1 << 14, ReadLatency: 1, WriteLatency: 1, LineTransfer: 1}, &simclock.Clock{})
			l := New(dev, 0, 8192)
			if head > 0 {
				tx := l.Begin()
				if _, err := l.Update(tx, 1, 0, make([]byte, head), 0); err != nil {
					t.Fatal(err)
				}
				if err := l.CommitNoFlush(tx); err != nil {
					t.Fatal(err)
				}
			}
			sizes := []int{3000, 3000, n}
			fits := l.Fits(sizes...)
			tx := l.Begin()
			var err error
			for _, size := range sizes {
				if _, err = l.Image(tx, 2, make([]byte, size)); err != nil {
					break
				}
			}
			if err == nil {
				err = commit(l, tx)
			}
			if fits != (err == nil) || err != nil && !errors.Is(err, ErrLogFull) {
				t.Fatalf("head %d, last image %d bytes: Fits = %v, append: %v", head, n, fits, err)
			}
			fit, full = fit || fits, full || !fits
		}
		if !fit || !full {
			t.Fatalf("head %d: the last image never crossed the end of the log", head)
		}
	}
}

func TestRedoIsIdempotentViaPageLSN(t *testing.T) {
	l, _ := newTestLog(t, false)
	tx := l.Begin()
	if _, err := l.Update(tx, 1, 0, []byte{1}, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Update(tx, 1, 0, []byte{2}, 1); err != nil {
		t.Fatal(err)
	}
	if err := commit(l, tx); err != nil {
		t.Fatal(err)
	}
	h := newMemHandler()
	// The page already saw the first record (LSN 1) before the crash.
	h.page(1)[0] = 1
	h.lsn[1] = 1
	if _, err := l.Recover(h); err != nil {
		t.Fatal(err)
	}
	if h.page(1)[0] != 2 {
		t.Fatalf("page byte = %d, want 2", h.page(1)[0])
	}
}

func TestCommitFlushesDurably(t *testing.T) {
	l, dev := newTestLog(t, true)
	tx := l.Begin()
	if _, err := l.Update(tx, 1, 0, []byte("v"), 1); err != nil {
		t.Fatal(err)
	}
	if err := commit(l, tx); err != nil {
		t.Fatal(err)
	}
	dev.Crash() // commit must survive

	h := newMemHandler()
	copy(h.page(1), "u")
	st, err := l.Recover(h)
	if err != nil {
		t.Fatal(err)
	}
	if st.Committed != 1 {
		t.Fatalf("committed = %d, want 1", st.Committed)
	}
	if got := string(h.page(1)[:1]); got != "v" {
		t.Fatalf("page = %q, want v", got)
	}
}

func TestDifferingImageLengths(t *testing.T) {
	// An update record has no before image; an undo record has no after
	// image. t1 commits its update, t2 loses with its undo in the log.
	l, _ := newTestLog(t, false)
	t1, t2 := l.Begin(), l.Begin()
	if _, err := l.Update(t1, 1, 0, []byte("inserted"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Update(t2, 2, 0, nil, len("deleted")); err != nil {
		t.Fatal(err)
	}
	l.AppendUndo(t2, 2, 0, []byte("deleted"))
	if err := commit(l, t1); err != nil {
		t.Fatal(err)
	}
	var got []Record
	rec := recorderHandler{&got}
	if _, err := l.Recover(rec); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("recovered %d records", len(got))
	}
	if len(got[0].Before) != 0 || string(got[0].After) != "inserted" {
		t.Fatalf("record 0 = %q/%q", got[0].Before, got[0].After)
	}
	if string(got[1].Before) != "deleted" || len(got[1].After) != 0 {
		t.Fatalf("record 1 = %q/%q", got[1].Before, got[1].After)
	}
}

// recorderHandler captures the records handed to Redo and Undo, in call
// order.
type recorderHandler struct{ out *[]Record }

func (r recorderHandler) Redo(rec Record) error {
	cp := rec
	cp.Before = append([]byte(nil), rec.Before...)
	cp.After = append([]byte(nil), rec.After...)
	*r.out = append(*r.out, cp)
	return nil
}
func (r recorderHandler) Undo(rec Record) error { return r.Redo(rec) }

func TestRecordImagesAreCopies(t *testing.T) {
	l, _ := newTestLog(t, false)
	tx := l.Begin()
	buf := []byte("live")
	if _, err := l.Update(tx, 1, 0, buf, len(buf)); err != nil {
		t.Fatal(err)
	}
	copy(buf, "dead") // caller reuses its buffer
	if err := commit(l, tx); err != nil {
		t.Fatal(err)
	}
	h := newMemHandler()
	if _, err := l.Recover(h); err != nil {
		t.Fatal(err)
	}
	if got := h.page(1)[:4]; !bytes.Equal(got, []byte("live")) {
		t.Fatalf("after image = %q, want live", got)
	}
}

// TestQuickRandomHistories property-checks recovery: for random
// transaction histories with random commit/abort/steal steps and a final
// transaction in flight, the recovered state equals replaying only
// committed work (aborted transactions log their compensations, as the
// engine does). A steal logs the undo of the running transaction's
// uncovered changes, flushes, and persists every page as it stands.
func TestQuickRandomHistories(t *testing.T) {
	var folded int64
	prop := func(script []uint16) bool {
		l, _ := newTestLog(nil, false)
		defer func() { folded += l.Stats().Folded }()
		model := make(map[uint64]byte)   // page -> committed value
		scratch := make(map[uint64]byte) // uncommitted view
		stolen := make(map[uint64]byte)  // pages as the last steal persisted them
		type change struct {
			page   uint64
			before byte
		}
		tx := l.Begin()
		var changes []change
		covered := 0
		for _, op := range script {
			page := uint64(op % 8)
			val := byte(op >> 8)
			if _, err := l.Update(tx, page, 0, []byte{val}, 1); err != nil {
				return false
			}
			changes = append(changes, change{page, scratch[page]})
			scratch[page] = val
			switch op % 7 {
			case 0: // commit
				if err := commit(l, tx); err != nil {
					return false
				}
				for k, v := range scratch {
					model[k] = v
				}
				tx, changes, covered = l.Begin(), nil, 0
			case 1: // abort with compensations
				for i := len(changes) - 1; i >= 0; i-- {
					c := changes[i]
					if _, err := l.Update(tx, c.page, 0, []byte{c.before}, 1); err != nil {
						return false
					}
					scratch[c.page] = c.before
				}
				if err := l.Abort(tx); err != nil {
					return false
				}
				tx, changes, covered = l.Begin(), nil, 0
			case 2: // steal
				for ; covered < len(changes); covered++ {
					c := changes[covered]
					l.AppendUndo(tx, c.page, 0, []byte{c.before})
				}
				l.Flush()
				for k, v := range scratch {
					stolen[k] = v
				}
			}
		}
		// Crash with the final tx in flight (records flushed).
		l.Flush()
		h := newMemHandler()
		for k, v := range stolen {
			h.page(k)[0] = v
		}
		if _, err := l.Recover(h); err != nil {
			return false
		}
		for k := uint64(0); k < 8; k++ {
			if h.page(k)[0] != model[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
	// A transaction whose first op commits is a one-update one.
	if folded == 0 {
		t.Fatal("no history committed a one-update transaction")
	}
}

// TestRecoverRule pins the one recovery rule on a log holding every kind
// of record: redo, in log order, the records of the committed and the
// aborted transaction and every page image — the loser's included — and
// undo, in reverse log order, only the loser's undo images: its undo
// records and its inline record. The loser's other updates are neither.
func TestRecoverRule(t *testing.T) {
	l, _ := newTestLog(t, false)
	lsns := make(map[string]LSN)
	must := func(name string, lsn LSN, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		lsns[name] = lsn
	}
	t1 := l.Begin()
	lsn, err := l.Update(t1, 1, 0, []byte("c1"), 2)
	must("committed", lsn, err)
	if err := commit(l, t1); err != nil {
		t.Fatal(err)
	}
	t2 := l.Begin()
	lsn, err = l.Update(t2, 2, 0, []byte("a1"), 2)
	must("aborted", lsn, err)
	lsn, err = l.Update(t2, 2, 0, []byte("a0"), 2)
	must("compensation", lsn, err)
	if err := l.Abort(t2); err != nil {
		t.Fatal(err)
	}
	t3 := l.Begin()
	lsn, err = l.Update(t3, 3, 0, []byte("s1"), 2)
	must("stolen", lsn, err)
	must("undo stolen", l.AppendUndo(t3, 3, 0, []byte("s0")), nil)
	lsn, err = l.Image(t3, 9, []byte("image"))
	must("image", lsn, err)
	lsn, err = l.Update(t3, 4, 0, []byte("w1"), 2)
	must("written", lsn, err)
	must("undo written", l.AppendUndo(t3, 4, 0, []byte("w0")), nil)
	lsn, err = l.Update(t3, 5, 0, []byte("u1"), 2)
	must("unstolen", lsn, err)
	l.Flush()

	var got []Record
	st, err := l.Recover(recorderHandler{&got})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"committed", "aborted", "compensation", "image", "undo written", "undo stolen"}
	if len(got) != len(want) {
		t.Fatalf("handled %d records, want %v", len(got), want)
	}
	for i, name := range want {
		if got[i].LSN != lsns[name] {
			t.Fatalf("call %d handled lsn %d, want %s (%d)", i, got[i].LSN, name, lsns[name])
		}
	}
	if got[4].Kind != RecUndo || string(got[4].Before) != "w0" || got[5].Kind != RecUndo || string(got[5].Before) != "s0" {
		t.Fatalf("undo records handed over as %+v, %+v", got[4], got[5])
	}
	if st.Records != 9 || st.Committed != 1 || st.Aborted != 1 || st.Losers != 1 || st.Redone != 4 || st.Undone != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestUndoReservation: an update reserves room for its undo record, so a
// log too full for the undo fails the update — never the undo, which
// writes into the reservation, nor the flush's pad behind it. The commit
// mark releases it.
func TestUndoReservation(t *testing.T) {
	clk := &simclock.Clock{}
	dev := nvm.New(nvm.Config{Size: 1 << 20, ReadLatency: 1, WriteLatency: 1, LineTransfer: 1}, clk)
	l := New(dev, 0, 4096)
	img := make([]byte, 100)
	rec := int64(prefixSize + updateHdr + len(img)) // 145: a redo record
	tx := l.Begin()
	n := 0
	for ; ; n++ {
		if _, err := l.Update(tx, uint64(n), 0, img, len(img)); err != nil {
			if !errors.Is(err, ErrLogFull) {
				t.Fatal(err)
			}
			break
		}
	}
	// The failed update's redo record alone would have fit.
	if free := l.Capacity() - l.Bytes(); free < rec {
		t.Fatalf("the log ran out of room (%d bytes free) before the reservation did", free)
	}
	// The worst case: every undo record is a write barrier of its own,
	// closed by its own flush's pad.
	l.Flush()
	for i := 0; i < n; i++ {
		l.AppendUndo(tx, uint64(i), 0, img)
		l.Flush()
	}
	// Each update reserves undoRoom(100) = 192 bytes, its undo record and
	// the pad behind it, in a 4032-byte log (the region's last line is the
	// header): 11 fit. Their redo records are padded to 1600 bytes, and
	// each undo record takes 192 more.
	if got := l.Bytes(); n != 11 || got != 1600+11*192 {
		t.Fatalf("%d updates and their undos take %d bytes, want 11 in %d", n, got, 1600+11*192)
	}
	if st := l.Stats(); st.Undos != int64(n) || st.Records != 2*int64(n) {
		t.Fatalf("stats = %+v, want %d undos among %d records", st, n, 2*n)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("an undo beyond the reservation was appended")
			}
		}()
		l.AppendUndo(tx, 0, 0, img)
	}()

	// The pad a flush may put behind an update comes before its undo
	// record: a 55-byte record is padded to 64, so an undo record of
	// undoRoom(u) bytes fits only while 64 + undoRoom(u) is at most 4032,
	// for u up to 3923.
	for _, c := range []struct {
		undo int
		fits bool
	}{{3923, true}, {3924, false}} {
		l.Truncate()
		tx := l.Begin()
		if _, err := l.Update(tx, 1, 0, make([]byte, 10), c.undo); (err == nil) != c.fits {
			t.Fatalf("an update reserving a %d-byte undo image: err %v, want it to fit: %v", c.undo, err, c.fits)
		}
		if c.fits {
			l.Flush()
			l.AppendUndo(tx, 1, 0, make([]byte, c.undo))
			l.Flush()
			if l.Bytes() > l.Capacity() {
				t.Fatalf("the undo record behind the pad overran the log: %d of %d bytes", l.Bytes(), l.Capacity())
			}
		}
	}

	// A commit mark may use the reservation it releases.
	l.Truncate()
	tx = l.Begin()
	for {
		if _, err := l.Update(tx, 1, 0, img, len(img)); err != nil {
			break
		}
	}
	if err := commit(l, tx); err != nil {
		t.Fatalf("commit did not fit into the released reservation: %v", err)
	}
	if _, err := l.Update(l.Begin(), 1, 0, img, len(img)); err != nil {
		t.Fatalf("the next transaction found no room: %v", err)
	}
}

// TestNoLineFlushedTwice: between two truncations every log line up to
// the head reaches the device exactly once, whatever ends a flush —
// autocommits ending at every offset of a line, a group flush, a
// write-barrier flush of undo records. A Truncate writes the header line
// once, and the next generation starts over.
func TestNoLineFlushedTwice(t *testing.T) {
	l, dev := newTestLog(t, true)
	generation := func() {
		t.Helper()
		wear := dev.WearCounts()
		for n := 0; n < nvm.LineSize; n++ {
			tx := l.Begin()
			if _, err := l.Update(tx, 1, 0, make([]byte, n), 0); err != nil {
				t.Fatal(err)
			}
			if err := commit(l, tx); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 5; i++ {
			tx := l.Begin()
			if _, err := l.Update(tx, 2, 0, make([]byte, 30*i), 0); err != nil {
				t.Fatal(err)
			}
			if err := l.CommitNoFlush(tx); err != nil {
				t.Fatal(err)
			}
		}
		l.FlushTail()
		tx := l.Begin()
		for i := 0; i < 3; i++ {
			if _, err := l.Update(tx, 3, 0, []byte("redo"), 40+i); err != nil {
				t.Fatal(err)
			}
		}
		l.Flush()
		for i := 0; i < 3; i++ {
			l.AppendUndo(tx, 3, 0, make([]byte, 40+i))
		}
		l.Flush() // the write barrier
		if err := commit(l, tx); err != nil {
			t.Fatal(err)
		}
		head := l.Bytes() / nvm.LineSize
		for line, w := range dev.WearCounts()[:l.Capacity()/nvm.LineSize] {
			want := uint32(0)
			if int64(line) < head {
				want = 1
			}
			if got := w - wear[line]; got != want {
				t.Fatalf("line %d of a %d-line generation flushed %d times, want %d", line, head, got, want)
			}
		}
	}
	generation()
	hdr := l.Capacity() / nvm.LineSize
	wear := dev.Wear(hdr)
	l.Truncate()
	if got := dev.Wear(hdr) - wear; got != 1 {
		t.Fatalf("Truncate wrote the header line %d times, want 1", got)
	}
	generation()
}

// TestUndoRecordsStayInTheLog: an undo record is no append-fault site and
// never reaches the ship hook; the update it undoes does.
func TestUndoRecordsStayInTheLog(t *testing.T) {
	l, _ := newTestLog(t, false)
	var shipped []Record
	l.SetShip(func(rs []Record) { shipped = append(shipped, rs...) })
	tx := l.Begin()
	if _, err := l.Update(tx, 1, 0, []byte("new"), 3); err != nil {
		t.Fatal(err)
	}
	in := (&fault.Plan{Rules: []fault.Rule{{Kind: fault.WALAppendError, EveryN: 1}}}).Injector(0)
	l.SetFaults(in)
	l.AppendUndo(tx, 1, 0, []byte("old"))
	if n := in.Opportunities(fault.WALAppendError); n != 0 {
		t.Fatalf("the undo append was %d fault opportunities", n)
	}
	l.SetFaults(nil)
	if err := commit(l, tx); err != nil {
		t.Fatal(err)
	}
	if len(shipped) != 2 || shipped[0].Kind != RecUpdate || shipped[1].Kind != RecCommit {
		t.Fatalf("shipped %+v, want the update and the commit", shipped)
	}
}

// walWear sums the wear of the log region's lines.
func walWear(l *Log, dev *nvm.Device) (sum int64) {
	for _, w := range dev.WearCounts()[:l.Capacity()/nvm.LineSize] {
		sum += int64(w)
	}
	return sum
}

// TestOneUpdateTransactionFolds: a transaction whose only record is an
// update of a key and a 100-byte field is one record of at most 128 bytes
// — 8 prefix, kind, LSN, the uvarint page id and offset, the 108-byte redo
// image — and its Commit flushes exactly 2 lines, whether the offset takes
// one uvarint byte or two. Recovery redoes it as a committed update.
func TestOneUpdateTransactionFolds(t *testing.T) {
	img := bytes.Repeat([]byte{'f'}, 108)
	for _, off := range []int{0, 900} {
		l, dev := newTestLog(t, true)
		tx := l.Begin()
		lsn, err := l.Update(tx, 1, off, img, len(img))
		if err != nil {
			t.Fatal(err)
		}
		if got := l.Bytes(); got != prefixSize+updateHdr+108 {
			t.Fatalf("off %d: the held update counts %d bytes, want the plain record's %d", off, got, prefixSize+updateHdr+108)
		}
		wear := walWear(l, dev)
		if err := l.CommitNoFlush(tx); err != nil {
			t.Fatal(err)
		}
		size := l.Bytes()
		l.FlushTail()
		if lines := walWear(l, dev) - wear; size > 128 || lines != 2 {
			t.Fatalf("off %d: a one-update transaction took %d log bytes in %d line flushes, want at most 128 in 2", off, size, lines)
		}
		if st := l.Stats(); st.Records != 1 || st.Folded != 1 || st.Commits != 1 {
			t.Fatalf("off %d: stats %+v, want 1 folded record", off, st)
		}
		if l.DurableLSN() != lsn+1 {
			t.Fatalf("off %d: durable LSN %d, want the commit's %d", off, l.DurableLSN(), lsn+1)
		}
		dev.Crash()
		var got []Record
		st, err := New(dev, 0, 1<<16).Recover(recorderHandler{&got})
		if err != nil {
			t.Fatal(err)
		}
		if st.Committed != 1 || st.Redone != 1 || st.Records != 1 || len(got) != 1 {
			t.Fatalf("off %d: recovery %+v of %d records", off, st, len(got))
		}
		if r := got[0]; r.Kind != RecUpdate || r.LSN != lsn || r.PID != 1 || r.Off != off || !bytes.Equal(r.After, img) || len(r.Before) != 0 {
			t.Fatalf("off %d: redid %+v", off, r)
		}
	}
}

// TestUnfoldedTransactionsKeepTheirBytes: a transaction of several
// records, one whose update is followed by its undo record, one with a
// page image and an aborted one write plain records and marks, byte for
// byte.
func TestUnfoldedTransactionsKeepTheirBytes(t *testing.T) {
	plain := func(before, after int) int64 { return prefixSize + updateHdr + int64(before+after) }
	const mark = prefixSize + markHdr
	cases := []struct {
		name  string
		run   func(l *Log, tx TxID) error
		bytes int64
	}{
		{"two updates", func(l *Log, tx TxID) error {
			if _, err := l.Update(tx, 1, 0, make([]byte, 20), 20); err != nil {
				return err
			}
			_, err := l.Update(tx, 2, 0, make([]byte, 30), 30)
			return err
		}, plain(0, 20) + plain(0, 30)},
		{"update and its undo", func(l *Log, tx TxID) error {
			if _, err := l.Update(tx, 1, 0, make([]byte, 20), 10); err != nil {
				return err
			}
			l.AppendUndo(tx, 1, 0, make([]byte, 10))
			return nil
		}, plain(0, 20) + plain(10, 0)},
		{"image", func(l *Log, tx TxID) error {
			_, err := l.Image(tx, 7, make([]byte, 50))
			return err
		}, plain(0, 50)},
		{"update then image", func(l *Log, tx TxID) error {
			if _, err := l.Update(tx, 1, 0, make([]byte, 20), 20); err != nil {
				return err
			}
			_, err := l.Image(tx, 7, make([]byte, 50))
			return err
		}, plain(0, 20) + plain(0, 50)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, _ := newTestLog(t, false)
			tx := l.Begin()
			if err := tc.run(l, tx); err != nil {
				t.Fatal(err)
			}
			if err := l.CommitNoFlush(tx); err != nil {
				t.Fatal(err)
			}
			if got := l.Bytes(); got != tc.bytes+mark {
				t.Fatalf("%d log bytes, want %d", got, tc.bytes+mark)
			}
			if st := l.Stats(); st.Folded != 0 {
				t.Fatalf("stats %+v, want nothing folded", st)
			}
		})
	}
	t.Run("aborted", func(t *testing.T) {
		l, _ := newTestLog(t, false)
		tx := l.Begin()
		if _, err := l.Update(tx, 1, 0, make([]byte, 20), 20); err != nil {
			t.Fatal(err)
		}
		if err := l.Abort(tx); err != nil {
			t.Fatal(err)
		}
		if got, want := l.Bytes(), lineEnd(plain(0, 20)+mark); got != want {
			t.Fatalf("%d log bytes, want %d", got, want)
		}
		if st := l.Stats(); st.Records != 2 || st.Folded != 0 {
			t.Fatalf("stats %+v, want an update record and an abort mark", st)
		}
	})
}

// TestHeldUpdateWrittenFirst: whatever touches the log between a
// transaction's first Update and its Commit — an undo record, a flush,
// another transaction's record — finds the update written first as a plain
// record, and the commit is then a plain mark. Recovery sees them in LSN
// order.
func TestHeldUpdateWrittenFirst(t *testing.T) {
	cases := []struct {
		name string
		// between runs between tx's update and its commit.
		between func(l *Log, tx TxID)
		// records counts every record written, the commit mark included.
		records int64
	}{
		{"AppendUndo", func(l *Log, tx TxID) { l.AppendUndo(tx, 1, 0, []byte("old")) }, 3},
		{"Flush", func(l *Log, _ TxID) { l.Flush() }, 2},
		{"another transaction", func(l *Log, _ TxID) {
			if _, err := l.Update(l.Begin(), 2, 0, []byte("other"), 5); err != nil {
				t.Fatal(err)
			}
		}, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, _ := newTestLog(t, false)
			tx := l.Begin()
			lsn, err := l.Update(tx, 1, 0, []byte("new"), 3)
			if err != nil {
				t.Fatal(err)
			}
			tc.between(l, tx)
			if err := commit(l, tx); err != nil {
				t.Fatal(err)
			}
			if st := l.Stats(); st.Records != tc.records || st.Folded != 0 {
				t.Fatalf("stats %+v, want %d records with a plain commit mark", st, tc.records)
			}
			var got []Record
			st, err := l.Recover(recorderHandler{&got})
			if err != nil {
				t.Fatal(err)
			}
			if st.Committed != 1 || len(got) == 0 || got[0].LSN != lsn || string(got[0].After) != "new" {
				t.Fatalf("recovery %+v redid %+v, want the update at lsn %d first", st, got, lsn)
			}
		})
	}
}

// TestShipDeliversEachLSNOnce: folded or not, grouped or not, the ship hook
// gets every LSN the log hands out exactly once and in order, each update
// before its transaction's commit.
func TestShipDeliversEachLSNOnce(t *testing.T) {
	l, _ := newTestLog(t, false)
	var shipped []Record
	l.SetShip(func(rs []Record) { shipped = append(shipped, rs...) })
	update := func(tx TxID, v string) {
		t.Helper()
		if _, err := l.Update(tx, 1, 0, []byte(v), len(v)); err != nil {
			t.Fatal(err)
		}
	}
	tx := l.Begin() // folded
	update(tx, "a")
	if err := commit(l, tx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // a folded group
		tx := l.Begin()
		update(tx, "b")
		if err := l.CommitNoFlush(tx); err != nil {
			t.Fatal(err)
		}
	}
	l.FlushTail()
	tx = l.Begin() // held, then flushed on its own
	update(tx, "c")
	l.Flush()
	if err := commit(l, tx); err != nil {
		t.Fatal(err)
	}
	tx = l.Begin() // two updates
	update(tx, "d")
	update(tx, "e")
	if err := commit(l, tx); err != nil {
		t.Fatal(err)
	}
	tx = l.Begin() // aborted
	update(tx, "f")
	if err := l.Abort(tx); err != nil {
		t.Fatal(err)
	}
	if want := int(l.DurableLSN()); len(shipped) != want {
		t.Fatalf("shipped %d records for %d LSNs", len(shipped), want)
	}
	updates := map[TxID]int{}
	for i, r := range shipped {
		if r.LSN != LSN(i+1) {
			t.Fatalf("record %d shipped at lsn %d, want %d", i, r.LSN, i+1)
		}
		switch r.Kind {
		case RecUpdate:
			updates[r.Tx]++
		case RecCommit, RecAbort:
			if updates[r.Tx] == 0 {
				t.Fatalf("lsn %d: tx %d ended before any update shipped", r.LSN, r.Tx)
			}
		}
	}
	if st := l.Stats(); st.Folded != 4 {
		t.Fatalf("stats %+v, want 4 folded commits", st)
	}
}

// appendCommitted commits n one-update transactions of a 1000-byte image
// each: four of them fill about a host page of the record area.
func appendCommitted(t *testing.T, l *Log, n int, fill byte) {
	t.Helper()
	img := bytes.Repeat([]byte{fill}, 1000)
	for i := 0; i < n; i++ {
		tx := l.Begin()
		if _, err := l.Update(tx, uint64(i%4), 0, img, len(img)); err != nil {
			t.Fatal(err)
		}
		if err := commit(l, tx); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReleaseAfterTruncate: a release after a truncation zeroes the record
// area the log wrote and leaves the header's LSN floor, so a restart finds
// an empty log that goes on above the floor, and a log appended after the
// release recovers its records.
func TestReleaseAfterTruncate(t *testing.T) {
	l, dev := newTestLog(t, true)
	appendCommitted(t, l, 40, 0xa5)
	written := l.Bytes()
	floor := l.Truncate()
	if err := l.Release(); err != nil {
		t.Fatal(err)
	}
	if written < 8*nvm.HostPage {
		t.Fatalf("the log wrote %d bytes, want at least 8 host pages", written)
	}
	if !bytes.Equal(dev.View(0, int(written)), make([]byte, written)) {
		t.Fatal("the released record area does not read as zeros")
	}
	// A crash keeps the released zeros: they held no unflushed store.
	dev.Crash()
	l2 := New(dev, 0, 1<<16)
	st, err := l2.Recover(newMemHandler())
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 0 || st.TornTail {
		t.Fatalf("recovery after a release: %+v, want an empty log with a clean end", st)
	}
	if got := l2.DurableLSN(); got != floor {
		t.Fatalf("recovered LSN %d, want the floor %d", got, floor)
	}

	appendCommitted(t, l2, 3, 0x5a)
	h := newMemHandler()
	st, err = New(dev, 0, 1<<16).Recover(h)
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 3 || st.Committed != 3 || h.pages[0][0] != 0x5a {
		t.Fatalf("the log appended after a release recovered %+v, page 0 starts %#x", st, h.pages[0][0])
	}
	if h.lsn[0] <= floor {
		t.Fatalf("redo at LSN %d, not above the floor %d", h.lsn[0], floor)
	}
}

// TestRefusedTruncateReleasesNothing: while the retention watermark keeps
// the log, Release leaves every byte of it in place and a restart recovers
// its records.
func TestRefusedTruncateReleasesNothing(t *testing.T) {
	l, dev := newTestLog(t, true)
	l.SetRetain(func() LSN { return 1 })
	appendCommitted(t, l, 20, 0xa5)
	before := bytes.Clone(dev.View(0, 1<<16))
	if l.Truncate() != 0 {
		t.Fatal("Truncate under the watermark cut the log")
	}
	if err := l.Release(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dev.View(0, 1<<16), before) {
		t.Fatal("Release changed a log the truncation kept")
	}
	st, err := New(dev, 0, 1<<16).Recover(newMemHandler())
	if err != nil {
		t.Fatal(err)
	}
	if st.Committed != 20 {
		t.Fatalf("recovered %d commits, want 20", st.Committed)
	}
}

// TestReleaseAfterRecoverCoversTheRecordArea: a recovered log does not know
// what earlier runs wrote, so its first release hands back the whole
// record area, stale records of an earlier generation included, and keeps
// the header line's host page.
func TestReleaseAfterRecoverCoversTheRecordArea(t *testing.T) {
	l, dev := newTestLog(t, true)
	appendCommitted(t, l, 40, 0xa5)
	floor := l.Truncate() // the records stay behind as stale bytes
	l2 := New(dev, 0, 1<<16)
	if _, err := l2.Recover(newMemHandler()); err != nil {
		t.Fatal(err)
	}
	if err := l2.Release(); err != nil {
		t.Fatal(err)
	}
	area := l2.Capacity() / nvm.HostPage * nvm.HostPage
	if !bytes.Equal(dev.View(0, int(area)), make([]byte, area)) {
		t.Fatal("the first release after Recover left stale records in the record area")
	}
	l3 := New(dev, 0, 1<<16)
	st, err := l3.Recover(newMemHandler())
	if err != nil || st.Records != 0 {
		t.Fatalf("recovery after the release: %+v, %v", st, err)
	}
	if got := l3.DurableLSN(); got != floor {
		t.Fatalf("LSN %d after the release, want the floor %d", got, floor)
	}
}
