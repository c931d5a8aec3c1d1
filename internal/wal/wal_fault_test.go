package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strings"
	"testing"

	"nvmstore/internal/fault"
	"nvmstore/internal/nvm"
)

// lineImage returns an image sized so that a whole update or undo record
// (prefix + payload) is exactly one 64-byte cache line: 8 + 37 + 19.
// Records then start and end on line boundaries, which is the geometry
// that lets a torn flush end the durable prefix on a record boundary.
func lineImage() []byte { return make([]byte, 19) }

// updateWithUndo appends a one-line update record of tx and its one-line
// undo record, the pair a steal leaves in the log; a loser's undo record
// is handed to Undo.
func updateWithUndo(l *Log, tx TxID, pid uint64) error {
	img := lineImage()
	if _, err := l.Update(tx, pid, 0, img, len(img)); err != nil {
		return err
	}
	l.AppendUndo(tx, pid, 0, img)
	return nil
}

// TestStaleRecordAfterTornFlushDetected reproduces the nastiest torn
// tail: after a truncation, a new record is appended over the old log
// and its line is flushed, but the crash loses the rest of the flush. The
// scan position then lands exactly on a complete, CRC-valid record of the
// *previous* generation, right after a record rather than a pad. Recovery
// must not replay it — its stale LSN gives it away.
func TestStaleRecordAfterTornFlushDetected(t *testing.T) {
	l, dev := newTestLog(t, true)
	img := lineImage()

	// Generation 1: three one-line update records plus a commit mark, all
	// durable. LSNs 1 to 4.
	t1 := l.Begin()
	for i := 0; i < 3; i++ {
		if _, err := l.Update(t1, uint64(i+1), 0, img, len(img)); err != nil {
			t.Fatal(err)
		}
	}
	if err := commit(l, t1); err != nil {
		t.Fatal(err)
	}
	l.Truncate()

	// Generation 2: an update record (LSN 5) and its undo record (LSN 6)
	// over [0, 128). The next line still holds generation 1's third
	// record. Tear the flush: persist the two records' lines only, then
	// power-fail.
	t2 := l.Begin()
	if err := updateWithUndo(l, t2, 9); err != nil {
		t.Fatal(err)
	}
	dev.Flush(0, 128)
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
	// Only the generation-2 undo record is handed over; the stale
	// generation-1 record at the scan position (LSN 3 ≤ 6) must be dropped.
	if len(got) != 1 || got[0].LSN != 6 || got[0].PID != 9 || got[0].Kind != RecUndo {
		t.Fatalf("replayed %+v, want only the LSN-6 undo record", got)
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
	n := binary.LittleEndian.Uint32(prefix[0:]) &^ flushEnd
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
// rather than silently drop the corrupt record and everything after it,
// also when the successor starts on the next line, past a flush's pad.
func TestUnknownTypeMidLogIsCorruption(t *testing.T) {
	cases := []struct {
		name string
		// build appends the record corrupted at offset 0 and its successor.
		build func(l *Log, tx TxID) error
	}{
		{"adjacent", func(l *Log, tx TxID) error {
			return updateWithUndo(l, tx, 1)
		}},
		{"past a pad", func(l *Log, tx TxID) error {
			if _, err := l.Update(tx, 1, 0, lineImage()[:8], 0); err != nil {
				return err
			}
			l.Flush()
			return updateWithUndo(l, tx, 2)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, dev := newTestLog(t, false)
			tx := l.Begin()
			if err := tc.build(l, tx); err != nil {
				t.Fatal(err)
			}
			if err := commit(l, tx); err != nil {
				t.Fatal(err)
			}
			rewriteKind(dev, 0, 99)

			_, err := New(dev, 0, 1<<16).Recover(newMemHandler())
			if err == nil || !strings.Contains(err.Error(), "corrupt record") {
				t.Fatalf("err = %v, want mid-log corruption error", err)
			}
		})
	}
}

// TestUnknownTypeAtTailIsTorn: the same unknown-type blob with nothing
// valid after it is explainable as torn-tail bytes whose CRC happens to
// match; the scan stops there instead of failing recovery.
func TestUnknownTypeAtTailIsTorn(t *testing.T) {
	l, dev := newTestLog(t, false)
	tx := l.Begin()
	if err := updateWithUndo(l, tx, 1); err != nil {
		t.Fatal(err)
	}
	if err := commit(l, tx); err != nil {
		t.Fatal(err)
	}
	// Corrupt the *last* record (the commit mark) — nothing follows it,
	// and the record before it did not end a flush.
	commitPos := int64(128) // the update and its undo occupy [0, 128)
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
	if len(got) != 1 || got[0].Kind != RecUndo || st.Losers != 1 {
		t.Fatalf("records=%d stats=%+v, want 1 undo record and 1 loser", len(got), st)
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
		_ = commit(l, tx)
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

// TestInjectedAppendError: fault.WALAppendError surfaces as a transient
// *fault.Error without advancing the log.
func TestInjectedAppendError(t *testing.T) {
	l, _ := newTestLog(t, false)
	plan := &fault.Plan{Seed: 3, Rules: []fault.Rule{{Kind: fault.WALAppendError, EveryN: 1, Limit: 1, Transient: 1}}}
	l.SetFaults(plan.Injector(0))

	tx := l.Begin()
	_, err := l.Update(tx, 1, 0, []byte("y"), 1)
	if err == nil {
		t.Fatal("append did not fail")
	}
	var fe *fault.Error
	if !errors.As(err, &fe) || fe.Permanent {
		t.Fatalf("err %v is not a transient *fault.Error", err)
	}
	if l.Bytes() != 0 {
		t.Fatalf("failed append advanced the log to %d bytes", l.Bytes())
	}
	// The limit is spent: the retry succeeds.
	if _, err := l.Update(tx, 1, 0, []byte("y"), 1); err != nil {
		t.Fatal(err)
	}
}

// TestScanEnd: the log region is never erased, so the line after a
// flush's pad holds zeros, a record of an earlier generation, or garbage.
// A scan that stops there has found the clean end, also when the flush
// ended exactly on a line boundary and left no pad. Only a scan that stops
// inside a flush — right after a record whose next line the crash lost —
// reports a torn tail.
func TestScanEnd(t *testing.T) {
	img := lineImage()
	// commitOne commits a transaction of one one-line update record and
	// its one-line undo record at the head; from offset 0 its flush ends
	// at 192, the commit record padded.
	commitOne := func(l *Log) {
		tx := l.Begin()
		if err := updateWithUndo(l, tx, 1); err != nil {
			t.Fatal(err)
		}
		if err := commit(l, tx); err != nil {
			t.Fatal(err)
		}
	}
	// earlier fills [0, 320) with a committed generation: four one-line
	// records, LSNs 1 to 4, and a commit record. Its record at 192 is what
	// the line behind commitOne's flush holds.
	earlier := func(l *Log) {
		tx := l.Begin()
		for i := 0; i < 4; i++ {
			if _, err := l.Update(tx, 9, 0, img, len(img)); err != nil {
				t.Fatal(err)
			}
		}
		if err := commit(l, tx); err != nil {
			t.Fatal(err)
		}
		l.Truncate()
	}
	cases := []struct {
		name  string
		build func(l *Log, dev *nvm.Device)
		torn  bool
	}{
		{"zeros", func(l *Log, _ *nvm.Device) { commitOne(l) }, false},
		{"earlier generation", func(l *Log, _ *nvm.Device) {
			earlier(l)
			commitOne(l)
		}, false},
		{"earlier generation, recovered in between", func(l *Log, dev *nvm.Device) {
			// A crash right after the truncation: recovery finds an empty
			// log and must keep counting LSNs up from the header's floor,
			// or the next generation's LSNs would fall below the stale
			// record's at 192.
			earlier(l)
			dev.Crash()
			l = New(dev, 0, 1<<16)
			if st, err := l.Recover(newMemHandler()); err != nil || st.Records != 0 || st.TornTail {
				t.Fatalf("recovery of the truncated log: %+v, %v", st, err)
			}
			commitOne(l)
		}, false},
		{"garbage", func(l *Log, dev *nvm.Device) {
			commitOne(l)
			var junk [nvm.LineSize]byte
			binary.LittleEndian.PutUint32(junk[:], 40) // a plausible size, a wrong CRC
			copy(junk[prefixSize:], "not a record")
			dev.Persist(junk[:], 192)
		}, false},
		{"flush ending on the boundary", func(l *Log, _ *nvm.Device) {
			// A one-update transaction with a 109-byte redo image is one
			// 128-byte folded record: the flush adds no pad.
			tx := l.Begin()
			if _, err := l.Update(tx, 1, 0, make([]byte, 109), 0); err != nil {
				t.Fatal(err)
			}
			if err := commit(l, tx); err != nil {
				t.Fatal(err)
			}
			if l.Bytes() != 128 {
				t.Fatalf("the flush ended at %d, want 128", l.Bytes())
			}
		}, false},
		{"torn flush", func(l *Log, dev *nvm.Device) {
			commitOne(l)
			// An update and its undo, one line each at 192 and 256, then
			// a record crossing into the line at 384, which the crash
			// loses.
			tx := l.Begin()
			if err := updateWithUndo(l, tx, 2); err != nil {
				t.Fatal(err)
			}
			if _, err := l.Update(tx, 3, 0, make([]byte, 100), 0); err != nil {
				t.Fatal(err)
			}
			dev.Flush(192, 3*nvm.LineSize)
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, dev := newTestLog(t, true)
			tc.build(l, dev)
			dev.Crash()
			st, err := New(dev, 0, 1<<16).Recover(newMemHandler())
			if err != nil {
				t.Fatal(err)
			}
			if st.TornTail != tc.torn || st.Committed != 1 || st.Redone != 1 {
				t.Fatalf("stats = %+v, want TornTail %v and the one committed record redone", st, tc.torn)
			}
		})
	}
}

// tearEachLine checks recovery from a torn padded flush. On a strict log
// holding one committed transaction, prepare runs (ending flushed), then
// flush — appends ending in one log flush. It runs once without a fault
// to count the flush's lines, then under a fault.WALFlushCrash per seed
// until the tear has left each count of them durable, from one line to
// all. check gets the end of the durable prefix and what recovery found.
func tearEachLine(t *testing.T, prepare, flush func(l *Log), check func(durable int64, st RecoveryStats, h *memHandler)) {
	t.Helper()
	setup := func() (*Log, *nvm.Device, int64) {
		l, dev := newTestLog(t, true)
		// Old bytes, so that a lost line never matches what it lost.
		dev.Persist(bytes.Repeat([]byte{0xA5}, 4096), 0)
		tx := l.Begin()
		if _, err := l.Update(tx, 0, 0, []byte("committed"), 0); err != nil {
			t.Fatal(err)
		}
		if err := commit(l, tx); err != nil {
			t.Fatal(err)
		}
		if prepare != nil {
			prepare(l)
		}
		return l, dev, l.Bytes()
	}
	l, _, start := setup()
	flush(l)
	lines := (l.Bytes() - start) / nvm.LineSize
	left := map[int64]bool{}
	for seed := uint64(1); int64(len(left)) < lines && seed <= 128; seed++ {
		l, dev, start := setup()
		l.SetFaults((&fault.Plan{Seed: seed, Rules: []fault.Rule{{Kind: fault.WALFlushCrash, EveryN: 1, Limit: 1}}}).Injector(0))
		flushed := dev.Stats().LinesFlushed
		func() {
			defer func() {
				if _, ok := fault.AsCrash(recover()); !ok {
					t.Fatalf("seed %d: the flush did not crash", seed)
				}
			}()
			flush(l)
		}()
		k := dev.Stats().LinesFlushed - flushed
		if k > 0 {
			left[k] = true
		}
		dev.Crash()
		h := newMemHandler()
		st, err := New(dev, 0, 1<<16).Recover(h)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if string(h.page(0)[:9]) != "committed" {
			t.Fatalf("seed %d: %d of %d lines durable lost the committed transaction", seed, k, lines)
		}
		check(start+k*nvm.LineSize, st, h)
	}
	for k := int64(1); k <= lines; k++ {
		if !left[k] {
			t.Fatalf("no tear left exactly %d of the flush's %d lines durable (saw %v)", k, lines, left)
		}
	}
}

// TestTornPaddedFlush tears each line of padded flushes — an autocommit of
// two updates, a one-update transaction folded into one record, groups of
// CommitNoFlush records of either kind ended by one FlushTail, and a
// write-barrier flush of undo records, each crossing a line boundary.
// Recovery must bring back exactly the prefix the durable lines hold.
func TestTornPaddedFlush(t *testing.T) {
	// commitsAt returns a check that, of transactions whose last record
	// ends at ends[i] and that wrote sizes[i] bytes to page 10+i, finds
	// exactly those committed whose end is durable.
	commitsAt := func(ends *[]int64, sizes []int) func(durable int64, st RecoveryStats, h *memHandler) {
		return func(durable int64, st RecoveryStats, h *memHandler) {
			n := 0
			for n < len(*ends) && (*ends)[n] <= durable {
				n++
			}
			if st.Committed != 1+n {
				t.Fatalf("durable to %d: %d committed, want %d", durable, st.Committed, 1+n)
			}
			for i, size := range sizes {
				img := bytes.Repeat([]byte{byte('A' + i)}, size)
				if got := bytes.Equal(h.page(uint64(10 + i))[:size], img); got != (i < n) {
					t.Fatalf("durable to %d: transaction %d applied %v, want %v", durable, i, got, i < n)
				}
			}
		}
	}
	// update logs size bytes of transaction i's image to page 10+i in
	// parts updates.
	update := func(l *Log, tx TxID, i, size, parts int) {
		img := bytes.Repeat([]byte{byte('A' + i)}, size)
		for p := 0; p < parts; p++ {
			lo, hi := p*size/parts, (p+1)*size/parts
			if _, err := l.Update(tx, uint64(10+i), lo, img[lo:hi], hi-lo); err != nil {
				t.Fatal(err)
			}
		}
	}

	for _, tc := range []struct {
		name  string
		parts int
	}{{"autocommit", 2}, {"folded", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			sizes := []int{108}
			var ends []int64
			tearEachLine(t, nil, func(l *Log) {
				tx := l.Begin()
				update(l, tx, 0, sizes[0], tc.parts)
				before := l.Stats().Folded
				if err := l.CommitNoFlush(tx); err != nil {
					t.Fatal(err)
				}
				if folded := l.Stats().Folded > before; folded != (tc.parts == 1) {
					t.Fatalf("%d updates: folded %v", tc.parts, folded)
				}
				ends = []int64{l.Bytes()}
				l.Flush() // CommitNoFlush and Flush: Commit, the end seen in between
			}, commitsAt(&ends, sizes))
		})
	}

	for _, tc := range []struct {
		name  string
		parts int
	}{{"group", 2}, {"folded group", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			sizes := []int{20, 60, 3, 90, 41}
			var ends []int64
			tearEachLine(t, nil, func(l *Log) {
				ends = ends[:0]
				for i, n := range sizes {
					tx := l.Begin()
					update(l, tx, i, n, tc.parts)
					if err := l.CommitNoFlush(tx); err != nil {
						t.Fatal(err)
					}
					ends = append(ends, l.Bytes())
				}
				l.FlushTail()
			}, commitsAt(&ends, sizes))
		})
	}

	t.Run("barrier", func(t *testing.T) {
		undos := [][]byte{bytes.Repeat([]byte{'x'}, 78), bytes.Repeat([]byte{'y'}, 30), bytes.Repeat([]byte{'z'}, 100)}
		var tx TxID
		var ends []int64
		tearEachLine(t, func(l *Log) {
			tx = l.Begin()
			for i, u := range undos {
				if _, err := l.Update(tx, uint64(20+i), 0, []byte("new"), len(u)); err != nil {
					t.Fatal(err)
				}
			}
			l.Flush() // the redo records' flush: the barrier flushes only undo records
		}, func(l *Log) {
			ends = ends[:0]
			for i, u := range undos {
				start := l.Bytes()
				l.AppendUndo(tx, uint64(20+i), 0, u)
				ends = append(ends, l.Bytes())
				if start/nvm.LineSize == (l.Bytes()-1)/nvm.LineSize {
					t.Fatalf("undo record %d fits in the line at %d, want it to cross a boundary", i, start)
				}
			}
			l.Flush()
		}, func(durable int64, st RecoveryStats, h *memHandler) {
			n := 0
			for n < len(ends) && ends[n] <= durable {
				n++
			}
			if st.Committed != 1 || st.Losers != 1 || st.Undone != n {
				t.Fatalf("durable to %d: stats %+v, want the loser's first %d undo records undone", durable, st, n)
			}
			for i, u := range undos {
				if got := bytes.Equal(h.page(uint64(20 + i))[:len(u)], u); got != (i < n) {
					t.Fatalf("durable to %d: undo %d applied %v, want %v", durable, i, got, i < n)
				}
			}
		})
	})
}

// TestTornImagesRedoneAllOrNone tears, at each line, the flush of a
// transaction that logged two page images with no flush between them and
// then committed: recovery redoes both images once the whole flush is
// durable and neither before, however many of their lines are. The image
// of an earlier, completed flush is redone either way.
func TestTornImagesRedoneAllOrNone(t *testing.T) {
	img := func(pid uint64) []byte { return bytes.Repeat([]byte{byte('a' + pid)}, 100) }
	var end int64
	tearEachLine(t, func(l *Log) {
		tx := l.Begin()
		if _, err := l.Image(tx, 1, img(1)); err != nil {
			t.Fatal(err)
		}
		if err := commit(l, tx); err != nil {
			t.Fatal(err)
		}
	}, func(l *Log) {
		tx := l.Begin()
		for pid := uint64(2); pid <= 3; pid++ {
			if _, err := l.Image(tx, pid, img(pid)); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.CommitNoFlush(tx); err != nil {
			t.Fatal(err)
		}
		end = l.Bytes()
		l.Flush()
	}, func(durable int64, st RecoveryStats, h *memHandler) {
		if !bytes.Equal(h.page(1)[:100], img(1)) {
			t.Fatalf("durable to %d: the completed flush's image was not redone", durable)
		}
		for pid := uint64(2); pid <= 3; pid++ {
			if got, whole := bytes.Equal(h.page(pid)[:100], img(pid)), durable >= end; got != whole {
				t.Fatalf("durable to %d of %d: image of page %d redone %v, want %v", durable, end, pid, got, whole)
			}
		}
	})
}
