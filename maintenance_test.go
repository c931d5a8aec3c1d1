package nvmstore

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"testing"

	"nvmstore/internal/fault"
	"nvmstore/internal/wal"
)

// openMaintStore opens a sharded store with the smallest WAL the core
// allows (the per-shard region is floored at 1 MiB) so low fill
// thresholds give checkpoint pacing work to do quickly.
func openMaintStore(t *testing.T, shards int, m MaintenanceOptions) *ShardedStore {
	t.Helper()
	s, err := OpenSharded(shards, Options{
		Architecture:      ThreeTier,
		DRAMBytes:         32 << 20,
		NVMBytes:          256 << 20,
		SSDBytes:          1 << 30,
		WALBytes:          int64(shards) << 20, // the 1 MiB per-shard floor
		StrictPersistence: true,
		Maintenance:       m,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return s
}

// TestShardedMaintenanceConcurrent hammers a sharded table from several
// goroutines whose commits run incremental checkpoint rounds. Run under
// `go test -race` this checks that every round runs under the shard lock.
// The low soft threshold (the workload fills ~14% of the floor-size log)
// guarantees it is crossed many times, so rounds and truncations must
// both have happened — and no writer may ever observe wal.ErrLogFull,
// because from the hard threshold a commit cuts the log before it
// returns.
func TestShardedMaintenanceConcurrent(t *testing.T) {
	s := openMaintStore(t, 2, MaintenanceOptions{SoftFill: 0.02, HardFill: 0.5})
	table, err := s.CreateTable(1, 128)
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers = 4
		perW    = 400
	)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			buf := make([]byte, 128)
			for n := 0; n < perW; n++ {
				k := uint64(wk*perW + n)
				if err := table.Put(k, shardedRow(k, 128)); err != nil {
					errs[wk] = err
					return
				}
				if n%7 == 0 {
					if _, err := table.Lookup(k, buf); err != nil {
						errs[wk] = err
						return
					}
				}
			}
		}(wk)
	}
	wg.Wait()
	for wk, err := range errs {
		if err != nil {
			if errors.Is(err, wal.ErrLogFull) {
				t.Fatalf("worker %d hit ErrLogFull despite pacing: %v", wk, err)
			}
			t.Fatalf("worker %d: %v", wk, err)
		}
	}
	m := s.Metrics()
	if m.Ckpt.Rounds == 0 {
		t.Fatal("no checkpoint rounds ran")
	}
	if m.Ckpt.Truncations == 0 {
		t.Fatal("pacing never truncated the WAL")
	}
	// All rows must still be readable after the fuzzy checkpoints.
	if n, err := table.Count(); err != nil || n != workers*perW {
		t.Fatalf("Count = %d, %v; want %d", n, err, workers*perW)
	}
}

// TestWritersPastHardFillNeverSeeLogFull pins the hard threshold low so
// four writers cross it constantly: each commit that finds the log there
// drains the dirty set and cuts the log before it returns, so no writer
// ever fails with wal.ErrLogFull.
func TestWritersPastHardFillNeverSeeLogFull(t *testing.T) {
	s := openMaintStore(t, 1, MaintenanceOptions{SoftFill: 0.02, HardFill: 0.02})
	table, err := s.CreateTable(1, 256)
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers = 4
		perW    = 250
	)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for n := 0; n < perW; n++ {
				k := uint64(wk*perW + n)
				if err := table.Put(k, shardedRow(k, 256)); err != nil {
					errs[wk] = err
					return
				}
			}
		}(wk)
	}
	wg.Wait()
	for wk, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", wk, err)
		}
	}
	if m := s.Metrics(); m.Ckpt.Truncations == 0 {
		t.Fatal("pacing never truncated the WAL")
	}
	if n, err := table.Count(); err != nil || n != workers*perW {
		t.Fatalf("Count = %d, %v; want %d", n, err, workers*perW)
	}
}

// TestCkptRoundCrashOnShardedStore injects a crash into a checkpoint
// round of a default ShardedStore. The round runs on the Put that filled
// the log, so the fault.Crash unwinds through Batch (releasing the shard
// lock) to that caller, which restarts the shard and carries on: exactly
// one crash, and every acknowledged row reads back. The Put that crashed
// was not acknowledged; its flush had landed, so its row may be there too.
func TestCkptRoundCrashOnShardedStore(t *testing.T) {
	s := openMaintStore(t, 1, MaintenanceOptions{SoftFill: 0.02})
	table, err := s.CreateTable(1, 128)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil { // the base recovery starts from
		t.Fatal(err)
	}
	s.InjectFaults(&fault.Plan{Seed: 1, Rules: []fault.Rule{
		{Kind: fault.CkptRound, EveryN: 3, Limit: 1},
	}})
	const puts = 2000
	crashes := 0
	acked := make([]bool, puts)
	for k := uint64(0); k < puts; k++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := fault.AsCrash(r); !ok {
						panic(r)
					}
					crashes++
					if _, err := s.CrashRestartShard(0); err != nil {
						t.Fatalf("restart after the crash at put %d: %v", k, err)
					}
				}
			}()
			if err := table.Put(k, shardedRow(k, 128)); err != nil {
				t.Fatalf("put %d: %v", k, err)
			}
			acked[k] = true
		}()
	}
	if crashes != 1 {
		t.Fatalf("%d crashes, want exactly 1", crashes)
	}
	buf := make([]byte, 128)
	for k := uint64(0); k < puts; k++ {
		if !acked[k] {
			continue
		}
		if found, err := table.Lookup(k, buf); err != nil || !found || !bytes.Equal(buf, shardedRow(k, 128)) {
			t.Fatalf("acknowledged key %d after the crash: found=%v err=%v", k, found, err)
		}
	}
	if err := s.WithShard(0, func(st *Store) error { return st.e.Manager().CheckInvariants() }); err != nil {
		t.Fatal(err)
	}
}

// TestShardedCountersDeterministic: checkpoint rounds run on the commit
// that filled the log and nowhere else, so one goroutine issuing the same
// writes gets the same write-back — round for round, device write for
// device write — and opening a store starts no goroutine.
func TestShardedCountersDeterministic(t *testing.T) {
	type counts struct {
		ckpt               CkptStats
		nvmWrites, ssdPage int64
	}
	run := func() counts {
		before := runtime.NumGoroutine()
		s := openMaintStore(t, 2, MaintenanceOptions{SoftFill: 0.02})
		// Goroutines of earlier tests may still be exiting; none may appear.
		if after := runtime.NumGoroutine(); after > before {
			t.Fatalf("OpenSharded left %d goroutines running, %d ran before it", after, before)
		}
		table, err := s.CreateTable(1, 128)
		if err != nil {
			t.Fatal(err)
		}
		for n := uint64(0); n < 20000; n++ {
			k := n * 7919 % 5000
			if err := table.Put(k, shardedRow(n, 128)); err != nil {
				t.Fatalf("put %d: %v", n, err)
			}
		}
		m := s.Metrics()
		return counts{m.Ckpt, m.NVMTotalWrites, m.SSDPagesWritten}
	}
	first, second := run(), run()
	if first != second {
		t.Fatalf("same writes, different write-back:\n first  %+v\n second %+v", first, second)
	}
	if first.ckpt.Rounds < 100 || first.ckpt.Truncations == 0 {
		t.Fatalf("%+v: the workload was meant to run hundreds of rounds", first.ckpt)
	}
}

// TestPacedRoundsBoundCommitWriteBack pins what pacing buys a commit: on a
// floor-size log crossed many times, the write-back one commit does below
// the hard threshold is at most one round of at most Batch pages, while
// at a soft-threshold crossing the dirty set is larger than a batch — the
// pages a full checkpoint would have written on that one commit. The
// rounds still drain it: the log is cut.
func TestPacedRoundsBoundCommitWriteBack(t *testing.T) {
	const (
		rows    = 4000
		rowSize = 256
		txRows  = 4
		txs     = 3000
	)
	maint := MaintenanceOptions{Batch: 8, SoftFill: 0.04, HardFill: 0.9}
	s, err := Open(Options{
		Architecture: ThreeTier,
		DRAMBytes:    32 << 20,
		NVMBytes:     256 << 20,
		SSDBytes:     1 << 30,
		WALBytes:     1 << 20, // the floor
		Maintenance:  maint,
	})
	if err != nil {
		t.Fatal(err)
	}
	table, err := s.CreateTable(1, rowSize)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < rows; k++ {
		if err := s.Update(func() error { return table.Insert(k, shardedRow(k, rowSize)) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil { // start clean, with an empty log
		t.Fatal(err)
	}

	start := s.Metrics().Ckpt
	var crossings, maxDirtyAtCrossing int64
	for i := uint64(0); i < txs; i++ {
		fill := s.LogFill()
		m := s.Metrics()
		err := s.Update(func() error {
			for r := uint64(0); r < txRows; r++ {
				key := (i*txRows + r) * 7919 % rows
				if _, err := table.UpdateField(key, int(i%(rowSize-8)), shardedRow(i, 8)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("tx %d: %v", i, err)
		}
		after := s.Metrics().Ckpt
		rounds, pages := after.Rounds-m.Ckpt.Rounds, after.Pages-m.Ckpt.Pages
		if fill < maint.HardFill && (rounds > 1 || pages > int64(maint.Batch)) {
			t.Fatalf("tx %d at log fill %.3f ran %d rounds writing %d pages, want at most 1 round of %d",
				i, fill, rounds, pages, maint.Batch)
		}
		if fill < maint.SoftFill && rounds > 0 {
			crossings++
			maxDirtyAtCrossing = max(maxDirtyAtCrossing, m.Residency.DRAMDirtyPages)
		}
	}
	end := s.Metrics().Ckpt
	t.Logf("%d soft-threshold crossings (at most %d dirty pages), %d rounds, %d pages, %d truncations",
		crossings, maxDirtyAtCrossing, end.Rounds-start.Rounds, end.Pages-start.Pages, end.Truncations-start.Truncations)
	if end.Truncations == start.Truncations {
		t.Fatal("paced rounds never cut the log")
	}
	if maxDirtyAtCrossing <= int64(maint.Batch) {
		t.Fatalf("at most %d dirty pages at %d soft-threshold crossings, want more than a batch of %d",
			maxDirtyAtCrossing, crossings, maint.Batch)
	}
}

// TestFullLogFailsWritesNotReads is what is left when a truncation keeps
// being refused (a retention watermark that never advances — under
// replication the flush before the cut ships the tail, so there it
// cannot last): nobody waits. Writes are acknowledged while the log has
// room; then they fail with wal.ErrLogFull, unacknowledged and unapplied,
// while reads on the shard are answered all along. Once the watermark is
// gone, the first Batch to flush cuts the log and writes succeed again.
func TestFullLogFailsWritesNotReads(t *testing.T) {
	const (
		rows    = 64
		rowSize = 256
	)
	s := openMaintStore(t, 1, MaintenanceOptions{SoftFill: 0.01, HardFill: 0.01})
	table, err := s.CreateTable(1, rowSize)
	if err != nil {
		t.Fatal(err)
	}
	model := make([][]byte, rows)
	put := func(k, gen uint64) error {
		row := shardedRow(k<<32|gen, rowSize)
		err := table.Put(k, row)
		if err == nil {
			model[k] = row
		}
		return err
	}
	for k := uint64(0); k < rows; k++ {
		if err := put(k, 0); err != nil {
			t.Fatal(err)
		}
	}
	retain := func(fn func() wal.LSN) {
		_ = s.WithShard(0, func(st *Store) error { st.e.Log().SetRetain(fn); return nil })
	}
	retain(func() wal.LSN { return 1 }) // every truncation is refused

	// A reader on the same shard, all the way through.
	stop, readerDone := make(chan struct{}), make(chan error, 1)
	go func() {
		buf := make([]byte, rowSize)
		for k := uint64(0); ; k = (k + 1) % rows {
			select {
			case <-stop:
				readerDone <- nil
				return
			default:
			}
			if found, err := table.Lookup(k, buf); err != nil || !found {
				readerDone <- errors.Join(err, errors.New("lookup failed beside a full log"))
				return
			}
		}
	}()

	acked := 0
	var full error
	for gen := uint64(1); full == nil; gen++ {
		if gen > 1<<20 {
			t.Fatal("the pinned log never filled")
		}
		if full = put(gen%rows, gen); full == nil {
			acked++
		}
	}
	if !errors.Is(full, wal.ErrLogFull) {
		t.Fatalf("write into the full log: %v, want wal.ErrLogFull", full)
	}
	if acked < 1000 {
		t.Fatalf("only %d writes acknowledged before the 1 MiB log filled", acked)
	}
	for k := uint64(0); k < 8; k++ {
		if err := put(k, 1<<40); !errors.Is(err, wal.ErrLogFull) {
			t.Fatalf("write into the full log: %v, want wal.ErrLogFull", err)
		}
	}
	close(stop)
	if err := <-readerDone; err != nil {
		t.Fatal(err)
	}
	check := func() {
		t.Helper()
		buf := make([]byte, rowSize)
		for k := uint64(0); k < rows; k++ {
			if found, err := table.Lookup(k, buf); err != nil || !found || !bytes.Equal(buf, model[k]) {
				t.Fatalf("key %d does not hold its last acknowledged row: found=%v err=%v", k, found, err)
			}
		}
	}
	check()

	// Unpinned, the log is still full when the next write appends, so that
	// write fails like the others — but the flush that ends its Batch now
	// cuts the log, and the write after it succeeds.
	retain(nil)
	before := s.Metrics().Ckpt.Truncations
	if err := put(0, 1<<41); !errors.Is(err, wal.ErrLogFull) {
		t.Fatalf("first write after the unpin: %v, want wal.ErrLogFull", err)
	}
	if got := s.Metrics().Ckpt.Truncations; got != before+1 {
		t.Fatalf("truncations %d -> %d across the first flush after the unpin, want one more", before, got)
	}
	if err := put(0, 1<<42); err != nil {
		t.Fatalf("write after the log was cut: %v", err)
	}
	check()
}
