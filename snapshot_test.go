package nvmstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"nvmstore/internal/core"
)

// snapRow builds a row whose first 8 bytes carry a little-endian
// generation stamp, so a scan can tell which version of a key it saw.
func snapRow(key, gen uint64, size int) []byte {
	row := make([]byte, size)
	binary.LittleEndian.PutUint64(row, gen)
	for i := 8; i < size; i++ {
		row[i] = byte(key) + byte(gen) + byte(i)
	}
	return row
}

// TestSnapshotFrozenPrefix opens a snapshot, then updates every row and
// inserts new keys behind it. The snapshot scan must keep returning the
// pre-snapshot generation for every original key, must never surface the
// born-after keys, and two scans of the same snapshot must be identical.
func TestSnapshotFrozenPrefix(t *testing.T) {
	s := openShardedStore(t, 2)
	defer s.Close()
	table, err := s.CreateTable(1, 64)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 600
	for k := uint64(0); k < rows; k++ {
		if err := table.Insert(k, snapRow(k, 1, 64)); err != nil {
			t.Fatal(err)
		}
	}

	sn, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()
	for _, lsn := range sn.LSNs() {
		if lsn == 0 {
			t.Fatal("snapshot pinned a zero commit LSN")
		}
	}

	// Mutate everything behind the snapshot: bump every original row to
	// generation 2 and insert a tail of born-after keys.
	for k := uint64(0); k < rows; k++ {
		if err := table.Put(k, snapRow(k, 2, 64)); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(rows); k < rows+200; k++ {
		if err := table.Insert(k, snapRow(k, 2, 64)); err != nil {
			t.Fatal(err)
		}
	}

	scan := func() map[uint64]uint64 {
		got := make(map[uint64]uint64, rows)
		err := table.ScanSnapshot(sn, 0, 0, 0, 64, func(k uint64, row []byte) bool {
			got[k] = binary.LittleEndian.Uint64(row)
			return true
		})
		if err != nil {
			t.Fatalf("snapshot scan: %v", err)
		}
		return got
	}
	first := scan()
	if len(first) != rows {
		t.Fatalf("snapshot scan saw %d keys, want %d (born-after keys must be invisible)", len(first), rows)
	}
	for k, gen := range first {
		if k >= rows {
			t.Fatalf("snapshot scan surfaced born-after key %d", k)
		}
		if gen != 1 {
			t.Fatalf("key %d: snapshot saw generation %d, want the pre-snapshot generation 1", k, gen)
		}
	}
	second := scan()
	if len(second) != len(first) {
		t.Fatalf("repeated scans of one snapshot disagree: %d vs %d keys", len(second), len(first))
	}
	// The live table meanwhile serves the new world.
	buf := make([]byte, 64)
	if found, err := table.Lookup(5, buf); err != nil || !found {
		t.Fatalf("live lookup: found=%v err=%v", found, err)
	}
	if gen := binary.LittleEndian.Uint64(buf); gen != 2 {
		t.Fatalf("live read saw generation %d, want 2", gen)
	}
}

// TestSnapshotConcurrentWithWritersAndMaintainer races snapshot scans
// against writer goroutines whose commits run checkpoint rounds (the low
// soft threshold keeps write-back going throughout). Run under
// -race this checks the whole read path's locking discipline; the
// assertions check that each scan sees a self-consistent frozen prefix
// (every original key exactly once, at some single observed generation
// per key never newer than the moment the scan finished) and that all
// saved versions are reclaimed once the snapshots close.
func TestSnapshotConcurrentWithWritersAndMaintainer(t *testing.T) {
	s := openMaintStore(t, 2, MaintenanceOptions{SoftFill: 0.02, HardFill: 0.5})
	table, err := s.CreateTable(1, 64)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 400
	for k := uint64(0); k < rows; k++ {
		if err := table.Insert(k, snapRow(k, 1, 64)); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			gen := uint64(2)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for k := uint64(w); k < rows; k += 2 {
					if err := table.Put(k, snapRow(k, gen, 64)); err != nil {
						t.Errorf("update %d: %v", k, err)
						return
					}
				}
				gen++
			}
		}(w)
	}

	for i := 0; i < 20; i++ {
		sn, err := s.Snapshot()
		if err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		// A write behind the open snapshot deterministically forces at
		// least one copy-on-write image, whatever the goroutine timing.
		if err := table.Put(uint64(i), snapRow(uint64(i), 100+uint64(i), 64)); err != nil {
			t.Fatalf("put behind snapshot %d: %v", i, err)
		}
		seen := make(map[uint64]uint64, rows)
		err = table.ScanSnapshot(sn, 0, 0, 0, 64, func(k uint64, row []byte) bool {
			if _, dup := seen[k]; dup {
				t.Errorf("snapshot %d: key %d visited twice", i, k)
			}
			seen[k] = binary.LittleEndian.Uint64(row)
			return true
		})
		sn.Close()
		if err != nil {
			t.Fatalf("snapshot scan %d: %v", i, err)
		}
		if len(seen) != rows {
			t.Fatalf("snapshot %d saw %d keys, want %d", i, len(seen), rows)
		}
		for k, gen := range seen {
			if gen < 1 {
				t.Fatalf("snapshot %d: key %d has unwritten generation %d", i, k, gen)
			}
		}
	}
	close(stop)
	wg.Wait()

	m := s.Metrics()
	if m.Ckpt.Rounds == 0 {
		t.Fatal("no checkpoint round ran beside the scans")
	}
	if m.Read.SnapshotReads == 0 {
		t.Fatal("no snapshot reads counted")
	}
	if m.Read.VersionsSaved == 0 {
		t.Fatal("writers behind open snapshots saved no copy-on-write images")
	}
	if m.Read.VersionsLive != 0 {
		t.Fatalf("%d versions still live after every snapshot closed (saved %d, reclaimed %d)",
			m.Read.VersionsLive, m.Read.VersionsSaved, m.Read.VersionsReclaimed)
	}
	if m.Read.ActiveSnapshots != 0 {
		t.Fatalf("%d snapshots still registered as active", m.Read.ActiveSnapshots)
	}
}

// TestSnapshotWritersNotBlockedByScan parks a snapshot scan in the
// middle of its callback and proves writers still commit: the scan holds
// no shard lock while the caller consumes rows, so a slow reader cannot
// throttle the write path.
func TestSnapshotWritersNotBlockedByScan(t *testing.T) {
	s := openShardedStore(t, 2)
	defer s.Close()
	table, err := s.CreateTable(1, 64)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 300
	for k := uint64(0); k < rows; k++ {
		if err := table.Insert(k, snapRow(k, 1, 64)); err != nil {
			t.Fatal(err)
		}
	}
	sn, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()

	paused := make(chan struct{})  // closed once the scan reaches its first row
	release := make(chan struct{}) // closed once the writes below committed
	done := make(chan error, 1)
	go func() {
		n := 0
		done <- table.ScanSnapshot(sn, 0, 0, 0, 64, func(uint64, []byte) bool {
			if n == 0 {
				close(paused)
				<-release
			}
			n++
			return true
		})
	}()
	<-paused
	// The scan is mid-flight and parked. Every write must still commit
	// promptly; a deadlock here trips the test timeout.
	for k := uint64(0); k < rows; k++ {
		if err := table.Put(k, snapRow(k, 9, 64)); err != nil {
			t.Fatalf("update %d while scan parked: %v", k, err)
		}
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("parked scan failed: %v", err)
	}
}

// TestSnapshotInvalidatedByRestart proves a crash-restart fences open
// snapshots: the version store's epoch bump makes every subsequent
// ScanSnapshot on the old handle fail with ErrSnapshotInvalid instead of
// silently mixing pre- and post-recovery images.
func TestSnapshotInvalidatedByRestart(t *testing.T) {
	s := openShardedStore(t, 2)
	defer s.Close()
	table, err := s.CreateTable(1, 64)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 200; k++ {
		if err := table.Insert(k, snapRow(k, 1, 64)); err != nil {
			t.Fatal(err)
		}
	}
	sn, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()
	if _, err := s.CrashRestart(); err != nil {
		t.Fatal(err)
	}
	err = table.ScanSnapshot(sn, 0, 0, 0, 64, func(uint64, []byte) bool { return true })
	if !errors.Is(err, ErrSnapshotInvalid) {
		t.Fatalf("scan on a pre-crash snapshot returned %v, want ErrSnapshotInvalid", err)
	}
	// The store itself recovered: fresh snapshots work.
	sn2, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer sn2.Close()
	seen := 0
	if err := table.ScanSnapshot(sn2, 0, 0, 0, 64, func(uint64, []byte) bool {
		seen++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if seen != 200 {
		t.Fatalf("post-recovery snapshot saw %d rows, want 200", seen)
	}
}

// TestScanResumesAcrossShardRestart restarts shards under a running
// ShardedTable.Scan — from the scan's own callback, then from another
// goroutine — and checks the contract of the resume: every key from the
// start key on exactly once, ascending, with its committed row, and no
// more than limit of them. In the callback runs the last key the scan
// will reach is rewritten right after the restart; the scan must return
// the new row, which it can only have read through a snapshot opened
// after the one the restart invalidated.
func TestScanResumesAcrossShardRestart(t *testing.T) {
	const (
		shards  = 3
		rows    = 4000
		rowSize = 1000 // at most 16 rows a leaf: a refill buffers at most 256 rows of a shard
	)
	s := openShardedStore(t, shards)
	defer s.Close()
	table, err := s.CreateTable(1, rowSize)
	if err != nil {
		t.Fatal(err)
	}
	gens := make([]uint64, rows) // the committed generation of each key
	for k := uint64(0); k < rows; k++ {
		gens[k] = 1
		if err := table.Insert(k, snapRow(k, 1, rowSize)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// scan runs one Scan and checks everything it emits; during is called
	// with the number of rows emitted so far, after each row's checks.
	scan := func(from uint64, limit int, during func(n int)) {
		t.Helper()
		want := rows - int(from)
		if limit > 0 && want > limit {
			want = limit
		}
		n := 0
		err := table.Scan(from, limit, 0, rowSize, func(k uint64, row []byte) bool {
			if k != from+uint64(n) {
				t.Fatalf("from %d limit %d: row %d has key %d, want %d", from, limit, n, k, from+uint64(n))
			}
			if gen := binary.LittleEndian.Uint64(row); gen != gens[k] {
				t.Fatalf("from %d limit %d: key %d read at generation %d, committed is %d", from, limit, k, gen, gens[k])
			}
			n++
			during(n)
			return true
		})
		if err != nil {
			t.Fatalf("from %d limit %d: %v", from, limit, err)
		}
		if n != want {
			t.Fatalf("from %d limit %d: emitted %d rows, want %d", from, limit, n, want)
		}
	}

	for _, q := range []struct {
		from  uint64
		limit int
	}{{0, 0}, {300, 0}, {0, 3000}, {300, 3000}} {
		// The last key is at least 1500 rows ahead of every restart
		// below, about twice what the cursors can have buffered.
		last := uint64(rows - 1)
		if q.limit > 0 {
			last = q.from + uint64(q.limit) - 1
		}
		for _, at := range []int{1, 100, 1500} {
			scan(q.from, q.limit, func(n int) {
				if n != at {
					return
				}
				if _, err := s.CrashRestartShard(n % shards); err != nil {
					t.Fatal(err)
				}
				gens[last]++
				if err := table.Put(last, snapRow(last, gens[last], rowSize)); err != nil {
					t.Fatal(err)
				}
			})
		}
	}

	// A restarter goroutine: the scan's callback hands it a kick every 64
	// rows and carries on, so each restart runs while the scan merges,
	// refills or resumes, and every scan spans dozens of them.
	kick, restarted := make(chan struct{}), make(chan error, 1)
	go func() {
		var err error
		for i := 0; err == nil; i++ {
			if _, ok := <-kick; !ok {
				break
			}
			_, err = s.CrashRestartShard(i % shards)
		}
		restarted <- err
		for range kick { // a failed restarter must not park the scan
		}
	}()
	func() {
		defer close(kick) // also when a check below fails the test
		for _, limit := range []int{0, 1700} {
			scan(5, limit, func(n int) {
				if n%64 == 0 {
					kick <- struct{}{}
				}
			})
		}
	}()
	if err := <-restarted; err != nil {
		t.Fatal(err)
	}
}

// allocatedBy returns the heap bytes one run of fn allocates. The runtime
// counts allocations process-wide, so like testing.AllocsPerRun it runs fn
// on a single P, and it takes the least of three runs: goroutines other
// tests left behind can only add to a run.
func allocatedBy(fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestSnapshotScanReadsOnlyWhatItReturns pins the cost of a bounded
// snapshot scan to its result, not to readLeafBatch: on a 2-shard store
// whose leaves hold 16 rows each, a 50-row scan reads at most the leaves
// that hold 50 rows plus two per shard (one for starting mid-leaf, one
// for the slack and a possible refill), and allocates a handful of
// objects, none of them per row or per leaf.
func TestSnapshotScanReadsOnlyWhatItReturns(t *testing.T) {
	const (
		shards      = 2
		rowSize     = 500 // 32 rows fill a leaf; ascending inserts leave 16 in each
		rowsPerLeaf = 16
		rows        = 4000
		limit       = 50
	)
	s := openShardedStore(t, shards)
	defer s.Close()
	table, err := s.CreateTable(1, rowSize)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < rows; k++ {
		if err := table.Insert(k, snapRow(k, 1, rowSize)); err != nil {
			t.Fatal(err)
		}
	}
	sn, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()

	const maxLeaves = (limit+rowsPerLeaf-1)/rowsPerLeaf + 2*shards
	for from := uint64(0); from+limit <= rows; from += 37 {
		before := s.Metrics().Read.SnapshotReads
		next := from
		if err := table.ScanSnapshot(sn, from, limit, 0, rowSize, func(k uint64, _ []byte) bool {
			if k != next {
				t.Fatalf("scan from %d emitted key %d, want %d", from, k, next)
			}
			next++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if next != from+limit {
			t.Fatalf("scan from %d emitted %d rows, want %d", from, next-from, limit)
		}
		if leaves := s.Metrics().Read.SnapshotReads - before; leaves > maxLeaves {
			t.Fatalf("a %d-row scan from %d read %d leaves, want at most %d", limit, from, leaves, maxLeaves)
		}
	}

	allocs := testing.AllocsPerRun(100, func() {
		if err := table.ScanSnapshot(sn, rows/2, limit, 0, rowSize, func(uint64, []byte) bool { return true }); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Fatalf("a %d-row snapshot scan makes %.0f allocations, want at most 8", limit, allocs)
	}
}

// TestSnapshotScanSkipsLeavesBelowStart covers the start leaf born after
// the snapshot: the leaf routing the start key was split off behind the
// snapshot, so the scan falls back to the chain head and walks every leaf
// before the start key. It must pass them without copying a row out of
// them — what the scan allocates stays within twice what it returns,
// however many leaves lie in front.
func TestSnapshotScanSkipsLeavesBelowStart(t *testing.T) {
	const (
		rowSize = 500
		stride  = 10
		rows    = 3000 // ~190 leaves in front of the start key
		limit   = 50
		from    = (rows - 100) * stride
	)
	s := openShardedStore(t, 1)
	defer s.Close()
	table, err := s.CreateTable(1, rowSize)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < rows; k++ {
		if err := table.Insert(k*stride, snapRow(k*stride, 1, rowSize)); err != nil {
			t.Fatal(err)
		}
	}
	sn, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()
	// Fill the gaps around the start key until its leaf splits and the
	// key routes to a leaf that did not exist at the snapshot.
	bornAfter := func() bool {
		born := false
		err := s.WithShard(0, func(st *Store) error {
			pid, err := st.Table(1).t.LeafFor(from)
			v := st.e.Versions()
			_, saved := v.ImageAsOf(pid, sn.snaps[0].stamp)
			born = v.VerOf(pid) > sn.snaps[0].stamp && !saved
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return born
	}
	for k := uint64(from - 20*stride); !bornAfter(); k++ {
		if k > from+20*stride {
			t.Fatal("the start key's leaf never split")
		}
		if k%stride != 0 {
			if err := table.Insert(k, snapRow(k, 2, rowSize)); err != nil {
				t.Fatal(err)
			}
		}
	}

	var next uint64
	var got int
	allocated := allocatedBy(func() {
		next, got = from, 0
		err = table.ScanSnapshot(sn, from, limit, 0, rowSize, func(k uint64, row []byte) bool {
			if k != next || binary.LittleEndian.Uint64(row) != 1 {
				t.Errorf("row %d: key %d generation %d, want key %d generation 1", got, k, binary.LittleEndian.Uint64(row), next)
			}
			next += stride
			got++
			return true
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != limit {
		t.Fatalf("scan emitted %d rows, want %d", got, limit)
	}
	if returned := uint64(limit * rowSize); allocated > 2*returned {
		t.Fatalf("scan allocated %d bytes to return %d: it still copies the leaves it passes", allocated, returned)
	}
}

// TestAscendingInsertsBesideSnapshotScans has two writers insert
// interleaved ascending keys (even and odd) through a 2-shard table, so
// nearly every split is a rightmost leaf's 9:1 split, while a third
// goroutine scans snapshots. Per shard a snapshot is a commit prefix, so
// each scan must see, for every shard and writer, a prefix of the keys
// that writer routes there, in ascending order and with their rows; the
// last scan must see every key.
func TestAscendingInsertsBesideSnapshotScans(t *testing.T) {
	const (
		shards  = 2
		writers = 2
		rowSize = 1000
		rows    = 3000
	)
	s := openShardedStore(t, shards)
	defer s.Close()
	table, err := s.CreateTable(1, rowSize)
	if err != nil {
		t.Fatal(err)
	}
	// seq[i][w] lists, ascending, the keys writer w inserts into shard i.
	var seq [shards][writers][]uint64
	for k := uint64(0); k < rows; k++ {
		i, w := s.ShardFor(k), k%writers
		seq[i][w] = append(seq[i][w], k)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := uint64(w); k < rows; k += writers {
				if err := table.Insert(k, snapRow(k, 1, rowSize)); err != nil {
					t.Errorf("insert %d: %v", k, err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	// scan checks one snapshot against the model and returns its row count.
	scan := func() int {
		sn, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		defer sn.Close()
		var next [shards][writers]int
		n := 0
		err = table.ScanSnapshot(sn, 0, 0, 0, rowSize, func(k uint64, row []byte) bool {
			i, w := s.ShardFor(k), k%writers
			if j := next[i][w]; j >= len(seq[i][w]) || seq[i][w][j] != k {
				t.Fatalf("snapshot row %d is key %d, not the next key writer %d put in shard %d", n, k, w, i)
			}
			if !bytes.Equal(row, snapRow(k, 1, rowSize)) {
				t.Fatalf("key %d: wrong row", k)
			}
			next[i][w]++
			n++
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	scans := 0
	for writing := true; writing; scans++ {
		select {
		case <-done:
			writing = false
		default:
		}
		scan()
	}
	if n := scan(); n != rows {
		t.Fatalf("after the writers finished a snapshot saw %d rows, want %d", n, rows)
	}
	t.Logf("%d snapshot scans beside the writers", scans)
}

// TestUnboundedSnapshotScanMemoryBounded scans a whole table of several
// hundred leaves with no limit and samples the live heap from inside the
// callback: the scan buffers at most readLeafBatch leaves' worth of rows
// per shard at a time, so the heap it holds on to is bounded by shards x
// batch, not by the table.
func TestUnboundedSnapshotScanMemoryBounded(t *testing.T) {
	const (
		shards  = 2
		rowSize = 1000 // 16 rows a leaf; ascending inserts leave 14 in each
		rows    = 4000 // ~290 leaves, 4.7 MB of pages
	)
	s := openShardedStore(t, shards)
	defer s.Close()
	table, err := s.CreateTable(1, rowSize)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < rows; k++ {
		if err := table.Insert(k, snapRow(k, 1, rowSize)); err != nil {
			t.Fatal(err)
		}
	}
	sn, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()
	liveHeap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	base := liveHeap()
	seen, grown := 0, uint64(0)
	if err := table.ScanSnapshot(sn, 0, 0, 0, rowSize, func(uint64, []byte) bool {
		if seen++; seen%500 == 0 {
			if live := liveHeap(); live > base && live-base > grown {
				grown = live - base
			}
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if seen != rows {
		t.Fatalf("scan saw %d rows, want %d", seen, rows)
	}
	if bound := uint64(shards * readLeafBatch * core.PageSize); grown > bound {
		t.Fatalf("unbounded scan of %d rows holds %d bytes of heap, want at most %d (shards x readLeafBatch leaves)",
			rows, grown, bound)
	}
}

// TestSnapshotScanFromWidenedLeaf: two ascending writers (even and odd
// keys, the lead wandering up to 16 keys) fill a one-shard table, a
// snapshot is opened, and the writers go on. Their late keys then move a
// full leaf's upper rows into the rightmost leaf, which widens that leaf's
// routed range below keys an older snapshot found in its left neighbour.
// A snapshot scan from such a key must not start at the widened leaf:
// every start, limit 8, must return exactly the snapshot's next rows.
func TestSnapshotScanFromWidenedLeaf(t *testing.T) {
	const (
		rowSize = 1000
		before  = 3000 // rows in the snapshot
		rows    = 3400
		limit   = 8
	)
	s := openShardedStore(t, 1)
	defer s.Close()
	table, err := s.CreateTable(1, rowSize)
	if err != nil {
		t.Fatal(err)
	}
	keys := laggedAscendingKeys(rows, 16, 1)
	for _, k := range keys[:before] {
		if err := table.Insert(k, snapRow(k, 1, rowSize)); err != nil {
			t.Fatal(err)
		}
	}
	model := append([]uint64(nil), keys[:before]...)
	slices.Sort(model)
	sn, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()
	for _, k := range keys[before:] {
		if err := table.Insert(k, snapRow(k, 2, rowSize)); err != nil {
			t.Fatal(err)
		}
	}
	for from := uint64(0); from < rows; from++ {
		i, _ := slices.BinarySearch(model, from)
		want := model[i:min(i+limit, len(model))]
		var got []uint64
		err := table.ScanSnapshot(sn, from, limit, 0, 8, func(k uint64, field []byte) bool {
			if gen := binary.LittleEndian.Uint64(field); gen != 1 {
				t.Errorf("from %d: key %d of generation %d", from, k, gen)
			}
			got = append(got, k)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("snapshot scan from %d returned %v, want %v", from, got, want)
		}
	}
}

// laggedAscendingKeys returns n keys as two ascending writers deliver
// them: one writes the even keys, the other the odd ones, each step is a
// random writer's next key, and neither runs more than lead keys ahead of
// the other.
func laggedAscendingKeys(n int, lead uint64, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]uint64, 0, n)
	next := [2]uint64{0, 1}
	for len(keys) < n {
		w := rng.Intn(2)
		if next[w] >= next[1-w]+lead {
			w = 1 - w
		}
		keys = append(keys, next[w])
		next[w] += 2
	}
	return keys
}
