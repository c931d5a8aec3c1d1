package nvmstore

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

func openShardedStore(t *testing.T, shards int) *ShardedStore {
	t.Helper()
	s, err := OpenSharded(shards, Options{
		Architecture:      ThreeTier,
		DRAMBytes:         32 << 20,
		NVMBytes:          256 << 20,
		SSDBytes:          1 << 30,
		WALBytes:          4 << 20,
		StrictPersistence: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func shardedRow(key uint64, size int) []byte {
	row := make([]byte, size)
	for i := range row {
		row[i] = byte(key>>uint(8*(i%8))) + byte(i)
	}
	return row
}

func TestShardedBasicOps(t *testing.T) {
	s := openShardedStore(t, 4)
	table, err := s.CreateTable(1, 64)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 500
	for k := uint64(0); k < rows; k++ {
		if err := table.Insert(k, shardedRow(k, 64)); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
	}
	if n, err := table.Count(); err != nil || n != rows {
		t.Fatalf("Count = %d, %v; want %d", n, err, rows)
	}
	buf := make([]byte, 64)
	for k := uint64(0); k < rows; k++ {
		found, err := table.Lookup(k, buf)
		if err != nil || !found {
			t.Fatalf("lookup %d: found=%v err=%v", k, found, err)
		}
		if !bytes.Equal(buf, shardedRow(k, 64)) {
			t.Fatalf("row %d content mismatch", k)
		}
	}
	// Scan must return the hash-scattered keys in global order.
	var prev uint64
	seen := 0
	err = table.Scan(0, 0, 0, 8, func(k uint64, field []byte) bool {
		if seen > 0 && k <= prev {
			t.Fatalf("scan out of order: %d after %d", k, prev)
		}
		prev = k
		seen++
		return true
	})
	if err != nil || seen != rows {
		t.Fatalf("scan visited %d rows, err %v; want %d", seen, err, rows)
	}
	// Every shard should own a slice of the key space.
	for i := 0; i < s.NumShards(); i++ {
		var n int
		if err := s.WithShard(i, func(st *Store) (err error) {
			n, err = st.Table(1).Count()
			return err
		}); err != nil || n == 0 {
			t.Fatalf("shard %d holds %d rows (err %v)", i, n, err)
		}
	}
}

func TestShardedScanLimitAndDelete(t *testing.T) {
	s := openShardedStore(t, 3)
	table, err := s.CreateTable(1, 32)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 100; k++ {
		if err := table.Insert(k, shardedRow(k, 32)); err != nil {
			t.Fatal(err)
		}
	}
	var got []uint64
	if err := table.Scan(40, 10, 0, 4, func(k uint64, _ []byte) bool {
		got = append(got, k)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 || got[0] != 40 || got[9] != 49 {
		t.Fatalf("scan(40, limit 10) = %v", got)
	}
	if found, err := table.Delete(40); err != nil || !found {
		t.Fatalf("delete: found=%v err=%v", found, err)
	}
	if found, _ := table.Lookup(40, make([]byte, 32)); found {
		t.Fatal("deleted key still visible")
	}
	if n, _ := table.Count(); n != 99 {
		t.Fatalf("Count after delete = %d, want 99", n)
	}
}

// TestShardedConcurrent drives goroutines hammering the same sharded
// table with inserts, lookups, field updates, and scans. Run under
// `go test -race` this checks the per-shard locking.
func TestShardedConcurrent(t *testing.T) {
	s := openShardedStore(t, 4)
	table, err := s.CreateTable(1, 64)
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers = 8
		perW    = 300
	)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			buf := make([]byte, 64)
			for i := 0; i < perW; i++ {
				k := uint64(wk*perW + i)
				if err := table.Insert(k, shardedRow(k, 64)); err != nil {
					errs[wk] = fmt.Errorf("insert %d: %w", k, err)
					return
				}
				if found, err := table.Lookup(k, buf); err != nil || !found {
					errs[wk] = fmt.Errorf("lookup %d: found=%v err=%v", k, found, err)
					return
				}
				if _, err := table.UpdateField(k, 8, []byte{0xAB, 0xCD}); err != nil {
					errs[wk] = fmt.Errorf("update %d: %w", k, err)
					return
				}
				if i%64 == 0 {
					if err := table.Scan(k, 16, 0, 8, func(uint64, []byte) bool { return true }); err != nil {
						errs[wk] = fmt.Errorf("scan from %d: %w", k, err)
						return
					}
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
	if n, err := table.Count(); err != nil || n != workers*perW {
		t.Fatalf("Count = %d, %v; want %d", n, err, workers*perW)
	}
}

// TestShardedCrashOneShard kills one shard in the middle of a transaction
// and verifies per-shard recovery: the victim's committed rows and every
// other shard's data survive, while the in-flight transaction is undone.
func TestShardedCrashOneShard(t *testing.T) {
	s := openShardedStore(t, 4)
	table, err := s.CreateTable(1, 64)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 400
	for k := uint64(0); k < rows; k++ {
		if err := table.Insert(k, shardedRow(k, 64)); err != nil {
			t.Fatal(err)
		}
	}

	// Open a transaction on the victim shard and leave it uncommitted
	// mid-flight: insert a row the crash must roll back.
	const victim = 2
	var loserKey uint64
	for k := uint64(rows); ; k++ {
		if s.ShardFor(k) == victim {
			loserKey = k
			break
		}
	}
	err = s.WithShard(victim, func(st *Store) error {
		st.Begin()
		vt := st.Table(1)
		if vt == nil {
			return fmt.Errorf("victim shard lost table 1")
		}
		return vt.Insert(loserKey, shardedRow(loserKey, 64))
	})
	if err != nil {
		t.Fatal(err)
	}

	stats, err := s.CrashRestartShard(victim)
	if err != nil {
		t.Fatalf("crash restart shard %d: %v", victim, err)
	}
	// The in-flight records were never flushed (no commit), so recovery
	// replays only the victim's committed transactions.
	if stats.Committed == 0 {
		t.Fatalf("recovery replayed no committed transactions: %+v", stats)
	}

	// The in-flight insert must be gone; all committed rows must survive
	// on every shard, including the recovered one.
	buf := make([]byte, 64)
	if found, _ := table.Lookup(loserKey, buf); found {
		t.Fatalf("uncommitted key %d survived the crash", loserKey)
	}
	for k := uint64(0); k < rows; k++ {
		found, err := table.Lookup(k, buf)
		if err != nil || !found {
			t.Fatalf("key %d (shard %d) lost after shard-%d crash: found=%v err=%v",
				k, s.ShardFor(k), victim, found, err)
		}
		if !bytes.Equal(buf, shardedRow(k, 64)) {
			t.Fatalf("key %d content corrupted after recovery", k)
		}
	}
	// The surviving shards keep accepting writes.
	if err := table.Insert(rows+1000, shardedRow(rows+1000, 64)); err != nil {
		t.Fatalf("insert after per-shard recovery: %v", err)
	}
}

func TestShardedWholeStoreCrash(t *testing.T) {
	s := openShardedStore(t, 3)
	table, err := s.CreateTable(1, 48)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 300
	for k := uint64(0); k < rows; k++ {
		if err := table.Insert(k, shardedRow(k, 48)); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := s.CrashRestart()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Committed == 0 {
		t.Fatalf("recovery replayed no committed transactions: %+v", stats)
	}
	if n, err := table.Count(); err != nil || n != rows {
		t.Fatalf("Count after crash = %d, %v; want %d", n, err, rows)
	}
}

// walkInt64s visits every int64 field and int64 array element of v (a
// struct, recursing into nested structs and skipping pointers) with its
// dotted path.
func walkInt64s(v reflect.Value, path string, fn func(path string, f reflect.Value)) {
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), path+v.Type().Field(i).Name
		switch f.Kind() {
		case reflect.Struct:
			walkInt64s(f, name+".", fn)
		case reflect.Int64:
			fn(name, f)
		case reflect.Array:
			for j := 0; j < f.Len(); j++ {
				fn(fmt.Sprintf("%s[%d]", name, j), f.Index(j))
			}
		}
	}
}

// TestShardedMetricsAggregate walks every int64 field of Metrics by
// reflection — with core.Stats, wal.Stats, CkptStats and Residency, whose
// Add methods Metrics.add calls, and the per-cause arrays of core.Stats —
// so a counter added to any of its structs cannot be dropped from the
// sharded sum silently: first on synthetic snapshots in which
// every field is distinct and nonzero, then on a live store against the
// per-shard snapshots.
func TestShardedMetricsAggregate(t *testing.T) {
	checkSum := func(got Metrics, parts ...Metrics) {
		t.Helper()
		want := map[string]int64{}
		for i := range parts {
			walkInt64s(reflect.ValueOf(&parts[i]).Elem(), "", func(path string, f reflect.Value) {
				if path == "Read.VersionChainMax" {
					want[path] = max(want[path], f.Int())
				} else {
					want[path] += f.Int()
				}
			})
		}
		walkInt64s(reflect.ValueOf(&got).Elem(), "", func(path string, f reflect.Value) {
			if f.Int() != want[path] {
				t.Errorf("%s = %d, want %d from the per-shard snapshots", path, f.Int(), want[path])
			}
		})
	}

	var a, b Metrics
	n := int64(0)
	for _, m := range []*Metrics{&a, &b} {
		walkInt64s(reflect.ValueOf(m).Elem(), "", func(_ string, f reflect.Value) {
			n++
			f.SetInt(n)
		})
	}
	sum := a
	sum.add(b)
	checkSum(sum, a, b)

	s := openShardedStore(t, 2)
	table, err := s.CreateTable(1, 32)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 200; k++ {
		if err := table.Insert(k, shardedRow(k, 32)); err != nil {
			t.Fatal(err)
		}
	}
	m := s.Metrics()
	if m.Log.Commits < 200 {
		t.Fatalf("aggregated commits = %d, want >= 200", m.Log.Commits)
	}
	if m.Buffer.Fixes == 0 {
		t.Fatal("aggregated buffer fixes = 0")
	}
	// No lookup ran, so the store-level counters Metrics sets on top of
	// the per-shard sum are zero.
	checkSum(m, s.Shard(0).Metrics(), s.Shard(1).Metrics())
}

func TestOpenShardedValidation(t *testing.T) {
	if _, err := OpenSharded(0, Options{Architecture: ThreeTier}); err == nil {
		t.Fatal("OpenSharded(0) should fail")
	}
	s, err := OpenSharded(1, Options{
		Architecture: ThreeTier,
		DRAMBytes:    8 << 20,
		NVMBytes:     64 << 20,
		SSDBytes:     256 << 20,
		WALBytes:     1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumShards() != 1 {
		t.Fatalf("NumShards = %d", s.NumShards())
	}
	if s.ShardFor(12345) != 0 {
		t.Fatal("single shard must own every key")
	}
}

// TestShardedConcurrentMetrics hammers tables from worker goroutines while
// other goroutines continuously aggregate metrics, wear and simulated
// time. Run under -race this verifies that every aggregation path
// snapshots shard state under the shard lock (the Manager.Stats contract).
func TestShardedConcurrentMetrics(t *testing.T) {
	s, err := OpenSharded(4, Options{
		Architecture: ThreeTier,
		DRAMBytes:    32 << 20,
		NVMBytes:     256 << 20,
		SSDBytes:     1 << 30,
		WALBytes:     4 << 20,
		Observe:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	table, err := s.CreateTable(1, 64)
	if err != nil {
		t.Fatal(err)
	}

	const writers, opsPerWriter = 4, 300
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, 64)
			for i := 0; i < opsPerWriter; i++ {
				k := uint64(w*opsPerWriter + i)
				if err := table.Insert(k, shardedRow(k, 64)); err != nil {
					t.Errorf("insert %d: %v", k, err)
					return
				}
				if _, err := table.Lookup(k, buf); err != nil {
					t.Errorf("lookup %d: %v", k, err)
					return
				}
			}
		}(w)
	}
	// Aggregators race against the writers on purpose.
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				m := s.Metrics()
				if m.Buffer.Fixes < 0 {
					t.Error("negative fix count")
				}
				_ = s.WearProfile()
				_ = s.MaxSimulatedTime()
				_ = s.TotalSimulatedTime()
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	m := s.Metrics()
	if m.Latency == nil {
		t.Fatal("Observe store returned nil latency snapshot")
	}
	if n := m.Latency.Ops[0].Count(); n == 0 {
		// Op 0 is dram.hit; a lookup-heavy run must have recorded some.
		t.Error("no dram.hit samples after workload")
	}
	if m.Residency.NVMSlots == 0 {
		t.Error("residency gauges empty")
	}
}
