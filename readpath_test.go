package nvmstore

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"time"
)

// TestPointReadsGoThroughBufferManager pins the one point-read path: on
// every architecture, repeated ShardedTable.Lookups of one key cost the
// buffer manager exactly what the same number of Table.Lookups under the
// shard lock do — no read is answered from anywhere else — and a Lookup
// after a Put returns the new row.
func TestPointReadsGoThroughBufferManager(t *testing.T) {
	const (
		rows    = 500
		rowSize = 64
		key     = 7
		n       = 50
	)
	for _, arch := range []Architecture{ThreeTier, MainMemory, NVMDirect, BasicNVMBuffer, SSDBuffer} {
		t.Run(arch.String(), func(t *testing.T) {
			s, err := OpenSharded(2, Options{
				Architecture: arch,
				DRAMBytes:    16 << 20,
				NVMBytes:     64 << 20,
				SSDBytes:     256 << 20,
				WALBytes:     2 << 20,
			})
			if err != nil {
				t.Fatal(err)
			}
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
			buf := make([]byte, rowSize)
			lookup := func(want []byte) {
				t.Helper()
				found, err := table.Lookup(key, buf)
				if err != nil || !found {
					t.Fatalf("lookup: found=%v err=%v", found, err)
				}
				if !bytes.Equal(buf, want) {
					t.Fatal("lookup returned the wrong row")
				}
			}
			lookup(snapRow(key, 1, rowSize))
			if err := table.Put(key, snapRow(key, 2, rowSize)); err != nil {
				t.Fatal(err)
			}
			want := snapRow(key, 2, rowSize)
			lookup(want) // a read after a write sees the write

			// What n reads cost the storage layer: page fixes, NVM cache
			// lines requested, simulated device time.
			type cost struct {
				fixes, lines int64
				sim          time.Duration
			}
			measure := func(read func()) cost {
				m0, t0 := s.Metrics(), s.MaxSimulatedTime()
				for i := 0; i < n; i++ {
					read()
				}
				m1 := s.Metrics()
				return cost{m1.Buffer.Fixes - m0.Buffer.Fixes, m1.NVMLinesRead - m0.NVMLinesRead, s.MaxSimulatedTime() - t0}
			}
			got := measure(func() { lookup(want) })
			ref := measure(func() {
				err := s.WithShard(s.ShardFor(key), func(st *Store) error {
					found, err := st.Table(1).Lookup(key, buf)
					if err == nil && !found {
						err = fmt.Errorf("key %d not found", key)
					}
					return err
				})
				if err != nil {
					t.Fatal(err)
				}
			})
			if ref.fixes < n {
				t.Fatalf("%d Table.Lookups fixed %d pages; the reference itself is off", n, ref.fixes)
			}
			// In-place reads request NVM lines every time (the device's
			// simulated CPU cache may serve them, at no simulated time).
			if arch == NVMDirect && ref.lines < n {
				t.Fatalf("%d in-place Table.Lookups requested %d NVM lines", n, ref.lines)
			}
			if got != ref {
				t.Fatalf("%d ShardedTable.Lookups cost %+v, %d Table.Lookups under the shard lock %+v: a read bypassed the buffer manager",
					n, got, n, ref)
			}
		})
	}
}

// TestScanAndSnapshotScanMatchModel checks Scan and ScanSnapshot against a
// model — the sorted keys that were inserted and the rows snapRow builds
// for them — whatever the architecture, leaf layout, shard count, start
// key and limit. The limits include ones the first cursor refill cannot
// cover (more than a shard's share plus slack, more than readLeafBatch
// leaves, and no limit at all), so the merge refills mid-scan. It runs on
// a quiescent store, then holds one snapshot while a writer updates every
// row and splits leaves behind it — the snapshot must keep reading the
// rows it was opened on — and at the end Scan must read the writer's.
func TestScanAndSnapshotScanMatchModel(t *testing.T) {
	const (
		rows     = 1500
		rowSize  = 512 // 31 rows a leaf, ≈ 27 after ascending inserts: 18–55 leaves a shard
		stride   = 3   // keys 0, 3, 6, ...: some start keys fall between rows
		fieldOff = 8
		fieldLen = 16
	)
	type query struct {
		from  uint64
		limit int
	}
	var queries []query
	for _, from := range []uint64{0, 4, rows * stride / 2, (rows - 3) * stride, rows*stride + 100} {
		for _, limit := range []int{0, 1, 7, 50, 400, rows + 10} {
			queries = append(queries, query{from, limit})
		}
	}
	type scanFunc func(q query, fn func(uint64, []byte) bool) error
	// check runs q through scan and compares what it emits with the
	// model: the keys >= q.from of the ascending slice keys, up to the
	// limit, each with generation gen's field.
	check := func(t *testing.T, name string, q query, scan scanFunc, keys []uint64, gen uint64) {
		t.Helper()
		want := keys[sort.Search(len(keys), func(i int) bool { return keys[i] >= q.from }):]
		if q.limit > 0 && len(want) > q.limit {
			want = want[:q.limit]
		}
		n := 0
		err := scan(q, func(k uint64, f []byte) bool {
			if n < len(want) {
				if k != want[n] {
					t.Fatalf("%s from %d limit %d: row %d has key %d, want %d", name, q.from, q.limit, n, k, want[n])
				}
				if !bytes.Equal(f, snapRow(k, gen, rowSize)[fieldOff:fieldOff+fieldLen]) {
					t.Fatalf("%s from %d limit %d: key %d does not carry generation %d's field", name, q.from, q.limit, k, gen)
				}
			}
			n++
			return true
		})
		if err != nil {
			t.Fatalf("%s from %d limit %d: %v", name, q.from, q.limit, err)
		}
		if n != len(want) {
			t.Fatalf("%s from %d limit %d: emitted %d rows, want %d", name, q.from, q.limit, n, len(want))
		}
	}
	for _, arch := range []Architecture{ThreeTier, MainMemory, NVMDirect, BasicNVMBuffer, SSDBuffer} {
		for _, layout := range []LeafLayout{LayoutSorted, LayoutHash} {
			for _, shards := range []int{1, 3} {
				t.Run(fmt.Sprintf("%s/layout%d/shards%d", arch, layout, shards), func(t *testing.T) {
					s, err := OpenSharded(shards, Options{
						Architecture:      arch,
						DRAMBytes:         32 << 20,
						NVMBytes:          256 << 20,
						SSDBytes:          1 << 30,
						WALBytes:          4 << 20,
						StrictPersistence: true,
					})
					if err != nil {
						t.Fatal(err)
					}
					defer s.Close()
					table, err := s.CreateTableLayout(1, rowSize, layout)
					if err != nil {
						t.Fatal(err)
					}
					var loaded, rewritten []uint64
					for i := uint64(0); i < rows; i++ {
						if err := table.Insert(i*stride, snapRow(i*stride, 1, rowSize)); err != nil {
							t.Fatal(err)
						}
						loaded = append(loaded, i*stride)
						rewritten = append(rewritten, i*stride, i*stride+1)
					}
					live := func(q query, fn func(uint64, []byte) bool) error {
						return table.Scan(q.from, q.limit, fieldOff, fieldLen, fn)
					}
					asOf := func(sn *Snapshot) scanFunc {
						return func(q query, fn func(uint64, []byte) bool) error {
							return table.ScanSnapshot(sn, q.from, q.limit, fieldOff, fieldLen, fn)
						}
					}

					sn, err := s.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					defer sn.Close()
					for _, q := range queries {
						check(t, "Scan", q, live, loaded, 1)
						check(t, "ScanSnapshot", q, asOf(sn), loaded, 1)
					}

					written := make(chan error, 1)
					go func() {
						for i := uint64(0); i < rows; i++ {
							if err := table.Put(i*stride, snapRow(i*stride, 2, rowSize)); err != nil {
								written <- err
								return
							}
							if err := table.Insert(i*stride+1, snapRow(i*stride+1, 2, rowSize)); err != nil {
								written <- err
								return
							}
						}
						written <- nil
					}()
					for writing := true; writing; {
						select {
						case err := <-written:
							if err != nil {
								t.Fatal(err)
							}
							writing = false // one more sweep, over the final tree
						default:
						}
						for _, q := range queries {
							check(t, "ScanSnapshot behind a writer", q, asOf(sn), loaded, 1)
						}
					}
					if s.Metrics().Read.VersionsSaved == 0 {
						t.Fatal("the writer saved no copy-on-write image: the snapshot only ever read live pages")
					}
					for _, q := range queries {
						check(t, "Scan after the writer", q, live, rewritten, 2)
					}
				})
			}
		}
	}
}

// TestTableHandleDuringShardRestart resolves table handles while shard 0
// is repeatedly crash-restarted: a restart replaces the shard's table map
// under the shard lock, so ShardedStore.Table must read it under that
// lock — it may never race with the restart (-race) nor miss a table
// that exists.
func TestTableHandleDuringShardRestart(t *testing.T) {
	s := openShardedStore(t, 2)
	defer s.Close()
	table, err := s.CreateTable(1, 64)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 100; k++ {
		if err := table.Insert(k, snapRow(k, 1, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	restarted := make(chan error, 1)
	go func() {
		for i := 0; i < 50; i++ {
			if _, err := s.CrashRestartShard(0); err != nil {
				restarted <- err
				return
			}
		}
		restarted <- nil
	}()
	for {
		select {
		case err := <-restarted:
			if err != nil {
				t.Fatal(err)
			}
			return
		default:
		}
		if s.Table(1) == nil {
			<-restarted
			t.Fatal("Table(1) returned nil for a table that exists")
		}
	}
}
