package bench

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nvmstore"
)

// Read-scalability experiment fixtures: a small sharded store under
// continuous uniform update load, scanned concurrently.
const (
	readScaleShards  = 2
	readScaleRowSize = 128
)

// ReadScale measures what scans cost writers: full-table
// ShardedTable.Scans run concurrently with uniform single-row update
// transactions. A scan pins a stable read point and takes a shard's lock
// only to copy the next batch of rows out of the as-of leaves, running
// the callback outside it; writers keep committing against the live
// pages, saving a copy-on-write image for the first post-snapshot touch
// of each leaf.
//
// X is the number of concurrent scanners, 0 being the writers alone. The
// series are sustained writes/s, completed scans/s and the p99 latency of
// a write, all counted over a fixed wall-clock window per cell.
// Throughput is wall-clock — lock interference is a wall-time
// phenomenon; the version-store counters (images saved/reclaimed,
// snapshot reads) are reported in the notes.
//
// The expected shape: write throughput falls with the CPU the scanners
// take, not to zero, and scans complete at a steady rate because no lock
// hold of theirs exceeds one batch of leaf reads.
func ReadScale(o Options) (Result, error) {
	o.applyDefaults()
	res := Result{
		ID: "readscale",
		Title: fmt.Sprintf("write and scan throughput vs concurrent scanners (%d shards, %d B rows)",
			readScaleShards, readScaleRowSize),
		XLabel: "concurrent scanners",
		YLabel: "ops/s (wall)",
	}
	scanners := []int{0, 1, 2, 4}
	window := 1500 * time.Millisecond
	if o.Quick {
		scanners = []int{0, 1, 4}
		window = 1 * time.Second
	}
	rows := int(o.Scale >> 10) // data = Scale/32 bytes at 128 B/row: DRAM-resident
	if rows < 1024 {
		rows = 1024
	}
	writeSeries := Series{Name: "writes/s"}
	scanSeries := Series{Name: "scans/s"}
	p99Series := Series{Name: "write p99 ns"}
	for _, n := range scanners {
		cell, err := readScaleRun(o, rows, n, window)
		if err != nil {
			return res, fmt.Errorf("readscale %d scanners: %w", n, err)
		}
		x := float64(n)
		writeSeries.X, writeSeries.Y = append(writeSeries.X, x), append(writeSeries.Y, cell.wps)
		scanSeries.X, scanSeries.Y = append(scanSeries.X, x), append(scanSeries.Y, cell.sps)
		p99Series.X, p99Series.Y = append(p99Series.X, x), append(p99Series.Y, float64(cell.p99))
		res.Notes = append(res.Notes, fmt.Sprintf("%d scanners: %s", n, cell.note))
	}
	res.Series = []Series{writeSeries, scanSeries, p99Series}
	return res, nil
}

// readScaleCell is one measured cell of the readscale sweep.
type readScaleCell struct {
	wps, sps float64
	p99      int64
	note     string
}

// readScaleRun measures one cell: a fresh preloaded store, writer
// goroutines looping uniform single-row update transactions, and n
// scanner goroutines looping full scans, all racing for the length of
// the measurement window.
func readScaleRun(o Options, rows, n int, window time.Duration) (cell readScaleCell, err error) {
	s, err := nvmstore.OpenSharded(readScaleShards, nvmstore.Options{
		Architecture: nvmstore.ThreeTier,
		DRAMBytes:    2 * o.Scale,
		NVMBytes:     10 * o.Scale,
		SSDBytes:     50 * o.Scale,
	})
	if err != nil {
		return cell, err
	}
	defer s.Close()
	table, err := s.CreateTable(1, readScaleRowSize)
	if err != nil {
		return cell, err
	}
	row := make([]byte, readScaleRowSize)
	const chunk = 512
	keys := make([]uint64, 0, chunk)
	rws := make([][]byte, 0, chunk)
	for k := 0; k < rows; k += chunk {
		keys, rws = keys[:0], rws[:0]
		for j := k; j < k+chunk && j < rows; j++ {
			for i := range row {
				row[i] = byte(j) + byte(i)
			}
			keys = append(keys, uint64(j))
			rws = append(rws, append([]byte(nil), row...))
		}
		if err := table.PutBatch(keys, rws); err != nil {
			return cell, err
		}
	}

	writers := o.Threads
	if writers < 2 {
		writers = 2
	}
	seed := o.Seed
	if seed == 0 {
		seed = 1
	}

	// write runs one single-row uniform update transaction.
	write := func(rng *uint64, val []byte) error {
		*rng += 0x9e3779b97f4a7c15
		x := *rng
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
		key := x % uint64(rows)
		for i := range val {
			val[i] = byte(x) + byte(i)
		}
		_, werr := table.UpdateField(key, int(x>>32)%(readScaleRowSize-8), val)
		return werr
	}

	// Warm up single-threaded, then race writers against scanners.
	rng := seed * 0x2545f4914f6cdd1d
	val := make([]byte, 8)
	for i := 0; i < o.Warmup/4; i++ {
		if err := write(&rng, val); err != nil {
			return cell, err
		}
	}

	var (
		wrote    atomic.Int64
		scans    atomic.Int64
		scanRows atomic.Int64
		firstErr atomic.Value
		stop     = make(chan struct{})
		wgW, wgS sync.WaitGroup
	)
	fail := func(err error) { firstErr.CompareAndSwap(nil, err) }
	lats := make([][]int64, writers)
	start := time.Now()
	for w := 0; w < writers; w++ {
		wgW.Add(1)
		go func(w int) {
			defer wgW.Done()
			rng := (seed + uint64(w)) * 0x9e3779b97f4a7c15
			val := make([]byte, 8)
			lat := make([]int64, 0, 1<<18)
			for {
				select {
				case <-stop:
					lats[w] = lat
					return
				default:
				}
				t0 := time.Now()
				if err := write(&rng, val); err != nil {
					fail(err)
					lats[w] = lat
					return
				}
				lat = append(lat, time.Since(t0).Nanoseconds())
				wrote.Add(1)
			}
		}(w)
	}
	for r := 0; r < n; r++ {
		wgS.Add(1)
		go func() {
			defer wgS.Done()
			count := func(key uint64, field []byte) bool {
				scanRows.Add(1)
				return true
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := table.Scan(0, 0, 0, readScaleRowSize, count); err != nil {
					fail(err)
					return
				}
				scans.Add(1)
			}
		}()
	}
	time.Sleep(window)
	close(stop)
	wgW.Wait()
	wgS.Wait()
	elapsed := time.Since(start)
	if err, _ := firstErr.Load().(error); err != nil {
		return cell, err
	}

	var lat []int64
	for _, l := range lats {
		lat = append(lat, l...)
	}
	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
	m := s.Metrics()
	cell.wps = float64(wrote.Load()) / elapsed.Seconds()
	cell.sps = float64(scans.Load()) / elapsed.Seconds()
	cell.p99 = quantile(lat, 0.99)
	cell.note = fmt.Sprintf("%.0f writes/s (p50=%dns p99=%dns max=%dns), %.1f scans/s (%d scans, %d rows), %d images saved, %d reclaimed, %d snapshot reads, chain max %d",
		cell.wps, quantile(lat, 0.50), cell.p99, quantile(lat, 1.0),
		cell.sps, scans.Load(), scanRows.Load(),
		m.Read.VersionsSaved, m.Read.VersionsReclaimed, m.Read.SnapshotReads, m.Read.VersionChainMax)
	return cell, nil
}
