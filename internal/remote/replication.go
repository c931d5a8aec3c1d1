package remote

// The read-replica scaling experiment: an in-process primary with a
// sweep of replica counts, a background writer keeping the replication
// stream busy, and pipelined readers spread across the replicas. It
// measures what read replicas buy — aggregate read throughput versus
// replica count under a constant write load — and what they cost:
// replication lag, reported from the primary source's ship→ack
// histogram as p50/p99. The write load is constant per read: the writer
// is paced by the readers' progress, one PUT per replReadsPerWrite
// measured reads, so every point runs the same number of writes.
//
// Throughput uses the repo's hybrid-time model: wall clock plus the
// slowest *read endpoint's* simulated device-time advance. Each replica
// runs its own store with its own virtual device clocks, so spreading
// reads across R replicas divides the simulated device time each
// endpoint accrues — the same reason real replicas scale reads: more
// aggregate device bandwidth. The R=0 baseline reads the primary
// itself, where reads also contend with the writer's device time.

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"nvmstore"
	"nvmstore/internal/bench"
	"nvmstore/internal/client"
	"nvmstore/internal/repl"
	"nvmstore/internal/server"
	"nvmstore/internal/shard"
	"nvmstore/internal/ycsb"
	"nvmstore/internal/zipfian"
)

// The experiment's fixed shape. The sweep runs R = 0 (reads on the
// primary) through replMaxReplicas. replReaders is a multiple of every
// swept endpoint count up to 3, so each endpoint serves an equal share at
// every point. replRows is sized well past the DRAM and NVM cache tiers,
// so uniform reads pay SSD device time, which is what replicas scale.
const (
	replMaxReplicas = 2
	replReaders     = 6
	replDepth       = 32
	replRows        = 200000
	// replReadsPerWrite is the measured reads per background PUT. Low
	// enough that one synchronous writer keeps pace with the readers at
	// every point.
	replReadsPerWrite = 64
	// replBenchShards is each node's shard count.
	replBenchShards = 2
)

// Replication sweeps replica counts and reports read throughput and
// replication lag per point. The result lands in BENCH_repl.json under
// -json: series "reads" (ops/s vs replica count) plus "lag_p50_ms" and
// "lag_p99_ms" (ship→ack lag vs replica count, R >= 1). Each point
// measures o.Ops reads (default 30000, at most 12000 with o.Quick) after
// o.Warmup (default a quarter of that); o.Seed derives the key streams.
// The other options size single-store engines and do not apply.
func Replication(o bench.Options) (bench.Result, error) {
	if o.Ops <= 0 {
		o.Ops = 30000
	}
	if o.Quick {
		o.Ops = min(o.Ops, 12000)
	}
	if o.Warmup <= 0 {
		o.Warmup = o.Ops / 4
	}
	if o.Seed == 0 {
		o.Seed = ycsb.DefaultSeed
	}
	res := bench.Result{
		ID: "repl",
		Title: fmt.Sprintf("read-replica scaling: %d readers × depth %d, %d rows, background writer",
			replReaders, replDepth, replRows),
		XLabel:  "replicas",
		YLabel:  "reads/s",
		FileTag: "repl",
	}
	reads := bench.Series{Name: "reads"}
	lag50 := bench.Series{Name: "lag_p50_ms"}
	lag99 := bench.Series{Name: "lag_p99_ms"}
	var base float64
	for r := 0; r <= replMaxReplicas; r++ {
		pt, err := replicationPoint(o, r)
		if err != nil {
			return res, fmt.Errorf("replication point R=%d: %w", r, err)
		}
		reads.X = append(reads.X, float64(r))
		reads.Y = append(reads.Y, pt.perSec)
		if base == 0 {
			base = pt.perSec
		}
		note := fmt.Sprintf("R=%d: %.3g reads/s (%.2fx vs R=0), wall %v + sim %v, %d background writes (%.3g per read)",
			r, pt.perSec, pt.perSec/base, pt.wall.Round(time.Millisecond),
			pt.sim.Round(time.Millisecond), pt.writes, float64(pt.writes)/float64(o.Ops))
		if r > 0 {
			lag50.X = append(lag50.X, float64(r))
			lag50.Y = append(lag50.Y, pt.lagP50Ms)
			lag99.X = append(lag99.X, float64(r))
			lag99.Y = append(lag99.Y, pt.lagP99Ms)
			note += fmt.Sprintf(", lag p50 %.3gms p99 %.3gms", pt.lagP50Ms, pt.lagP99Ms)
		}
		res.Notes = append(res.Notes, note)
	}
	res.Series = append(res.Series, reads, lag50, lag99)
	res.Notes = append(res.Notes,
		"reads/s is measured reads over wall clock plus the slowest read endpoint's simulated device-time advance;",
		"lag quantiles come from the primary source's ship-to-ack histogram over the whole point")
	return res, nil
}

type replScalePoint struct {
	perSec             float64
	lagP50Ms, lagP99Ms float64
	writes             int64
	wall, sim          time.Duration
}

func openReplBenchStore() (*nvmstore.ShardedStore, error) {
	st, err := nvmstore.OpenSharded(replBenchShards, nvmstore.Options{
		// Cache tiers deliberately small next to the key space: the
		// experiment measures device-bandwidth scaling, so most reads
		// must reach the SSD tier and pay real (simulated) device time.
		Architecture: nvmstore.ThreeTier,
		DRAMBytes:    1 << 20,
		NVMBytes:     2 << 20,
		SSDBytes:     256 << 20,
		// Room for the loaded key space's log between checkpoints (replica
		// progress never holds truncation back; the retention watermark
		// only covers records not yet handed to the ship tap).
		WALBytes: 64 << 20,
	})
	if err != nil {
		return nil, err
	}
	if _, err := st.CreateTable(benchTable, ycsb.FieldSize); err != nil {
		st.Close()
		return nil, err
	}
	return st, nil
}

// replicationPoint builds a primary plus `replicas` replicas, loads the
// key space, lets the replicas catch up, then measures pipelined reads
// against the read endpoints while a writer keeps updating the primary.
func replicationPoint(o bench.Options, replicas int) (replScalePoint, error) {
	var pt replScalePoint
	var cleanup []func()
	defer func() {
		for i := len(cleanup) - 1; i >= 0; i-- {
			cleanup[i]()
		}
	}()
	shutdown := func(srv *server.Server, errc chan error) func() {
		return func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
			<-errc
		}
	}
	serveStore := func(st *nvmstore.ShardedStore, opts server.Options) (string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		srv := server.New(st, opts)
		errc := make(chan error, 1)
		go func() { errc <- srv.Serve(ln) }()
		cleanup = append(cleanup, shutdown(srv, errc))
		return ln.Addr().String(), nil
	}

	pstore, err := openReplBenchStore()
	if err != nil {
		return pt, err
	}
	cleanup = append(cleanup, func() { pstore.Close() })
	src := repl.NewSource(pstore, repl.SourceOptions{})
	paddr, err := serveStore(pstore, server.Options{Repl: src})
	if err != nil {
		return pt, err
	}

	// Load the key space through the primary first; replicas started
	// afterwards bootstrap from a snapshot instead of replaying the
	// whole load through the log stream.
	pcl, err := client.Dial(paddr, client.Options{Conns: 2, Depth: 256})
	if err != nil {
		return pt, err
	}
	cleanup = append(cleanup, func() { pcl.Close() })
	if err := replLoad(pcl); err != nil {
		return pt, fmt.Errorf("load: %w", err)
	}

	// Reads go to every node in the cluster, primary included — the
	// standard read-scaling deployment. R replicas give R+1 read
	// endpoints over the R=0 baseline of the primary alone.
	endpoints := []string{paddr}
	var rps []*repl.Replica
	for i := 0; i < replicas; i++ {
		rstore, err := openReplBenchStore()
		if err != nil {
			return pt, err
		}
		cleanup = append(cleanup, func() { rstore.Close() })
		rp, err := repl.NewReplica(rstore, repl.ReplicaOptions{Primary: paddr})
		if err != nil {
			return pt, err
		}
		cleanup = append(cleanup, rp.Close)
		raddr, err := serveStore(rstore, server.Options{Replica: rp})
		if err != nil {
			return pt, err
		}
		rps = append(rps, rp)
		endpoints = append(endpoints, raddr)
	}
	lsns := repl.DurableLSNs(pstore)
	for _, rp := range rps {
		if err := rp.WaitLSN(lsns, 60*time.Second); err != nil {
			return pt, fmt.Errorf("replica catch-up: %w", err)
		}
	}

	// One client per read endpoint; readers round-robin across them.
	// The reader count is rounded up to a multiple of the endpoint count
	// so every endpoint serves the same share of the reads — throughput
	// is gated by the *slowest* endpoint's simulated device time, so an
	// endpoint with one extra reader would cap the whole point.
	readers := replReaders
	if rem := readers % len(endpoints); rem != 0 {
		readers += len(endpoints) - rem
	}
	rcls := make([]*client.Client, len(endpoints))
	for i, addr := range endpoints {
		cl, err := client.Dial(addr, client.Options{Conns: 2, Depth: readers * replDepth})
		if err != nil {
			return pt, err
		}
		cleanup = append(cleanup, func() { cl.Close() })
		rcls[i] = cl
	}
	if err := replReads(rcls, o.Seed, readers, o.Warmup, result); err != nil {
		return pt, fmt.Errorf("warmup: %w", err)
	}

	// The background writer keeps the replication stream busy for the
	// whole measured window, so the lag histogram reflects reads under
	// write pressure, not an idle stream. Every replReadsPerWrite-th
	// settled read hands it one PUT to issue; the channel holds every
	// token the window can produce, so a read never waits for the writer.
	tokens := make(chan struct{}, o.Ops/replReadsPerWrite+1)
	var settled, writes atomic.Int64
	paced := func(c *client.Call) error {
		if settled.Add(1)%replReadsPerWrite == 0 {
			tokens <- struct{}{}
		}
		return result(c)
	}
	var wwg sync.WaitGroup
	wwg.Add(1)
	go func() {
		defer wwg.Done()
		val := make([]byte, ycsb.FieldSize)
		gen := zipfian.New(replRows, shard.SeedFor(o.Seed, 101))
		var i uint64
		for range tokens {
			i++
			// Zipf-hot updates, YCSB-style: the write working set stays
			// cache-resident, so replica apply does not eat into the
			// device bandwidth the read endpoints are scaling.
			key := gen.NextScrambled()
			ycsb.FillField(key+i, 0, val)
			if err := pcl.Put(benchTable, key, val); err != nil {
				return
			}
			writes.Add(1)
		}
	}()

	before := make([]int64, len(rcls))
	for i, cl := range rcls {
		doc, err := remoteStats(cl)
		if err != nil {
			return pt, err
		}
		before[i] = doc.MaxSimNs
	}
	// The window closes when the writer has drained its last token, so
	// every point carries the same ⌊ops/replReadsPerWrite⌋ PUTs inside it.
	start := time.Now()
	err = replReads(rcls, o.Seed, readers, o.Ops, paced)
	close(tokens)
	wwg.Wait()
	pt.wall = time.Since(start)
	if err != nil {
		return pt, fmt.Errorf("measured reads: %w", err)
	}
	for i, cl := range rcls {
		doc, serr := remoteStats(cl)
		if serr != nil {
			return pt, serr
		}
		if d := time.Duration(doc.MaxSimNs - before[i]); d > pt.sim {
			pt.sim = d
		}
	}
	pt.perSec = bench.Measurement{Ops: int64(o.Ops), Wall: pt.wall, Sim: pt.sim}.PerSecond()
	st := src.Stats()
	pt.lagP50Ms = float64(st.LagP50Ns) / 1e6
	pt.lagP99Ms = float64(st.LagP99Ns) / 1e6
	pt.writes = writes.Load()
	return pt, nil
}

// replLoad bulk-loads the key space through pipelined PUTs.
func replLoad(cl *client.Client) error {
	return pipeline(1, replRows, 256, func(int) func(int) *client.Call {
		val := make([]byte, ycsb.FieldSize)
		return func(i int) *client.Call {
			ycsb.FillField(uint64(i), 0, val)
			return cl.PutAsync(benchTable, uint64(i), val)
		}
	}, result)
}

// replReads issues total uniformly-distributed pipelined GETs across
// `readers` workers, each bound to one endpoint round-robin, and settles
// each with settle; readers is a multiple of the endpoint count, so every
// endpoint serves an equal share.
func replReads(rcls []*client.Client, seed uint64, readers, total int, settle func(*client.Call) error) error {
	return pipeline(readers, total, replDepth, func(wid int) func(int) *client.Call {
		cl := rcls[wid%len(rcls)]
		// Uniform keys, not Zipf: the point is device-time scaling, so
		// the stream must keep missing the DRAM tier.
		gen := zipfian.New(replRows, shard.SeedFor(seed, wid))
		return func(int) *client.Call { return cl.GetAsync(benchTable, gen.Uint64n(replRows)) }
	}, settle)
}

// result settles a call whose reply the caller does not need.
func result(c *client.Call) error {
	_, err := c.Result()
	return err
}
