// Package remote drives YCSB-style load against a running nvmserver
// over the wire protocol — the serving-layer counterpart of the
// in-process experiments in internal/bench. It lives outside bench so
// the engine-level experiment package does not depend on the network
// stack.
package remote

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"nvmstore/internal/bench"
	"nvmstore/internal/client"
	"nvmstore/internal/obs"
	"nvmstore/internal/server"
	"nvmstore/internal/shard"
	"nvmstore/internal/ycsb"
	"nvmstore/internal/zipfian"
)

// Options configures a YCSB-style run against a live nvmserver
// over the wire protocol — the serving-layer counterpart of the
// in-process experiments. Unlike those, the remote driver measures the
// whole request path: framing, the server's shard routing and batching,
// and the storage engine underneath.
type Options struct {
	// Addr is the server's TCP address. The run targets table 1,
	// nvmserver's default.
	Addr string
	// Clients is the number of concurrent workers, each keeping its own
	// pipeline of requests in flight, and of client connections
	// (default 4).
	Clients int
	// Depth is each worker's pipeline depth (default 16).
	Depth int
	// Rows is the key-space size [0, Rows) (default 10000).
	Rows int
	// Load bulk-loads the key space through pipelined PUTs first.
	Load bool
	// WritePct is the percentage of operations that are PUTs, 0..100;
	// the rest are GETs. 0 means a read-only run (so a zero-value
	// Options runs pure GETs); values outside 0..100 reset to 5,
	// YCSB-B's mix.
	WritePct int
	// Ops is the number of measured operations across all workers
	// (default 30000); Warmup runs before measuring (default Ops/2).
	Ops    int
	Warmup int
	// Retries is the per-request retry budget the client applies to
	// retryable transport failures (0: the client default of 3;
	// negative: fail fast). Reissued requests are subtracted from the
	// throughput math, so retries show up as degradation, not free ops.
	Retries int
	// Seed is the base seed of the per-worker Zipf streams (default
	// ycsb.DefaultSeed); worker i draws from shard.SeedFor(Seed, i).
	Seed uint64
	// TraceSample, when positive, stamps every Nth keyed request with a
	// wire-level trace header; the server records a per-stage timeline
	// for each stamped request and the run reports the p99 stage
	// decomposition (reader dispatch, wait for the shard, execution, WAL
	// flush, response write) from the server's flight recorder. 1 traces every
	// request; 0 disables tracing.
	TraceSample int
}

// benchTable is the table every run targets: table 1, nvmserver's
// default. A PUT writes one YCSB field to it; the server zero-pads rows
// to the table's row size.
const benchTable = 1

func (o *Options) applyDefaults() {
	if o.Clients <= 0 {
		o.Clients = 4
	}
	if o.Depth <= 0 {
		o.Depth = 16
	}
	if o.Rows <= 0 {
		o.Rows = 10000
	}
	if o.WritePct < 0 || o.WritePct > 100 {
		o.WritePct = 5
	}
	if o.Ops <= 0 {
		o.Ops = 30000
	}
	if o.Warmup <= 0 {
		o.Warmup = o.Ops / 2
	}
	if o.Seed == 0 {
		o.Seed = ycsb.DefaultSeed
	}
}

// Run drives the YCSB mix against a live server and reports
// throughput over combined time (wall clock plus the server's simulated
// device-time advance, the hybrid-time model) and wire-level p50/p99
// round-trip latencies alongside the server's engine-level histograms.
func Run(o Options) (bench.Result, error) {
	o.applyDefaults()
	cl, err := client.Dial(o.Addr, client.Options{
		Conns: o.Clients,
		// Every worker must be able to fill its pipeline even if the
		// round-robin lands them all on one connection.
		Depth:       o.Clients * o.Depth,
		Retries:     o.Retries,
		TraceSample: o.TraceSample,
	})
	if err != nil {
		return bench.Result{}, err
	}
	defer cl.Close()
	var reissued atomic.Int64
	if o.Load {
		if err := remoteLoad(cl, o, &reissued); err != nil {
			return bench.Result{}, fmt.Errorf("remote load: %w", err)
		}
	}
	if o.Warmup > 0 {
		if err := remoteRun(cl, o, o.Warmup, &reissued); err != nil {
			return bench.Result{}, fmt.Errorf("remote warmup: %w", err)
		}
	}
	// The measured window: o.Ops operations between two STATS readings,
	// with cl's latency histograms and the reissue count restarted.
	reissued.Store(0)
	cl.ResetLatency()
	before, err := remoteStats(cl)
	if err != nil {
		return bench.Result{}, err
	}
	start := time.Now()
	if err := remoteRun(cl, o, o.Ops, &reissued); err != nil {
		return bench.Result{}, fmt.Errorf("remote run: %w", err)
	}
	wall := time.Since(start)
	after, err := remoteStats(cl)
	if err != nil {
		return bench.Result{}, err
	}
	// Hybrid time, as everywhere in this repo: the engines charge device
	// latencies to virtual clocks instead of sleeping, so wall time alone
	// would flatter the run; the slowest shard's simulated advance is what
	// dedicated hardware would have added.
	sim := time.Duration(after.MaxSimNs - before.MaxSimNs)
	perSec := bench.Measurement{Ops: int64(o.Ops), Wall: wall, Sim: sim}.PerSecond()

	res := bench.Result{
		ID:      "remote",
		Title:   fmt.Sprintf("Remote YCSB (%d%% put) against %s, %d shards", o.WritePct, o.Addr, after.Shards),
		XLabel:  "clients",
		YLabel:  "ops/s",
		FileTag: fmt.Sprintf("remote_c%d", o.Clients),
		Series: []bench.Series{{
			Name: "wire",
			X:    []float64{float64(o.Clients)},
			Y:    []float64{perSec},
		}},
		Latency: append(cl.Latency(), after.Engine...),
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("%d ops, %d clients × depth %d over %d conns: wall %v + sim %v = %v",
			o.Ops, o.Clients, o.Depth, o.Clients, wall.Round(time.Microsecond), sim, (wall+sim).Round(time.Microsecond)),
		"latency rows: wire.* are client-observed wall-clock round trips;",
		"the rest are the server engine's simulated-time histograms (with -obs)")
	// The wire path's cost in the paper's Fig. 10 idiom — a counter, not
	// a timing: socket calls the server made per operation of the window,
	// responses per write, and requests per shard-lock acquisition.
	writes, groups := after.WriteSyscalls-before.WriteSyscalls, after.ExecBatches-before.ExecBatches
	if writes > 0 && groups > 0 {
		ops := float64(o.Ops)
		res.Notes = append(res.Notes, fmt.Sprintf(
			"server socket calls: %.3f reads/op, %.3f writes/op, %.2f frames per write, %.2f requests per shard-lock hold",
			float64(after.ReadSyscalls-before.ReadSyscalls)/ops, float64(writes)/ops,
			float64(after.FramesWritten-before.FramesWritten)/float64(writes), ops/float64(groups)))
	}
	if n := reissued.Load(); n > 0 || cl.Retries() > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%d pipelined ops reissued after transport failures (%d client-level retries); reissues cost time but add no ops",
			n, cl.Retries()))
	}
	if o.TraceSample > 0 {
		if after.Trace == nil || after.Trace.Sampled == 0 {
			res.Notes = append(res.Notes,
				"tracing requested but the server recorded no timelines (old server version?)")
		} else {
			attr := after.Trace.P99
			res.Attribution = &attr
			note := fmt.Sprintf("trace: 1/%d of keyed requests stamped, %d timelines sampled server-side",
				o.TraceSample, after.Trace.Sampled)
			// The span total is the server-side residence (reader to
			// writer); the client's wire p99 adds the network round trip
			// and client-side queueing on top. Report the coverage so a
			// widening gap flags where time is hiding.
			if wp99 := wireP99(cl.Latency()); wp99 > 0 && attr.TotalNs > 0 {
				note += fmt.Sprintf("; server span p99 %v covers %.0f%% of wire p99 %v",
					time.Duration(attr.TotalNs).Round(time.Microsecond),
					100*float64(attr.TotalNs)/float64(wp99),
					time.Duration(wp99).Round(time.Microsecond))
			}
			res.Notes = append(res.Notes, note)
		}
	}
	return res, nil
}

// wireP99 picks the worst client-observed p99 across the keyed wire
// rows — the number the span decomposition is attributed against.
func wireP99(rows []obs.Row) int64 {
	var worst int64
	for _, r := range rows {
		if (r.Op == "wire.get" || r.Op == "wire.put" || r.Op == "wire.delete") && r.P99 > worst {
			worst = r.P99
		}
	}
	return worst
}

// pending pairs an in-flight pipelined call with a closure that can
// reissue the same operation through the client's synchronous path,
// which retries with backoff and redials failed connections.
type pending struct {
	call *client.Call
	redo func() error
}

// settle waits out one pipelined call. A retryable transport failure
// under it (an injected drop, a bounced connection) is absorbed by
// reissuing the operation synchronously — unless the run asked to fail
// fast (Options.Retries < 0). Only idempotent autocommit operations
// travel through the pipeline, so reissuing is safe for the same
// reason the client's own retry loop is (see client.IsRetryable).
func settle(o Options, p pending, reissued *atomic.Int64) error {
	_, err := p.call.Result()
	if err == nil || o.Retries < 0 || !client.IsRetryable(err) {
		return err
	}
	reissued.Add(1)
	return p.redo()
}

// remoteStats fetches and decodes the server's STATS document.
func remoteStats(cl *client.Client) (server.StatsDoc, error) {
	var doc server.StatsDoc
	buf, err := cl.Stats()
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		return doc, fmt.Errorf("remote stats: %w", err)
	}
	return doc, nil
}

// remoteLoad PUTs every key of the key space, pipelined, partitioned
// across the workers: worker w loads keys w, w+Clients, w+2·Clients, ….
func remoteLoad(cl *client.Client, o Options, reissued *atomic.Int64) error {
	return pipeline(o.Clients, o.Rows, o.Depth, func(wid int) func(int) pending {
		val := make([]byte, ycsb.FieldSize)
		return func(i int) pending {
			key := uint64(wid + i*o.Clients)
			ycsb.FillField(key, 0, val)
			return pending{cl.PutAsync(benchTable, key, val), func() error {
				v := make([]byte, ycsb.FieldSize)
				ycsb.FillField(key, 0, v)
				return cl.Put(benchTable, key, v)
			}}
		}
	}, func(p pending) error { return settle(o, p, reissued) })
}

// remoteRun issues exactly total operations of the configured mix
// across the workers, so throughput can divide total by the measured
// time, each worker pipelining Depth requests.
func remoteRun(cl *client.Client, o Options, total int, reissued *atomic.Int64) error {
	return pipeline(o.Clients, total, o.Depth, func(wid int) func(int) pending {
		gen := zipfian.New(uint64(o.Rows), shard.SeedFor(o.Seed, wid))
		val := make([]byte, ycsb.FieldSize)
		return func(i int) pending {
			key := gen.NextScrambled()
			if int(gen.Uint64n(100)) >= o.WritePct {
				return pending{cl.GetAsync(benchTable, key), func() error {
					_, _, err := cl.Get(benchTable, key)
					return err
				}}
			}
			// Vary the payload with the op index so writes are not
			// no-ops (PutAsync consumes val before returning).
			fill := key + uint64(i)
			ycsb.FillField(fill, 0, val)
			return pending{cl.PutAsync(benchTable, key, val), func() error {
				v := make([]byte, ycsb.FieldSize)
				ycsb.FillField(fill, 0, v)
				return cl.Put(benchTable, key, v)
			}}
		}
	}, func(p pending) error { return settle(o, p, reissued) })
}

// pipeline splits total calls across n concurrent workers (the first
// total%n take one more) and returns the first error. Worker wid's
// issue, built by worker(wid), issues its i-th call; each worker keeps at
// most depth calls in flight and settles them in issue order.
func pipeline[C any](n, total, depth int, worker func(wid int) func(i int) C, settle func(C) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for wid := 0; wid < n; wid++ {
		share := total / n
		if wid < total%n {
			share++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			issue := worker(wid)
			// Step i settles call i-depth, then issues call i; the last
			// depth steps only settle the tail.
			ring := make([]C, depth)
			for i := 0; i < share+depth; i++ {
				if i >= depth {
					if errs[wid] = settle(ring[i%depth]); errs[wid] != nil {
						return
					}
				}
				if i < share {
					ring[i%depth] = issue(i)
				}
			}
		}()
	}
	wg.Wait()
	for wid, err := range errs {
		if err != nil {
			return fmt.Errorf("worker %d: %w", wid, err)
		}
	}
	return nil
}
