// Command nvmserver serves a sharded nvmstore over TCP, speaking the
// binary protocol of internal/wire. It is the network face of the
// paper's three-tier storage engine: N shard-per-core stores behind a
// concurrent, pipelined request layer (internal/server).
//
// Usage:
//
//	nvmserver                                # 4 three-tier shards on :7070
//	nvmserver -addr :7070 -shards 8 -arch 3tier -scale 16
//	nvmserver -obs -http :6060               # with engine histograms + debug HTTP
//
// With -http, /metrics serves Prometheus text-format counters, gauges,
// and latency histograms; /metrics.json the raw STATS document; /trace
// the flight recorder of traced request timelines (see nvmbench
// -tracesample) with the p99 stage attribution.
//
//	nvmserver -faults "seed:7;ssd.read:p=0.001,transient=2;net.drop:p=0.0005"
//
// Replication (see internal/repl and DESIGN.md §12): every server can
// act as a log-shipping primary — replicas subscribe over the same
// port. -replicaof makes this server a read replica of a running
// primary: it bootstraps (snapshot + log catch-up), serves reads with
// the staleness-bound WAIT barrier, and rejects writes with a
// READONLY-classified error until promoted. -promote N is a client
// action, not a serving mode: it sends a PROMOTE for epoch N to the
// server at -addr and exits — sent to a replica it promotes it, sent to
// the old primary it fences it (writes then fail with FENCED so clients
// fail over). -syncreplicas K holds write acks until K replicas
// acknowledged (semi-synchronous replication).
//
//	nvmserver -addr :7070                          # primary
//	nvmserver -addr :7071 -replicaof localhost:7070  # read replica
//	nvmserver -promote 2 -addr localhost:7071        # fail over to it
//
// Capacities follow the paper's DRAM:NVM:SSD = 2:10:50 proportions,
// scaled by -scale (megabytes per "paper gigabyte") and split across
// the shards. One table (-table, rows of -rowsize bytes) is created at
// startup; clients address it by id.
//
// SIGINT/SIGTERM trigger a graceful drain: the server stops accepting,
// half-closes every connection, answers everything already in flight,
// then closes the store (flushing the log tails; -checkpoint-on-close
// additionally writes back all dirty pages). Every response a client
// received before the drain is durable.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"nvmstore"
	"nvmstore/internal/client"
	"nvmstore/internal/fault"
	"nvmstore/internal/obs"
	"nvmstore/internal/repl"
	"nvmstore/internal/server"
)

// netFaultSite is the injection-site salt of the server's network-fault
// injector; shard i's device injectors use sites derived from i, so a
// large salt keeps the streams disjoint.
const netFaultSite = 1 << 32

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr       = flag.String("addr", ":7070", "TCP address to serve the wire protocol on")
		shards     = flag.Int("shards", 4, "number of shard-per-core stores")
		arch       = flag.String("arch", "3tier", "storage architecture: 3tier, mem, direct, basic, or ssd (as `nvmstore archs` lists them)")
		scaleMB    = flag.Int64("scale", 16, "megabytes per paper-gigabyte of capacity (DRAM:NVM:SSD = 2:10:50)")
		tableID    = flag.Uint64("table", 1, "id of the table created at startup")
		rowSize    = flag.Int("rowsize", 1000, "row size in bytes of the startup table")
		maxConns   = flag.Int("maxconns", 64, "maximum concurrently served connections")
		observe    = flag.Bool("obs", false, "record engine latency histograms (reported via STATS and /metrics)")
		httpAddr   = flag.String("http", "", "serve /metrics (Prometheus), /metrics.json, /trace, and /debug/pprof/ on this address")
		checkpoint = flag.Bool("checkpoint-on-close", false, "write back all dirty pages on shutdown so the next start recovers instantly")
		faultSpec  = flag.String("faults", "", `fault-injection spec armed on every shard's devices and on the response path, e.g. "seed:7;ssd.read:p=0.001,transient=2;net.drop:p=0.0005" (see internal/fault)`)
		drain      = flag.Duration("drain", 30*time.Second, "graceful-shutdown budget before connections are severed")
		maintBatch = flag.Int("maint-batch", 0, "max dirty pages written back per maintenance round (0: store default)")
		maintSoft  = flag.Float64("maint-softfill", 0, "log-fill fraction at which paced write-back starts (0: store default)")
		maintHard  = flag.Float64("maint-hardfill", 0, "log-fill fraction from which a commit runs write-back rounds until the log is truncated (0: store default)")
		replicaOf  = flag.String("replicaof", "", "serve as a read replica of the primary at this address (writes rejected as READONLY until promoted)")
		promote    = flag.Uint64("promote", 0, "send a PROMOTE for this epoch to the server at -addr and exit (promotes a replica; fences the old primary)")
		syncRepl   = flag.Int("syncreplicas", 0, "hold write acks until this many replicas acknowledged (0: asynchronous replication)")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "nvmserver: ", log.LstdFlags)

	// -promote is a one-shot client action against a running server, not
	// a serving mode: no store is opened here.
	if *promote > 0 {
		cl, err := client.Dial(*addr, client.Options{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "nvmserver: -promote: dial %s: %v\n", *addr, err)
			return 1
		}
		defer cl.Close()
		applied, err := cl.Promote(*promote)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nvmserver: -promote: %v\n", err)
			return 1
		}
		if applied != nil {
			fmt.Printf("promoted %s to primary at epoch %d; serving from applied LSNs %v\n", *addr, *promote, applied)
		} else {
			fmt.Printf("fenced %s at epoch %d; it now rejects writes\n", *addr, *promote)
		}
		return 0
	}

	a, err := nvmstore.ParseArchitecture(*arch)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nvmserver: -arch: %v\n", err)
		return 2
	}
	if *tableID == repl.MetaTable {
		fmt.Fprintf(os.Stderr, "nvmserver: -table %#x is reserved for replication metadata\n", repl.MetaTable)
		return 2
	}
	scale := *scaleMB << 20
	opts := nvmstore.Options{
		Architecture:      a,
		DRAMBytes:         2 * scale,
		NVMBytes:          10 * scale,
		SSDBytes:          50 * scale,
		Observe:           *observe,
		CheckpointOnClose: *checkpoint,
		Maintenance: nvmstore.MaintenanceOptions{
			Batch:    *maintBatch,
			SoftFill: *maintSoft,
			HardFill: *maintHard,
		},
	}
	switch a {
	case nvmstore.MainMemory:
		opts.DRAMBytes, opts.SSDBytes = 0, 0 // unlimited DRAM, no SSD
	case nvmstore.NVMDirect:
		opts.DRAMBytes, opts.SSDBytes = 0, 0
	case nvmstore.BasicNVMBuffer:
		opts.SSDBytes = 0
	}
	store, err := nvmstore.OpenSharded(*shards, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nvmserver: open store: %v\n", err)
		return 1
	}
	if _, err := store.CreateTable(*tableID, *rowSize); err != nil {
		fmt.Fprintf(os.Stderr, "nvmserver: create table: %v\n", err)
		return 1
	}

	srvOpts := server.Options{
		MaxConns: *maxConns,
		Logf:     logger.Printf,
		// Every server carries a replication source: it costs nothing
		// until a replica subscribes (the WAL taps install lazily), and it
		// lets a promoted replica feed its own replicas at the new epoch.
		Repl: repl.NewSource(store, repl.SourceOptions{SyncReplicas: *syncRepl}),
	}
	var replica *repl.Replica
	if *replicaOf != "" {
		replica, err = repl.NewReplica(store, repl.ReplicaOptions{
			Primary: *replicaOf,
			Logf:    logger.Printf,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "nvmserver: -replicaof: %v\n", err)
			return 1
		}
		srvOpts.Replica = replica
	}
	if *faultSpec != "" {
		plan, err := fault.ParseSpec(*faultSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nvmserver: -faults: %v\n", err)
			return 2
		}
		store.InjectFaults(plan)
		// The network injector gets a site far above any shard's device
		// sites so its probability stream is uncorrelated with theirs.
		srvOpts.Faults = plan.Injector(netFaultSite)
		logger.Printf("fault injection armed: %s", *faultSpec)
	}
	srv := server.New(store, srvOpts)

	if *httpAddr != "" {
		trace := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(srv.TraceSnapshot())
		})
		dbg, err := obs.StartDebug(*httpAddr, func() any { return srv.Stats() },
			obs.Endpoint{Path: "/metrics", Handler: obs.PromHandler(srv.WritePrometheus)},
			obs.Endpoint{Path: "/trace", Handler: trace})
		if err != nil {
			fmt.Fprintf(os.Stderr, "nvmserver: -http: %v\n", err)
			return 1
		}
		defer dbg.Close()
		logger.Printf("debug endpoints on http://%s (/metrics Prometheus, /metrics.json, /trace, /debug/pprof/)", dbg.Addr())
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(*addr) }()
	role := "primary-capable"
	if replica != nil {
		role = "read replica of " + *replicaOf
	}
	logger.Printf("%s: %d × %s shards, table %d (%d-byte rows), %s, serving on %s",
		store.Shard(0).Architecture(), *shards, fmtBytes(opts.NVMBytes), *tableID, *rowSize, role, *addr)

	select {
	case err := <-errc:
		if err != nil {
			fmt.Fprintf(os.Stderr, "nvmserver: serve: %v\n", err)
			return 1
		}
	case <-ctx.Done():
		stop()
		logger.Printf("draining (budget %v)...", *drain)
		dctx, cancel := context.WithTimeout(context.Background(), *drain)
		err := srv.Shutdown(dctx)
		cancel()
		if err != nil {
			logger.Printf("drain incomplete: %v", err)
		}
		<-errc // Serve has returned once Shutdown closed the listener
	}
	if replica != nil {
		// Stop the feed before the store goes away; the last applied
		// position is durable and the next start resumes from it.
		replica.Close()
	}
	if err := store.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "nvmserver: close store: %v\n", err)
		return 1
	}
	logger.Printf("store closed; all acknowledged writes durable")
	return 0
}

// fmtBytes renders a capacity for the startup banner.
func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%dGB-NVM", b>>30)
	case b >= 1<<20:
		return fmt.Sprintf("%dMB-NVM", b>>20)
	default:
		return fmt.Sprintf("%dB-NVM", b)
	}
}
