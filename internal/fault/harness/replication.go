package harness

// The replication sweep: scheduled crash, network, and promote points
// against a live primary→replica pair (internal/repl over the wire
// protocol), one point per run, each on fresh stores.
//
// Three axes share one invariant — zero acknowledged-write loss:
//
//   - crash points pin a single-shot WAL-flush crash to the replica's
//     k-th flush (live apply or snapshot bootstrap), so the apply loop
//     power-fails mid-item; the replica must recover, resubscribe from
//     its durable applied LSN, and converge to the primary's state;
//   - network points pin a connection drop or a torn frame to the
//     primary server's k-th response write — the shared write path of
//     client replies *and* replication push frames, so the shot can
//     land on the feed as a torn batch; a retrying client must complete
//     the workload and the replica must reconnect and converge;
//   - promote points fail over after the k-th acknowledged write: the
//     replica is promoted to a new epoch, the old primary fenced, and
//     every acked write must read back from the promoted store before
//     the workload finishes against the new primary. The old primary
//     must reject further writes with the FENCED-classified error and
//     the unpromoted replica must have rejected them as READONLY.
//
// Every schedule is a pure function of the config: write→shard routing
// is the deterministic shard hash, semi-synchronous replication
// (SyncReplicas: 1) forces at least one replica WAL flush per
// acknowledged write once the replica's feed is live on every shard —
// which each point waits for before its first write (awaitLiveFeed) —
// and spread() picks the same opportunity indices every run — so the
// same seed yields the same report.

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"time"

	"nvmstore"
	"nvmstore/internal/client"
	"nvmstore/internal/engine"
	"nvmstore/internal/fault"
	"nvmstore/internal/repl"
	"nvmstore/internal/server"
	"nvmstore/internal/shard"
	"nvmstore/internal/wire"
)

// ReplicationConfig parameterizes a replication sweep. The zero value
// schedules 110 points.
type ReplicationConfig struct {
	// Seed derives the workload payloads and every fault plan
	// (default 1).
	Seed uint64
	// CrashPoints is how many crash points to schedule per crash axis —
	// live apply and snapshot bootstrap (default 20, clamped to the
	// per-shard write floor that guarantees the shot fires).
	CrashPoints int
	// NetPoints is the total network points, split between connection
	// drops and torn frames (default 40).
	NetPoints int
	// PromotePoints is how many failover points to schedule across the
	// write sequence (default 30).
	PromotePoints int
	// Logf, when set, receives per-point progress lines.
	Logf func(format string, args ...any)
}

func (c *ReplicationConfig) applyDefaults() {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.CrashPoints <= 0 {
		c.CrashPoints = 20
	}
	if c.NetPoints <= 0 {
		c.NetPoints = 40
	}
	if c.PromotePoints <= 0 {
		c.PromotePoints = 30
	}
}

// Every point writes replWrites acknowledged rows of replRowSize bytes,
// cycling through replRows keys so every key is overwritten at least
// once.
const (
	replShards  = 2
	replTable   = 1
	replWrites  = 64
	replRows    = 32
	replRowSize = 64
)

// replKey maps the i-th write to its key: the workload cycles the key
// space so every key is overwritten.
func replKey(i int) uint64 { return uint64(i % replRows) }

// replRow builds the i-th write's payload — seed- and sequence-tagged
// so a lost or stale version is detected by content, not just presence.
func replRow(cfg ReplicationConfig, i int) []byte {
	row := make([]byte, replRowSize)
	key := replKey(i)
	mix := cfg.Seed*0x9e3779b97f4a7c15 + uint64(i)
	for j := range row {
		row[j] = byte(mix >> (8 * (j % 8)))
	}
	row[0], row[1] = byte(key), byte(key>>8)
	return row
}

// minWritesPerShard is the write-count floor across shards — the range
// a replica-side flush schedule may safely cover: under semi-sync every
// acknowledged write forces at least one replica WAL flush on its
// shard, so any point up to this floor is guaranteed to fire.
func minWritesPerShard() int64 {
	per := make([]int64, replShards)
	for i := 0; i < replWrites; i++ {
		per[shard.Of(replKey(i), replShards)]++
	}
	min := per[0]
	for _, n := range per[1:] {
		if n < min {
			min = n
		}
	}
	return min
}

// RunReplication executes the replication sweep and returns its report.
// Like Run, the error covers only harness-level failures; invariant
// violations land in Report.Violations. Report.Crashes counts crash
// points whose scheduled fault surfaced on the replica and that then
// converged back to the primary's state.
func RunReplication(cfg ReplicationConfig) (Report, error) {
	cfg.applyDefaults()
	floor := minWritesPerShard()
	netSpan := int64(2 * replWrites)
	half := cfg.NetPoints / 2
	rep := Report{Opportunities: map[fault.Kind]int64{
		fault.WALFlushCrash: floor + 2,
		fault.NetDrop:       netSpan,
		fault.NetPartial:    netSpan,
	}}
	axes := []struct {
		name      string
		points    []int64
		kind      fault.Kind
		bootstrap bool
	}{
		{"repl.crash.live", spread(cfg.CrashPoints, floor), fault.WALFlushCrash, false},
		// Bootstrap adds the snapshot's own flushes (durable meta wipe +
		// final chunk) ahead of the live writes' flushes.
		{"repl.crash.boot", spread(cfg.CrashPoints, floor+2), fault.WALFlushCrash, true},
		{"repl.net.drop", spread(cfg.NetPoints-half, netSpan), fault.NetDrop, false},
		{"repl.net.partial", spread(half, netSpan), fault.NetPartial, false},
	}
	for _, a := range axes {
		rep.sweep(a.name, a.points, cfg.Logf, func(point int64) (bool, error) {
			return runReplPoint(cfg, a.kind, a.bootstrap, point)
		})
	}
	rep.sweep("repl.promote", spread(cfg.PromotePoints, replWrites), cfg.Logf, func(point int64) (bool, error) {
		return false, runPromotePoint(cfg, point)
	})
	return rep, nil
}

// replPair is one point's primary/replica topology.
type replPair struct {
	pstore, rstore *nvmstore.ShardedStore
	src            *repl.Source
	rp             *repl.Replica
	paddr, raddr   string
	cleanup        []func()
}

func (p *replPair) close() {
	for i := len(p.cleanup) - 1; i >= 0; i-- {
		p.cleanup[i]()
	}
}

func openReplStore() (*nvmstore.ShardedStore, error) {
	st, err := nvmstore.OpenSharded(replShards, nvmstore.Options{
		Architecture: nvmstore.ThreeTier,
		DRAMBytes:    4 << 20,
		NVMBytes:     16 << 20,
		SSDBytes:     64 << 20,
	})
	if err != nil {
		return nil, err
	}
	if _, err := st.CreateTable(replTable, replRowSize); err != nil {
		st.Close()
		return nil, err
	}
	return st, nil
}

// startReplPair builds a semi-synchronous primary→replica pair with
// both ends served, so the replica can answer PROMOTE and then serve
// writes. The primary takes the sequence's first preload writes before
// its replication source exists, which makes the replica bootstrap from
// a snapshot; faults is the primary server's injector on its response
// writes, and plan, when set, is armed on the replica's store.
func startReplPair(cfg ReplicationConfig, preload int, faults *fault.Injector, plan *fault.Plan) (*replPair, error) {
	p := &replPair{}
	ok := false
	defer func() {
		if !ok {
			p.close()
		}
	}()

	var err error
	if p.pstore, err = openReplStore(); err != nil {
		return nil, err
	}
	p.cleanup = append(p.cleanup, func() { p.pstore.Close() })
	tab := p.pstore.Table(replTable)
	for i := 0; i < preload; i++ {
		if err := tab.Put(replKey(i), replRow(cfg, i)); err != nil {
			return nil, fmt.Errorf("preload %d: %v", i, err)
		}
	}
	p.src = repl.NewSource(p.pstore, repl.SourceOptions{SyncReplicas: 1})
	if p.paddr, err = serveRepl(p, server.New(p.pstore, server.Options{Repl: p.src, Faults: faults})); err != nil {
		return nil, err
	}

	if p.rstore, err = openReplStore(); err != nil {
		return nil, err
	}
	p.cleanup = append(p.cleanup, func() { p.rstore.Close() })
	if plan != nil {
		p.rstore.InjectFaults(plan)
	}
	if p.rp, err = repl.NewReplica(p.rstore, repl.ReplicaOptions{
		Primary: p.paddr,
		Backoff: 10 * time.Millisecond,
	}); err != nil {
		return nil, err
	}
	p.cleanup = append(p.cleanup, p.rp.Close)
	if p.raddr, err = serveRepl(p, server.New(p.rstore, server.Options{
		Replica: p.rp,
		Repl:    repl.NewSource(p.rstore, repl.SourceOptions{}),
	})); err != nil {
		return nil, err
	}
	ok = true
	return p, nil
}

func serveRepl(p *replPair, srv *server.Server) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	p.cleanup = append(p.cleanup, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-errc
	})
	return ln.Addr().String(), nil
}

func dialRepl(p *replPair, addr string) (*client.Client, error) {
	cl, err := client.Dial(addr, client.Options{
		Conns: 2, Retries: 8, RetryBackoff: time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	p.cleanup = append(p.cleanup, func() { cl.Close() })
	return cl, nil
}

// awaitLiveFeed waits until the primary's source has a feed live on every
// shard. Attach runs on the replica connection's goroutine, and until it
// is through semi-sync degrades to no wait: writes issued earlier are
// acknowledged unreplicated and reach the replica batched, so it flushes
// fewer times than there were writes (a scheduled k-th flush may never
// come) and a promotion may miss them.
func awaitLiveFeed(src *repl.Source) error {
	for deadline := time.Now().Add(20 * time.Second); !src.Live(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return fmt.Errorf("replica feed never went live")
		}
	}
	return nil
}

// checkReplState verifies a store holds exactly the model: every acked
// version present byte-for-byte, nothing extra, and the buffer
// manager's structural invariants intact on every shard.
func checkReplState(st *nvmstore.ShardedStore, model map[uint64][]byte) error {
	got := make(map[uint64][]byte)
	tab := st.Table(replTable)
	err := tab.Scan(0, 1<<62, 0, replRowSize, func(key uint64, row []byte) bool {
		got[key] = append([]byte(nil), row...)
		return true
	})
	if err != nil {
		return fmt.Errorf("scan: %v", err)
	}
	for key, want := range model {
		cur, ok := got[key]
		if !ok {
			return fmt.Errorf("acked key %d lost", key)
		}
		if !bytes.Equal(cur, want) {
			return fmt.Errorf("key %d holds a stale or corrupt version", key)
		}
	}
	if len(got) != len(model) {
		return fmt.Errorf("store holds %d rows, model %d", len(got), len(model))
	}
	for i := 0; i < st.NumShards(); i++ {
		err := st.WithShard(i, func(s *nvmstore.Store) error { return engine.Of(s).Manager().CheckInvariants() })
		if err != nil {
			return fmt.Errorf("shard %d invariants: %v", i, err)
		}
	}
	return nil
}

// runReplPoint runs one crash or network point: drive the full write
// sequence through a retrying client against the primary, then require
// the replica to converge and match the model exactly. A crash point
// arms the single shot on the replica's store, a network point on the
// primary server's response writes; the bootstrap axis preloads the
// primary with one row per key, which joins the model and is
// overwritten like any other.
func runReplPoint(cfg ReplicationConfig, kind fault.Kind, bootstrap bool, point int64) (crashed bool, err error) {
	plan := &fault.Plan{Seed: cfg.Seed, Rules: []fault.Rule{{Kind: kind, EveryN: point, Limit: 1}}}
	crash := kind == fault.WALFlushCrash
	preload := 0
	if bootstrap {
		preload = replRows
	}
	var p *replPair
	if crash {
		p, err = startReplPair(cfg, preload, nil, plan)
	} else {
		p, err = startReplPair(cfg, preload, plan.Injector(0), nil)
	}
	if err != nil {
		return false, err
	}
	defer p.close()
	model := make(map[uint64][]byte)
	for i := 0; i < preload; i++ {
		model[replKey(i)] = replRow(cfg, i)
	}

	cl, err := dialRepl(p, p.paddr)
	if err != nil {
		return false, err
	}
	if err := awaitLiveFeed(p.src); err != nil {
		return false, err
	}
	for i := 0; i < replWrites; i++ {
		key, row := replKey(i), replRow(cfg, i)
		if err := cl.Put(replTable, key, row); err != nil {
			return false, fmt.Errorf("put %d: %v", i, err)
		}
		model[key] = row
	}

	// Every write above was acknowledged; the replica must catch up to
	// the primary's durable positions and hold exactly the model.
	if err := p.rp.WaitLSN(repl.DurableLSNs(p.pstore), 20*time.Second); err != nil {
		return false, fmt.Errorf("replica never converged: %v", err)
	}
	crashed = p.rp.Stats().ApplyCrashes > 0
	if err := checkReplState(p.pstore, model); err != nil {
		return crashed, fmt.Errorf("primary: %v", err)
	}
	if err := checkReplState(p.rstore, model); err != nil {
		return crashed, fmt.Errorf("replica: %v", err)
	}
	if crash && !crashed {
		return false, fmt.Errorf("scheduled replica crash never fired")
	}
	return crashed, nil
}

// runPromotePoint fails over after `point` acknowledged writes and
// verifies the promoted replica serves every one of them, the old
// primary is fenced with the classified error, and the rest of the
// workload lands on the new primary.
func runPromotePoint(cfg ReplicationConfig, point int64) error {
	p, err := startReplPair(cfg, 0, nil, nil)
	if err != nil {
		return err
	}
	defer p.close()
	pcl, err := dialRepl(p, p.paddr)
	if err != nil {
		return err
	}
	rcl, err := dialRepl(p, p.raddr)
	if err != nil {
		return err
	}

	// Before promotion the replica must reject writes as READONLY.
	if err := rcl.Put(replTable, 0, replRow(cfg, 0)); !client.IsReadOnly(err) {
		return fmt.Errorf("unpromoted replica accepted a write (err=%v)", err)
	}

	if err := awaitLiveFeed(p.src); err != nil {
		return err
	}
	model := make(map[uint64][]byte)
	for i := 0; i < int(point); i++ {
		key, row := replKey(i), replRow(cfg, i)
		if err := pcl.Put(replTable, key, row); err != nil {
			return fmt.Errorf("put %d: %v", i, err)
		}
		model[key] = row
	}

	// Fail over: promote the replica to epoch 2, then fence the old
	// primary so it rejects every later write.
	applied, err := rcl.Promote(2)
	if err != nil {
		return fmt.Errorf("promote replica: %v", err)
	}
	if len(applied) != replShards {
		return fmt.Errorf("promote returned %d applied LSNs, want %d", len(applied), replShards)
	}
	if _, err := pcl.Promote(2); err != nil {
		return fmt.Errorf("fence old primary: %v", err)
	}

	// The promoted replica holds the acked prefix — semi-sync made
	// every acknowledged write durable there before its ack.
	if err := checkReplState(p.rstore, model); err != nil {
		return fmt.Errorf("promoted replica vs acked prefix: %v", err)
	}

	// A client still pointed at the old primary gets the classified
	// fencing error and fails over; the remaining writes land on the
	// new primary.
	cur := pcl
	for i := int(point); i < replWrites; i++ {
		key, row := replKey(i), replRow(cfg, i)
		err := cur.Put(replTable, key, row)
		if client.IsFenced(err) {
			cur = rcl
			err = cur.Put(replTable, key, row)
		}
		if err != nil {
			return fmt.Errorf("failover put %d: %v", i, err)
		}
		model[key] = row
	}
	if int(point) < replWrites && cur != rcl {
		return fmt.Errorf("old primary accepted writes after fencing")
	}
	if err := checkReplState(p.rstore, model); err != nil {
		return fmt.Errorf("new primary after failover: %v", err)
	}
	// The new primary reports its role and epoch.
	doc, err := rcl.ReplLSNs()
	if err != nil {
		return fmt.Errorf("repl lsns on new primary: %v", err)
	}
	if doc.Epoch != 2 || doc.Role != wire.RolePrimary {
		return fmt.Errorf("new primary reports epoch=%d role=%d, want epoch=2 role=primary", doc.Epoch, doc.Role)
	}
	return nil
}
