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
// schedules at least MinPoints (default 100) points.
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
	// write sequence (default 30, grown as needed to reach MinPoints).
	PromotePoints int
	// MinPoints is the sweep's floor on total scheduled points
	// (default 100): promote points are topped up to meet it.
	MinPoints int
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
	if c.MinPoints <= 0 {
		c.MinPoints = 100
	}
}

func (c *ReplicationConfig) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
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
// points whose scheduled fault surfaced on the replica, and Recoveries
// those that then converged back to the primary's state.
func RunReplication(cfg ReplicationConfig) (Report, error) {
	cfg.applyDefaults()
	rep := Report{Opportunities: make(map[fault.Kind]int64)}

	floor := minWritesPerShard()
	livePoints := spread(cfg.CrashPoints, floor)
	// Bootstrap adds the snapshot's own flushes (durable meta wipe +
	// final chunk) ahead of the live writes' flushes.
	bootPoints := spread(cfg.CrashPoints, floor+2)
	half := cfg.NetPoints / 2
	netSpan := int64(2 * replWrites)
	dropPoints := spread(cfg.NetPoints-half, netSpan)
	partialPoints := spread(half, netSpan)
	fixed := len(livePoints) + len(bootPoints) + len(dropPoints) + len(partialPoints)
	promoteN := cfg.PromotePoints
	if need := cfg.MinPoints - fixed; need > promoteN {
		promoteN = need
	}
	promotePoints := spread(promoteN, int64(replWrites))

	rep.Opportunities[fault.WALFlushCrash] = floor + 2
	rep.Opportunities[fault.NetDrop] = netSpan
	rep.Opportunities[fault.NetPartial] = netSpan

	axes := []replAxis{
		{"repl.crash.live", livePoints, false, true, fault.WALFlushCrash},
		{"repl.crash.boot", bootPoints, true, true, fault.WALFlushCrash},
		{"repl.net.drop", dropPoints, false, false, fault.NetDrop},
		{"repl.net.partial", partialPoints, false, false, fault.NetPartial},
	}
	for _, a := range axes {
		for _, point := range a.points {
			rep.Points++
			crashed, err := runReplPoint(cfg, a, point)
			if err != nil {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("%s@%d: %v", a.name, point, err))
				cfg.logf("%s@%d: VIOLATION: %v", a.name, point, err)
				continue
			}
			if crashed {
				rep.Crashes++
				rep.Recoveries++
			}
			cfg.logf("%s@%d: ok (crashed=%v)", a.name, point, crashed)
		}
	}
	for _, point := range promotePoints {
		rep.Points++
		if err := runPromotePoint(cfg, point); err != nil {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("repl.promote@%d: %v", point, err))
			cfg.logf("repl.promote@%d: VIOLATION: %v", point, err)
			continue
		}
		cfg.logf("repl.promote@%d/%d: ok", point, replWrites)
	}
	return rep, nil
}

// replAxis is one sweep dimension: its scheduled points and how each
// point's single shot is armed.
type replAxis struct {
	name      string
	points    []int64
	bootstrap bool
	crash     bool
	kind      fault.Kind
}

// replPair is one point's primary/replica topology.
type replPair struct {
	pstore, rstore *nvmstore.ShardedStore
	src            *repl.Source
	rp             *repl.Replica
	psrv, rsrv     *server.Server
	paddr, raddr   string
	cleanup        []func()
}

func (p *replPair) close() {
	for i := len(p.cleanup) - 1; i >= 0; i-- {
		p.cleanup[i]()
	}
}

func openReplStore(cfg ReplicationConfig) (*nvmstore.ShardedStore, error) {
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

// startReplPair builds a fault-free semi-synchronous primary→replica
// pair with both ends served — the promote axis topology, where the
// replica must answer PROMOTE and then serve writes over the wire.
func startReplPair(cfg ReplicationConfig) (*replPair, error) {
	p := &replPair{}
	ok := false
	defer func() {
		if !ok {
			p.close()
		}
	}()

	var err error
	if p.pstore, err = openReplStore(cfg); err != nil {
		return nil, err
	}
	p.cleanup = append(p.cleanup, func() { p.pstore.Close() })
	p.src = repl.NewSource(p.pstore, repl.SourceOptions{
		SyncReplicas: 1,
		SyncTimeout:  2 * time.Second,
	})
	p.psrv = server.New(p.pstore, server.Options{Repl: p.src})
	if p.paddr, err = serveRepl(p, p.psrv); err != nil {
		return nil, err
	}

	if p.rstore, err = openReplStore(cfg); err != nil {
		return nil, err
	}
	p.cleanup = append(p.cleanup, func() { p.rstore.Close() })
	if p.rp, err = repl.NewReplica(p.rstore, repl.ReplicaOptions{
		Primary: p.paddr,
		Backoff: 10 * time.Millisecond,
	}); err != nil {
		return nil, err
	}
	p.cleanup = append(p.cleanup, p.rp.Close)
	p.rsrv = server.New(p.rstore, server.Options{
		Replica: p.rp,
		Repl:    repl.NewSource(p.rstore, repl.SourceOptions{}),
	})
	if p.raddr, err = serveRepl(p, p.rsrv); err != nil {
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
// the replica to converge and match the model exactly.
func runReplPoint(cfg ReplicationConfig, a replAxis, point int64) (crashed bool, err error) {
	var netInj *fault.Injector
	var plan *fault.Plan
	if a.crash {
		plan = &fault.Plan{Seed: cfg.Seed, Rules: []fault.Rule{
			{Kind: a.kind, EveryN: point, Limit: 1},
		}}
	} else {
		netInj = (&fault.Plan{Seed: cfg.Seed, Rules: []fault.Rule{
			{Kind: a.kind, EveryN: point, Limit: 1},
		}}).Injector(0)
	}

	// The bootstrap axis preloads the primary before the replica ever
	// attaches, forcing the snapshot path; preloaded rows join the
	// model and are overwritten like any other.
	model := make(map[uint64][]byte)
	p := &replPair{}
	if p.pstore, err = openReplStore(cfg); err != nil {
		return false, err
	}
	defer p.close()
	p.cleanup = append(p.cleanup, func() { p.pstore.Close() })
	if a.bootstrap {
		tab := p.pstore.Table(replTable)
		for key := uint64(0); key < uint64(replRows); key++ {
			row := replRow(cfg, int(key))
			if err := tab.Put(key, row); err != nil {
				return false, fmt.Errorf("preload %d: %v", key, err)
			}
			model[key] = row
		}
	}
	p.src = repl.NewSource(p.pstore, repl.SourceOptions{
		SyncReplicas: 1, SyncTimeout: 2 * time.Second,
	})
	p.psrv = server.New(p.pstore, server.Options{Repl: p.src, Faults: netInj})
	if p.paddr, err = serveRepl(p, p.psrv); err != nil {
		return false, err
	}
	if p.rstore, err = openReplStore(cfg); err != nil {
		return false, err
	}
	p.cleanup = append(p.cleanup, func() { p.rstore.Close() })
	if plan != nil {
		p.rstore.InjectFaults(plan)
	}
	if p.rp, err = repl.NewReplica(p.rstore, repl.ReplicaOptions{
		Primary: p.paddr, Backoff: 10 * time.Millisecond,
	}); err != nil {
		return false, err
	}
	p.cleanup = append(p.cleanup, p.rp.Close)

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
	if a.crash && !crashed {
		return false, fmt.Errorf("scheduled replica crash never fired")
	}
	return crashed, nil
}

// runPromotePoint fails over after `point` acknowledged writes and
// verifies the promoted replica serves every one of them, the old
// primary is fenced with the classified error, and the rest of the
// workload lands on the new primary.
func runPromotePoint(cfg ReplicationConfig, point int64) error {
	p, err := startReplPair(cfg)
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
