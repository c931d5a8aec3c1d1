package repl_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"testing"
	"time"

	"nvmstore"
	"nvmstore/internal/client"
	"nvmstore/internal/fault"
	"nvmstore/internal/repl"
	"nvmstore/internal/server"
	"nvmstore/internal/wire"
)

const (
	testTable   = 1
	testRowSize = 64
)

// newStore opens a small sharded three-tier store with the test table.
func newStore(t *testing.T, shards int) *nvmstore.ShardedStore {
	t.Helper()
	store, err := nvmstore.OpenSharded(shards, nvmstore.Options{
		Architecture: nvmstore.ThreeTier,
		DRAMBytes:    8 << 20,
		NVMBytes:     32 << 20,
		SSDBytes:     128 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.CreateTable(testTable, testRowSize); err != nil {
		t.Fatal(err)
	}
	return store
}

// serve starts a server over store and returns its address.
func serve(t *testing.T, store *nvmstore.ShardedStore, sopts server.Options) string {
	t.Helper()
	srv := server.New(store, sopts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-errc; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return ln.Addr().String()
}

// startReplica connects a replica store to the primary and serves it.
func startReplica(t *testing.T, store *nvmstore.ShardedStore, primary string) (*repl.Replica, string) {
	t.Helper()
	rp, err := repl.NewReplica(store, repl.ReplicaOptions{Primary: primary, Backoff: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rp.Close)
	addr := serve(t, store, server.Options{Replica: rp, Repl: repl.NewSource(store, repl.SourceOptions{})})
	return rp, addr
}

// dial opens a client pool on addr.
func dial(t *testing.T, addr string) *client.Client {
	t.Helper()
	cl, err := client.Dial(addr, client.Options{Conns: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// rowFor builds a deterministic full-size row for key.
func rowFor(key uint64) []byte {
	row := make([]byte, testRowSize)
	binary.BigEndian.PutUint64(row, key)
	for i := 8; i < len(row); i++ {
		row[i] = byte(key + uint64(i))
	}
	return row
}

// dump reads every row of the test table.
func dump(t *testing.T, store *nvmstore.ShardedStore) map[uint64][]byte {
	t.Helper()
	out := make(map[uint64][]byte)
	tab := store.Table(testTable)
	err := tab.Scan(0, 1<<30, 0, testRowSize, func(key uint64, row []byte) bool {
		out[key] = append([]byte(nil), row...)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// syncReplica blocks until the replica covers the primary's durable
// vector (read-your-writes through the wire calls clients use).
func syncReplica(t *testing.T, primaryCl, replicaCl *client.Client) {
	t.Helper()
	lsns, err := primaryCl.ReplLSNs()
	if err != nil {
		t.Fatal(err)
	}
	if lsns.Role != wire.RolePrimary {
		t.Fatalf("primary reports role %d", lsns.Role)
	}
	if err := replicaCl.WaitLSN(lsns.LSNs, 10*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestLiveReplication(t *testing.T) {
	primary := newStore(t, 2)
	src := repl.NewSource(primary, repl.SourceOptions{})
	paddr := serve(t, primary, server.Options{Repl: src})
	replica := newStore(t, 2)
	rp, raddr := startReplica(t, replica, paddr)

	pcl, rcl := dial(t, paddr), dial(t, raddr)
	const n = 200
	for k := uint64(0); k < n; k++ {
		if err := pcl.Put(testTable, k, rowFor(k)); err != nil {
			t.Fatal(err)
		}
	}
	syncReplica(t, pcl, rcl)

	for k := uint64(0); k < n; k++ {
		row, found, err := rcl.Get(testTable, k)
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Fatalf("key %d missing on replica", k)
		}
		if !bytes.Equal(row, rowFor(k)) {
			t.Fatalf("key %d differs on replica", k)
		}
	}

	// Deletes replicate too.
	if _, err := pcl.Delete(testTable, 0); err != nil {
		t.Fatal(err)
	}
	syncReplica(t, pcl, rcl)
	if _, found, err := rcl.Get(testTable, 0); err != nil || found {
		t.Fatalf("deleted key still on replica (found=%v err=%v)", found, err)
	}

	// An unpromoted replica rejects writes with the READONLY class.
	err := rcl.Put(testTable, 999, rowFor(999))
	if !client.IsReadOnly(err) {
		t.Fatalf("replica write: got %v, want READONLY rejection", err)
	}
	if got := rp.Stats(); !got.Connected || got.Batches == 0 {
		t.Fatalf("replica stats: %+v", got)
	}
}

// TestStealingTransactionReplicates: on a primary whose DRAM holds a few
// pages per shard, one wire transaction rewrites rows on many leaves, so
// its own evictions log undo records. Those never leave the primary's log
// — a replica rejects any record kind it cannot apply — and the replica
// converges on the committed rows.
func TestStealingTransactionReplicates(t *testing.T) {
	small := func() *nvmstore.ShardedStore {
		store, err := nvmstore.OpenSharded(2, nvmstore.Options{
			Architecture: nvmstore.ThreeTier,
			DRAMBytes:    256 << 10,
			NVMBytes:     32 << 20,
			SSDBytes:     128 << 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := store.CreateTable(testTable, testRowSize); err != nil {
			t.Fatal(err)
		}
		return store
	}
	primary := small()
	paddr := serve(t, primary, server.Options{Repl: repl.NewSource(primary, repl.SourceOptions{})})
	replica := small()
	rp, raddr := startReplica(t, replica, paddr)
	pcl, rcl := dial(t, paddr), dial(t, raddr)
	const n = 20000
	for k := uint64(0); k < n; k++ {
		if err := pcl.Put(testTable, k, rowFor(k)); err != nil {
			t.Fatal(err)
		}
	}
	syncReplica(t, pcl, rcl)
	undos, reconnects := primary.Metrics().Log.Undos, rp.Stats().Reconnects
	tx, err := pcl.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < n; k += 50 {
		if err := tx.Put(testTable, k, rowFor(k+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if primary.Metrics().Log.Undos == undos {
		t.Fatal("the transaction stole nothing on the primary")
	}
	syncReplica(t, pcl, rcl)
	want, got := dump(t, primary), dump(t, replica)
	if len(got) != len(want) {
		t.Fatalf("replica holds %d rows, primary %d", len(got), len(want))
	}
	for k, row := range want {
		if !bytes.Equal(got[k], row) {
			t.Fatalf("key %d differs on replica", k)
		}
	}
	if st := rp.Stats(); !st.Connected || st.Reconnects != reconnects {
		t.Fatalf("the replica's feed broke on the transaction: %+v", st)
	}
}

func TestSnapshotBootstrap(t *testing.T) {
	primary := newStore(t, 2)
	src := repl.NewSource(primary, repl.SourceOptions{SnapRows: 64})
	paddr := serve(t, primary, server.Options{Repl: src})

	pcl := dial(t, paddr)
	const n = 300
	for k := uint64(0); k < n; k++ {
		if err := pcl.Put(testTable, k, rowFor(k)); err != nil {
			t.Fatal(err)
		}
	}

	// The replica attaches after the fact: nothing in the ring covers
	// LSN 0, so it must bootstrap from a snapshot, then go live.
	replica := newStore(t, 2)
	_, raddr := startReplica(t, replica, paddr)
	rcl := dial(t, raddr)
	syncReplica(t, pcl, rcl)
	if src.Stats().SnapshotChunks == 0 {
		t.Fatal("no snapshot chunks streamed")
	}

	// And live writes keep flowing after the bootstrap.
	for k := uint64(n); k < n+50; k++ {
		if err := pcl.Put(testTable, k, rowFor(k)); err != nil {
			t.Fatal(err)
		}
	}
	syncReplica(t, pcl, rcl)
	want, got := dump(t, primary), dump(t, replica)
	if len(got) != len(want) {
		t.Fatalf("replica has %d rows, primary %d", len(got), len(want))
	}
	for k, row := range want {
		if !bytes.Equal(got[k], row) {
			t.Fatalf("key %d differs after bootstrap", k)
		}
	}
}

func TestResumeAfterReconnect(t *testing.T) {
	primary := newStore(t, 2)
	src := repl.NewSource(primary, repl.SourceOptions{})
	paddr := serve(t, primary, server.Options{Repl: src})
	replica := newStore(t, 2)

	rp, err := repl.NewReplica(replica, repl.ReplicaOptions{Primary: paddr, Backoff: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	pcl := dial(t, paddr)
	for k := uint64(0); k < 100; k++ {
		if err := pcl.Put(testTable, k, rowFor(k)); err != nil {
			t.Fatal(err)
		}
	}
	lsns, err := pcl.ReplLSNs()
	if err != nil {
		t.Fatal(err)
	}
	if err := rp.WaitLSN(lsns.LSNs, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	rp.Close() // replica goes away mid-stream

	for k := uint64(100); k < 200; k++ {
		if err := pcl.Put(testTable, k, rowFor(k)); err != nil {
			t.Fatal(err)
		}
	}

	// A new replica over the same store resumes from its durable meta
	// row — never re-applying what it already has, never skipping.
	rp2, err := repl.NewReplica(replica, repl.ReplicaOptions{Primary: paddr, Backoff: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rp2.Close()
	if lsns, err = pcl.ReplLSNs(); err != nil {
		t.Fatal(err)
	}
	if err := rp2.WaitLSN(lsns.LSNs, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	want, got := dump(t, primary), dump(t, replica)
	if len(got) != len(want) {
		t.Fatalf("replica has %d rows, primary %d", len(got), len(want))
	}
	for k, row := range want {
		if !bytes.Equal(got[k], row) {
			t.Fatalf("key %d differs after resume", k)
		}
	}
}

func TestPromoteAndFence(t *testing.T) {
	primary := newStore(t, 2)
	// Semi-synchronous: an acked write is on the replica before the ack.
	src := repl.NewSource(primary, repl.SourceOptions{SyncReplicas: 1, SyncTimeout: 5 * time.Second})
	paddr := serve(t, primary, server.Options{Repl: src})
	pcl := dial(t, paddr)
	const n = 100
	// No replica is attached yet: the wait has no feed to wait for, so
	// the ack goes out short of SyncReplicas — and is counted.
	if err := pcl.Put(testTable, n, rowFor(n)); err != nil {
		t.Fatal(err)
	}
	if got := src.Stats().DegradedAcks; got != 1 {
		t.Fatalf("unreplicated PUT: %d degraded acks, want 1", got)
	}

	replica := newStore(t, 2)
	rp, raddr := startReplica(t, replica, paddr)
	rcl := dial(t, raddr)
	// Wait until the feed is live on every shard so semi-sync is armed.
	syncReplica(t, pcl, rcl)
	for k := uint64(0); k < n; k++ {
		if err := pcl.Put(testTable, k, rowFor(k)); err != nil {
			t.Fatal(err)
		}
	}
	if got := src.Stats().DegradedAcks; got != 1 {
		t.Fatalf("%d degraded acks after %d replicated PUTs, want still 1", got, n)
	}

	// Promote the replica to epoch 2, then fence the old primary.
	applied, err := rcl.Promote(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != 2 {
		t.Fatalf("promote returned %d shards", len(applied))
	}
	if !rp.Promoted() || rp.Epoch() != 2 {
		t.Fatalf("replica not promoted: epoch %d", rp.Epoch())
	}
	if _, err := pcl.Promote(2); err != nil {
		t.Fatal(err)
	}

	// The fenced primary rejects writes with the FENCED class...
	err = pcl.Put(testTable, 7777, rowFor(7777))
	if !client.IsFenced(err) {
		t.Fatalf("fenced primary write: got %v, want FENCED rejection", err)
	}
	// ...rejects the read barrier the same way (answering OK would bless
	// unboundedly stale reads against a dead lineage)...
	err = pcl.WaitLSN([]uint64{0, 0}, time.Second)
	if !client.IsFenced(err) {
		t.Fatalf("fenced primary WAIT: got %v, want FENCED rejection", err)
	}
	// ...and reports the fenced state, carrying the superseding epoch, so
	// read clients re-resolve instead of trusting its vector.
	flsns, err := pcl.ReplLSNs()
	if err != nil {
		t.Fatal(err)
	}
	if flsns.Role != wire.RoleFenced || flsns.Epoch != 2 {
		t.Fatalf("fenced primary reports role %d epoch %d, want fenced at 2", flsns.Role, flsns.Epoch)
	}
	// The client retry lands on the new primary.
	if err := rcl.Put(testTable, 7777, rowFor(7777)); err != nil {
		t.Fatal(err)
	}

	// Zero acked-write loss: every write the old primary acknowledged
	// under semi-sync is on the promoted store.
	got := dump(t, replica)
	for k := uint64(0); k < n; k++ {
		if !bytes.Equal(got[k], rowFor(k)) {
			t.Fatalf("acked key %d lost by failover", k)
		}
	}
	lsns, err := rcl.ReplLSNs()
	if err != nil {
		t.Fatal(err)
	}
	if lsns.Role != wire.RolePrimary || lsns.Epoch != 2 {
		t.Fatalf("promoted replica reports role %d epoch %d", lsns.Role, lsns.Epoch)
	}
}

func TestTruncationWatermark(t *testing.T) {
	store := newStore(t, 1)
	src := repl.NewSource(store, repl.SourceOptions{})
	f := src.NewFeed("test")
	if err := src.Attach(f, wire.ReplSubscribe{Epoch: 1, From: []uint64{0}}); err != nil {
		t.Fatal(err)
	}
	defer src.Detach(f)
	go func() {
		for range f.Items() {
		}
	}()
	tab := store.Table(testTable)
	for k := uint64(0); k < 50; k++ {
		if err := tab.Put(k, rowFor(k)); err != nil {
			t.Fatal(err)
		}
	}
	// The feed never acks, yet the checkpoint truncates: the flush at the
	// start of the checkpoint handed everything durable to the ship tap,
	// and shipped records are the Source's to retain (retention ring and
	// feed queues), never the WAL's. Replica ack progress must not pin
	// the log — a primary with one lagging replica would otherwise fill
	// its WAL region and stop accepting writes.
	if err := store.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	m := store.Metrics()
	if m.Log.TruncateSkips != 0 {
		t.Fatalf("unacked feed pinned the log: %+v", m.Log)
	}
	if m.Log.Truncates == 0 {
		t.Fatal("checkpoint never truncated with a live feed attached")
	}
}

func TestCrossEpochRepointForcesSnapshot(t *testing.T) {
	// A is primary at epoch 1 with replicas B and C.
	a := newStore(t, 2)
	srcA := repl.NewSource(a, repl.SourceOptions{})
	aaddr := serve(t, a, server.Options{Repl: srcA})

	b := newStore(t, 2)
	rpB, err := repl.NewReplica(b, repl.ReplicaOptions{Primary: aaddr, Backoff: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rpB.Close)
	srcB := repl.NewSource(b, repl.SourceOptions{})
	baddr := serve(t, b, server.Options{Replica: rpB, Repl: srcB})

	c := newStore(t, 2)
	rpC, err := repl.NewReplica(c, repl.ReplicaOptions{Primary: aaddr, Backoff: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	acl, bcl := dial(t, aaddr), dial(t, baddr)
	const n = 100
	for k := uint64(0); k < n; k++ {
		if err := acl.Put(testTable, k, rowFor(k)); err != nil {
			t.Fatal(err)
		}
	}
	lsns, err := acl.ReplLSNs()
	if err != nil {
		t.Fatal(err)
	}
	if err := rpB.WaitLSN(lsns.LSNs, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := rpC.WaitLSN(lsns.LSNs, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	rpC.Close() // C is down through the failover

	// B becomes primary at epoch 2, A is fenced, and the new lineage
	// diverges: every old key overwritten, fresh keys appended.
	if _, err := bcl.Promote(2); err != nil {
		t.Fatal(err)
	}
	if _, err := acl.Promote(2); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < n+50; k++ {
		if err := bcl.Put(testTable, k, rowFor(k+1000)); err != nil {
			t.Fatal(err)
		}
	}

	// C comes back re-pointed at B. Its meta rows carry epoch 1 and
	// resume LSNs from A's sequence — positions B never produced — so
	// the subscribe must bootstrap from a snapshot of B's lineage, never
	// resume (or be rejected) on a cross-epoch LSN comparison.
	rpC2, err := repl.NewReplica(c, repl.ReplicaOptions{Primary: baddr, Backoff: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rpC2.Close()
	if lsns, err = bcl.ReplLSNs(); err != nil {
		t.Fatal(err)
	}
	if lsns.Epoch != 2 {
		t.Fatalf("new primary reports epoch %d", lsns.Epoch)
	}
	if err := rpC2.WaitLSN(lsns.LSNs, 20*time.Second); err != nil {
		t.Fatalf("re-pointed replica never converged: %v (stats %+v)", err, rpC2.Stats())
	}
	if srcB.Stats().SnapshotChunks == 0 {
		t.Fatal("cross-epoch subscribe resumed by LSN instead of snapshotting")
	}
	want, got := dump(t, b), dump(t, c)
	if len(got) != len(want) {
		t.Fatalf("replica has %d rows, new primary %d", len(got), len(want))
	}
	for k, row := range want {
		if !bytes.Equal(got[k], row) {
			t.Fatalf("key %d differs after cross-epoch re-point", k)
		}
	}
}

func TestMetaTableReservedAtServer(t *testing.T) {
	store := newStore(t, 1)
	addr := serve(t, store, server.Options{Repl: repl.NewSource(store, repl.SourceOptions{})})
	cl := dial(t, addr)
	// Data ops on the reserved replication-metadata table are rejected:
	// rows there are excluded from the ship tap and from snapshots, so
	// accepting user data would let it silently diverge from replicas.
	if err := cl.Put(repl.MetaTable, 1, rowFor(1)); err == nil {
		t.Fatal("PUT to the reserved replication table accepted")
	}
	if _, _, err := cl.Get(repl.MetaTable, 1); err == nil {
		t.Fatal("GET on the reserved replication table accepted")
	}
	if _, err := cl.Delete(repl.MetaTable, 1); err == nil {
		t.Fatal("DELETE on the reserved replication table accepted")
	}
	if _, err := cl.Scan(repl.MetaTable, 0, 10); err == nil {
		t.Fatal("SCAN on the reserved replication table accepted")
	}
	// Ordinary tables are unaffected.
	if err := cl.Put(testTable, 1, rowFor(1)); err != nil {
		t.Fatal(err)
	}
}

func TestFeedOverflowDropsReplica(t *testing.T) {
	store := newStore(t, 1)
	src := repl.NewSource(store, repl.SourceOptions{FeedQueue: 4})
	f := src.NewFeed("slow")
	if err := src.Attach(f, wire.ReplSubscribe{Epoch: 1, From: []uint64{0}}); err != nil {
		t.Fatal(err)
	}
	tab := store.Table(testTable)
	for k := uint64(0); k < 50; k++ {
		if err := tab.Put(k, rowFor(k)); err != nil {
			t.Fatal(err)
		}
	}
	// Nobody drains the feed: it must be dropped, not wedge writes.
	select {
	case _, ok := <-waitClosed(f):
		_ = ok
	case <-time.After(5 * time.Second):
		t.Fatal("overflowing feed never dropped")
	}
	if src.Stats().DroppedFeeds == 0 {
		t.Fatal("DroppedFeeds not counted")
	}
	// A fresh feed can still attach (bootstrapping by snapshot).
	f2 := src.NewFeed("fresh")
	if err := src.Attach(f2, wire.ReplSubscribe{Epoch: 1, From: []uint64{0}}); err != nil {
		t.Fatal(err)
	}
	src.Detach(f2)
}

// waitClosed drains f's items on a goroutine and closes the returned
// channel when the feed's channel closes.
func waitClosed(f *repl.Feed) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		for range f.Items() {
		}
		close(done)
	}()
	return done
}

func TestFenceKillsFeedsAndRejectsAttach(t *testing.T) {
	store := newStore(t, 1)
	src := repl.NewSource(store, repl.SourceOptions{})
	f := src.NewFeed("r1")
	if err := src.Attach(f, wire.ReplSubscribe{Epoch: 1, From: []uint64{0}}); err != nil {
		t.Fatal(err)
	}
	drained := waitClosed(f)
	if src.Fence(1) {
		t.Fatal("fence to the current epoch accepted")
	}
	if !src.Fence(2) {
		t.Fatal("fence to a newer epoch refused")
	}
	if !src.Fence(2) {
		t.Fatal("fence retry for the same epoch refused (must be idempotent)")
	}
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("fencing did not drop the feed")
	}
	f2 := src.NewFeed("r2")
	if err := src.Attach(f2, wire.ReplSubscribe{Epoch: 1, From: []uint64{0}}); err == nil {
		t.Fatal("fenced primary accepted a new feed")
	}
}

func TestCrashMidApplyRecovers(t *testing.T) {
	primary := newStore(t, 1)
	src := repl.NewSource(primary, repl.SourceOptions{})
	paddr := serve(t, primary, server.Options{Repl: src})

	// The replica store power-fails its WAL flush once, mid-apply: the
	// worker must recover the shard from its own log and resume from
	// the meta row with nothing lost and nothing doubled.
	replica := newStore(t, 1)
	replica.InjectFaults(&fault.Plan{Seed: 42, Rules: []fault.Rule{
		{Kind: fault.WALFlushCrash, EveryN: 7, Limit: 1},
	}})
	rp, err := repl.NewReplica(replica, repl.ReplicaOptions{Primary: paddr, Backoff: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()
	// Writes that precede the replica's subscription reach it as one
	// bootstrap, in too few WAL flushes for the 7th to exist: every write
	// must be shipped as a batch of its own, so wait for the live feed.
	for deadline := time.Now().Add(20 * time.Second); !src.Live(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("replica feed never went live")
		}
	}

	pcl := dial(t, paddr)
	const n = 150
	for k := uint64(0); k < n; k++ {
		if err := pcl.Put(testTable, k, rowFor(k)); err != nil {
			t.Fatal(err)
		}
	}
	lsns, err := pcl.ReplLSNs()
	if err != nil {
		t.Fatal(err)
	}
	if err := rp.WaitLSN(lsns.LSNs, 20*time.Second); err != nil {
		t.Fatalf("replica never caught up after crash: %v (stats %+v)", err, rp.Stats())
	}
	if rp.Stats().ApplyCrashes == 0 {
		t.Fatal("fault never fired; test exercised nothing")
	}
	want, got := dump(t, primary), dump(t, replica)
	for k, row := range want {
		if !bytes.Equal(got[k], row) {
			t.Fatalf("key %d differs after crash recovery", k)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("replica has %d rows, primary %d", len(got), len(want))
	}
}

func TestSourceStatsShape(t *testing.T) {
	store := newStore(t, 2)
	src := repl.NewSource(store, repl.SourceOptions{})
	st := src.Stats()
	if st.Epoch != 1 || st.FencedBy != 0 || len(st.Replicas) != 0 {
		t.Fatalf("fresh source stats: %+v", st)
	}
	f := src.NewFeed("a")
	if err := src.Attach(f, wire.ReplSubscribe{Epoch: 1, From: []uint64{0, 0}}); err != nil {
		t.Fatal(err)
	}
	defer src.Detach(f)
	go func() {
		for range f.Items() {
		}
	}()
	st = src.Stats()
	if len(st.Replicas) != 1 || st.Replicas[0].Addr != "a" || len(st.Replicas[0].AckedLSN) != 2 {
		t.Fatalf("attached source stats: %+v", st)
	}
}

func TestSubscribeShardMismatch(t *testing.T) {
	store := newStore(t, 2)
	src := repl.NewSource(store, repl.SourceOptions{})
	f := src.NewFeed("bad")
	if err := src.Attach(f, wire.ReplSubscribe{Epoch: 1, From: []uint64{0}}); err == nil {
		t.Fatal("shard-count mismatch accepted")
	}
}

func init() {
	// Guard against the meta table id colliding with the test table.
	if repl.MetaTable == testTable {
		panic(fmt.Sprintf("test table id %d collides with MetaTable", testTable))
	}
}
