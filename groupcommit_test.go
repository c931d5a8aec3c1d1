package nvmstore

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"nvmstore/internal/fault"
)

// TestGroupCommitAckDurable pins the acknowledged-implies-durable
// contract at the group-commit crash point: a crash between a batch's
// commit records and the coalesced log-tail flush (fault.WALGroupCrash,
// the moment where the server has executed a batch but not yet released
// any response) must lose the unflushed batch completely — it was never
// acknowledged — while every previously flushed batch survives intact.
func TestGroupCommitAckDurable(t *testing.T) {
	s := open(t, ThreeTier)
	table, err := s.CreateTable(1, 16)
	if err != nil {
		t.Fatal(err)
	}
	row := func(k uint64) []byte { return bytes.Repeat([]byte{byte(k)}, 16) }
	put := func(k uint64) error {
		return s.UpdateNoFlush(func() error { return table.Insert(k, row(k)) })
	}

	// Batch A: commit without flushing, then the group flush. After
	// FlushWAL returns, these writes are acknowledged.
	for k := uint64(1); k <= 3; k++ {
		if err := put(k); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := s.FlushWAL(); err != nil || n != 3 {
		t.Fatalf("FlushWAL = %d, %v; want 3 commits flushed", n, err)
	}

	// Batch B: committed, unflushed, unacknowledged — and the group
	// flush crashes before persisting anything.
	s.InjectFaults(&fault.Plan{Seed: 1, Rules: []fault.Rule{
		{Kind: fault.WALGroupCrash, EveryN: 1, Limit: 1},
	}})
	for k := uint64(4); k <= 6; k++ {
		if err := put(k); err != nil {
			t.Fatal(err)
		}
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := fault.AsCrash(r); !ok {
					panic(r)
				}
				return
			}
			t.Fatal("FlushWAL did not hit the armed wal.group crash")
		}()
		s.FlushWAL()
	}()

	if _, err := s.CrashRestart(); err != nil {
		t.Fatalf("recovery: %v", err)
	}
	table = s.Table(1)
	buf := make([]byte, 16)
	for k := uint64(1); k <= 3; k++ { // acknowledged: must survive
		if found, err := table.Lookup(k, buf); err != nil || !found || !bytes.Equal(buf, row(k)) {
			t.Fatalf("acked key %d lost or corrupted after crash (found=%v err=%v)", k, found, err)
		}
	}
	for k := uint64(4); k <= 6; k++ { // never acknowledged: must be fully absent
		if found, _ := table.Lookup(k, buf); found {
			t.Fatalf("unflushed key %d survived the crash: commit records leaked without their flush", k)
		}
	}

	// The single-shot fault is spent: redoing batch B must stick.
	for k := uint64(4); k <= 6; k++ {
		if err := put(k); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CrashRestart(); err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	table = s.Table(1)
	for k := uint64(1); k <= 6; k++ {
		if found, err := table.Lookup(k, buf); err != nil || !found || !bytes.Equal(buf, row(k)) {
			t.Fatalf("key %d missing after redo (found=%v err=%v)", k, found, err)
		}
	}
}

// TestNoFlushCommitsShareOneFlush pins the flush amortization every
// group-commit site is built on. Twin stores get the same n updates: one
// commits each with its own flush (Update), the other with UpdateNoFlush
// and one FlushWAL. On ThreeTier the grouped twin's n commits take exactly
// one log-tail flush, and each of the n-1 flushes it saves is a persist
// barrier (WriteLatency) less the one line transfer (LineTransfer) the
// shared flush still pays for it — a bound on the simulated clock, so
// deterministic. On NVMDirect each update's write barrier flushes the
// log before the in-place store, so the flushing twin pays a barrier
// flush, a commit flush and a log cut per commit. The grouped twin's
// commit marks ride on the next update's barrier flush, one line
// transfer more, and one flush and one cut end the group: it takes n+1
// flushes instead of 2n and saves (n-1) × (2·WriteLatency − LineTransfer).
func TestNoFlushCommitsShareOneFlush(t *testing.T) {
	const n = 16
	type twin struct {
		sim              time.Duration
		commits, flushes int64
	}
	run := func(t *testing.T, arch Architecture, grouped bool) (twin, *Store) {
		s := open(t, arch)
		table, err := s.CreateTable(1, 16)
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(1); k <= n; k++ {
			if err := s.Update(func() error { return table.Insert(k, bytes.Repeat([]byte{byte(k)}, 16)) }); err != nil {
				t.Fatal(err)
			}
		}
		sim0, log0 := s.SimulatedTime(), s.Metrics().Log
		for k := uint64(1); k <= n; k++ {
			update := func() error {
				if found, err := table.UpdateField(k, 4, []byte{byte(k), 0xAB}); err != nil || !found {
					return fmt.Errorf("update %d: found=%v err=%v", k, found, err)
				}
				return nil
			}
			commit := s.Update
			if grouped {
				commit = s.UpdateNoFlush
			}
			if err := commit(update); err != nil {
				t.Fatal(err)
			}
		}
		if grouped {
			if _, err := s.FlushWAL(); err != nil {
				t.Fatal(err)
			}
		}
		log := s.Metrics().Log
		return twin{s.SimulatedTime() - sim0, log.Commits - log0.Commits, log.Flushes - log0.Flushes}, s
	}

	for _, arch := range []Architecture{ThreeTier, NVMDirect} {
		t.Run(arch.String(), func(t *testing.T) {
			each, _ := run(t, arch, false)
			group, s := run(t, arch, true)
			t.Logf("simulated time: %v flushing each, %v grouped", each.sim, group.sim)
			cfg := s.e.Manager().NVM().Config()
			wantEach, wantGroup, least := int64(n), int64(1), (n-1)*(cfg.WriteLatency-cfg.LineTransfer)
			if arch == NVMDirect {
				wantEach, wantGroup, least = 2*n, n+1, (n-1)*(2*cfg.WriteLatency-cfg.LineTransfer)
			}
			if each.commits != n || group.commits != n {
				t.Fatalf("commits: %d flushing each, %d grouped; want %d", each.commits, group.commits, n)
			}
			if each.flushes != wantEach || group.flushes != wantGroup {
				t.Fatalf("flushes: %d flushing each, %d grouped; want %d and %d", each.flushes, group.flushes, wantEach, wantGroup)
			}
			if opf := s.Metrics().OpsPerFlush; opf <= 1 && arch != NVMDirect {
				t.Fatalf("OpsPerFlush = %.2f, want > 1 after a shared flush", opf)
			}
			if saved := each.sim - group.sim; saved < least {
				t.Fatalf("grouping saved %v of simulated time (%v -> %v), want >= %v", saved, each.sim, group.sim, least)
			}
		})
	}
}

// TestShardedGroupCommitConcurrent drives concurrent autocommit writers
// through the sharded store's combining Batch and checks that every
// acknowledged write reads back — the transparent-coalescing path under
// real goroutine concurrency (the race detector sees this test).
func TestShardedGroupCommitConcurrent(t *testing.T) {
	s, err := OpenSharded(2, Options{
		Architecture: ThreeTier,
		DRAMBytes:    8 << 20,
		NVMBytes:     32 << 20,
		SSDBytes:     128 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tab, err := s.CreateTable(1, 16)
	if err != nil {
		t.Fatal(err)
	}

	const writers, per = 8, 40
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				k := uint64(w*per + i)
				if err := tab.Put(k, bytes.Repeat([]byte{byte(k%251) + 1}, 16)); err != nil {
					errs[w] = fmt.Errorf("put %d: %w", k, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	buf := make([]byte, 16)
	for k := uint64(0); k < writers*per; k++ {
		want := bytes.Repeat([]byte{byte(k%251) + 1}, 16)
		if found, err := tab.Lookup(k, buf); err != nil || !found || !bytes.Equal(buf, want) {
			t.Fatalf("key %d: found=%v err=%v", k, found, err)
		}
	}
	m := s.Metrics()
	if m.Log.Commits < writers*per {
		t.Fatalf("commits = %d, want >= %d", m.Log.Commits, writers*per)
	}
	if m.OpsPerFlush <= 0 {
		t.Fatalf("OpsPerFlush = %.2f, want > 0", m.OpsPerFlush)
	}
}

// openCombinerStore opens a two-shard store whose shard 0 the combiner
// tests drive (nothing but the Batch callers ever flushes the log), with
// a checkpoint base to recover from and n keys owned by shard 0.
func openCombinerStore(t *testing.T, n int) (*ShardedStore, *ShardedTable, []uint64) {
	t.Helper()
	s, err := OpenSharded(2, Options{
		Architecture:      ThreeTier,
		DRAMBytes:         8 << 20,
		NVMBytes:          32 << 20,
		SSDBytes:          128 << 20,
		StrictPersistence: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	tab, err := s.CreateTable(1, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var keys []uint64
	for k := uint64(0); len(keys) < n; k++ {
		if s.ShardFor(k) == 0 {
			keys = append(keys, k)
		}
	}
	return s, tab, keys
}

// batchCallers returns one single-commit writer per key of shard 0, in
// the two shapes a Batch call reaches the store in: a bare Batch (what
// a server connection issues) and an autocommit table write. Each stores
// its result in errs.
func batchCallers(s *ShardedStore, tab *ShardedTable, keys []uint64, row func(uint64) []byte, errs []error) []func() {
	calls := make([]func(), len(keys))
	for i, k := range keys {
		if i%2 == 0 {
			calls[i] = func() {
				errs[i] = s.Batch(0, func(st *Store) error {
					return st.UpdateNoFlush(func() error { return st.Table(1).Put(k, row(k)) })
				})
			}
		} else {
			calls[i] = func() { errs[i] = tab.Put(k, row(k)) }
		}
	}
	return calls
}

// queueBehindHeldShard takes shard 0's lock, starts one goroutine per
// call — the first becomes the leader and blocks on the lock, the rest
// are observed queued behind it — then releases the lock and waits for
// every call to return.
func queueBehindHeldShard(s *ShardedStore, calls []func()) {
	held, release := make(chan struct{}), make(chan struct{})
	go s.WithShard(0, func(*Store) error {
		close(held)
		<-release
		return nil
	})
	<-held
	c := &s.combiners[0]
	await := func(cond func() bool) {
		for {
			c.mu.Lock()
			ok := cond()
			c.mu.Unlock()
			if ok {
				return
			}
			runtime.Gosched()
		}
	}
	var wg sync.WaitGroup
	for i, call := range calls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			call()
		}()
		await(func() bool { return c.busy && len(c.queue) == i })
	}
	close(release)
	wg.Wait()
}

// TestCombinerCoalescesQueuedWriters pins both ends of the combining
// Batch: an uncontended caller flushes exactly once per call, and N
// callers of every shape stacked up behind a held shard leave in exactly
// 1 + ⌈(N-1)/maxCombine⌉ flushes — the first caller's group of one, then
// the queue in groups of at most maxCombine.
func TestCombinerCoalescesQueuedWriters(t *testing.T) {
	const callers = 1 + maxCombine + 8
	s, tab, keys := openCombinerStore(t, callers+10)
	row := func(k uint64) []byte { return bytes.Repeat([]byte{byte(k) + 1}, 16) }

	before := s.Metrics().Log
	solo := make([]error, 10)
	for i, call := range batchCallers(s, tab, keys[callers:], row, solo) {
		if call(); solo[i] != nil {
			t.Fatal(solo[i])
		}
	}
	after := s.Metrics().Log
	if c, f := after.Commits-before.Commits, after.Flushes-before.Flushes; c != 10 || f != 10 {
		t.Fatalf("uncontended callers: %d commits in %d flushes, want 10 in 10", c, f)
	}

	errs := make([]error, callers)
	before = after
	queueBehindHeldShard(s, batchCallers(s, tab, keys[:callers], row, errs))
	after = s.Metrics().Log
	want := int64(1 + (callers-1+maxCombine-1)/maxCombine)
	if c, f := after.Commits-before.Commits, after.Flushes-before.Flushes; c != callers || f != want {
		t.Fatalf("queued callers: %d commits in %d flushes, want %d in %d", c, f, callers, want)
	}
	buf := make([]byte, 16)
	for i, k := range keys[:callers] {
		if errs[i] != nil {
			t.Fatalf("put %d: %v", k, errs[i])
		}
		if found, err := tab.Lookup(k, buf); err != nil || !found || !bytes.Equal(buf, row(k)) {
			t.Fatalf("key %d: found=%v err=%v", k, found, err)
		}
	}
}

// TestCombinerCrashReleasesWriters crashes the shard at the group flush
// of a full group (fault.WALGroupCrash) with more callers still queued
// behind it. The leader panics and restarts the shard; every other caller
// must return — with errShardCrashed, not an ack — and the shard must
// serve again. Acknowledged writes survive the crash; writes that failed
// or panicked are absent.
func TestCombinerCrashReleasesWriters(t *testing.T) {
	const callers = 1 + maxCombine + 8 // a group of one, a full group, and a remainder
	s, tab, keys := openCombinerStore(t, callers)
	row := func(k uint64) []byte { return bytes.Repeat([]byte{byte(k) + 1}, 16) }
	// The second group flush on shard 0 — the full group's — crashes.
	s.InjectFaults(&fault.Plan{Seed: 1, Rules: []fault.Rule{
		{Kind: fault.WALGroupCrash, EveryN: 2, Limit: 1},
	}})

	errs := make([]error, callers)
	crashed := make([]bool, callers)
	calls := batchCallers(s, tab, keys, row, errs)
	for i, call := range calls {
		calls[i] = func() {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := fault.AsCrash(r); !ok {
						panic(r)
					}
					crashed[i] = true
					_, errs[i] = s.CrashRestartShard(0)
				}
			}()
			call()
		}
	}
	queueBehindHeldShard(s, calls)

	if errs[0] != nil || crashed[0] {
		t.Fatalf("first caller: err=%v crashed=%v, want a clean ack", errs[0], crashed[0])
	}
	if !crashed[1] || errs[1] != nil {
		t.Fatalf("second leader: crashed=%v restart err=%v, want a recovered crash", crashed[1], errs[1])
	}
	for i := 2; i < callers; i++ {
		if crashed[i] || !errors.Is(errs[i], errShardCrashed) {
			t.Fatalf("caller %d: crashed=%v err=%v, want errShardCrashed", i, crashed[i], errs[i])
		}
	}
	buf := make([]byte, 16)
	for i, k := range keys {
		found, err := tab.Lookup(k, buf)
		if err != nil || found != (i == 0) {
			t.Fatalf("key %d after crash: found=%v err=%v, want found=%v", k, found, err, i == 0)
		}
	}

	// The fault is spent and the leader role was released: every failed
	// write goes through on retry.
	for _, k := range keys[1:] {
		if err := tab.Put(k, row(k)); err != nil {
			t.Fatalf("retry put %d: %v", k, err)
		}
		if found, err := tab.Lookup(k, buf); err != nil || !found || !bytes.Equal(buf, row(k)) {
			t.Fatalf("key %d after retry: found=%v err=%v", k, found, err)
		}
	}
}
