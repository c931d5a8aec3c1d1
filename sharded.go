package nvmstore

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"nvmstore/internal/core"
	"nvmstore/internal/fault"
	"nvmstore/internal/shard"
)

// ShardedStore is the scale-up path sketched in the paper's Appendix A.1:
// the key space is hash-partitioned across N independent single-threaded
// Stores, each with its own buffer manager, write-ahead log, and
// simulated NVM/SSD devices (shard-per-core). Shards share nothing; a
// transaction lives entirely inside one shard.
//
// Unlike a plain Store, a ShardedStore is safe for concurrent use: each
// shard carries its own lock, so goroutines operating on different shards
// proceed in parallel while operations on the same shard serialize —
// exactly the contention profile of one worker thread per shard.
//
// Time in a parallel run is hybrid, like the single-threaded benchmarks:
// wall (CPU) time is measured once by the caller, while each shard's
// virtual device clock advances independently. The simulated component of
// a parallel region is the slowest shard's clock (MaxSimulatedTime), not
// the sum: the other shards' device waits happen concurrently.
type ShardedStore struct {
	shards []*Store
	slots  []shardSlot
	// combiners queue concurrent Batch calls, one per shard.
	combiners []combiner
}

// maxCombine bounds how many queued Batch calls one leader runs under a
// single shard-lock hold and WAL flush.
const maxCombine = 32

// errShardCrashed fails the Batch callers whose group commit was cut
// short by a panic (an injected fault.Crash) unwinding through the group.
var errShardCrashed = errors.New("nvmstore: shard crashed during group commit; write not acknowledged")

// combiner is one shard's queue of concurrent Batch calls (see Batch).
// The queue is empty whenever busy is false.
type combiner struct {
	mu    sync.Mutex
	busy  bool
	queue []*batchCall
}

// batchCall is one queued Batch call. wake is closed once err is final (a
// leader ran fn and flushed, or failed the call) or once lead is set (the
// caller, still first in the queue, is the next leader).
type batchCall struct {
	fn   func(st *Store) error
	err  error
	lead bool
	wake chan struct{}
}

// lead runs group (the caller's own call first) under one hold of shard
// i's lock and one WAL flush, wakes its members, and passes
// the leader role to the next waiter or releases it. A panic unwinding
// through the group acknowledges nothing: the other members and the queue
// fail with errShardCrashed instead of waiting on a leader that is gone.
func (s *ShardedStore) lead(i int, group []*batchCall) error {
	c := &s.combiners[i]
	flushed := false
	defer func() {
		c.mu.Lock()
		var stranded []*batchCall
		if !flushed {
			stranded, c.queue = c.queue, nil
		}
		var next *batchCall
		if c.busy = len(c.queue) > 0; c.busy {
			next = c.queue[0]
			next.lead = true
		}
		c.mu.Unlock()
		// No append: it would move the solo caller's stack bookkeeping to
		// the heap.
		for _, calls := range [][]*batchCall{group[1:], stranded} {
			for _, b := range calls {
				if !flushed {
					b.err = errShardCrashed
				}
				close(b.wake)
			}
		}
		if next != nil {
			close(next.wake)
		}
	}()
	err := s.WithShard(i, func(st *Store) error {
		for _, b := range group {
			b.err = b.fn(st)
		}
		_, err := st.FlushWAL()
		return err
	})
	flushed = true
	if group[0].err != nil {
		return group[0].err
	}
	// A flush error comes from write-back pacing after the tail flush
	// landed, so every member's commits are durable; the leader reports it.
	return err
}

// shardSlot holds one shard's lock, padded to 128 bytes so that adjacent
// shards' locks do not share a cache line (false sharing).
type shardSlot struct {
	mu sync.Mutex
	_  [120]byte
}

// OpenSharded creates a sharded store of n independent single-threaded
// shards. The capacities in opts (DRAM, NVM, SSD, WAL) are totals for the
// whole store and are split evenly across shards; zero capacities stay
// zero (unlimited / unused), and each shard gets the default WAL size if
// none is set. OpenSharded(1, opts) behaves exactly like Open(opts).
func OpenSharded(n int, opts Options) (*ShardedStore, error) {
	if n < 1 {
		return nil, fmt.Errorf("nvmstore: sharded store needs at least 1 shard, got %d", n)
	}
	per := opts
	per.DRAMBytes = splitCapacity(opts.DRAMBytes, n)
	per.NVMBytes = splitCapacity(opts.NVMBytes, n)
	per.SSDBytes = splitCapacity(opts.SSDBytes, n)
	per.WALBytes = splitCapacity(opts.WALBytes, n)
	s := &ShardedStore{
		shards:    make([]*Store, n),
		slots:     make([]shardSlot, n),
		combiners: make([]combiner, n),
	}
	for i := range s.shards {
		st, err := Open(per)
		if err != nil {
			return nil, fmt.Errorf("nvmstore: open shard %d/%d: %w", i, n, err)
		}
		s.shards[i] = st
	}
	return s, nil
}

// splitCapacity divides a total capacity across n shards, preserving the
// "zero means unlimited/default" convention.
func splitCapacity(total int64, n int) int64 {
	if total == 0 || n <= 1 {
		return total
	}
	return total / int64(n)
}

// NumShards returns the shard count.
func (s *ShardedStore) NumShards() int { return len(s.shards) }

// ShardFor returns the shard owning key — the same hash partitioning the
// workload drivers route by.
func (s *ShardedStore) ShardFor(key uint64) int { return shard.Of(key, len(s.shards)) }

// Shard returns shard i's underlying single-threaded Store without
// locking: the caller must be that shard's only user (the shard-per-core
// worker model). For synchronized access use WithShard.
func (s *ShardedStore) Shard(i int) *Store { return s.shards[i] }

// WithShard runs fn with shard i's store while holding its lock, so it is
// safe to call from any goroutine.
func (s *ShardedStore) WithShard(i int, fn func(*Store) error) error {
	slot := &s.slots[i]
	slot.mu.Lock()
	defer slot.mu.Unlock()
	return fn(s.shards[i])
}

// PaceWriter returns at once. Checkpoint write-back is paced inside the
// shard lock, by the commit or tail flush that fills the log; nothing is
// left to wait for outside it. It remains only because
// benchmark/wired.go:383 (onStores) calls it.
func (s *ShardedStore) PaceWriter(i int) {}

// Batch is the store's one group-commit primitive: it takes shard i's
// lock, runs fn — which may commit any number of transactions with
// UpdateNoFlush — and makes them all durable with a single WAL flush
// before releasing the lock. That flush is also where checkpoint
// write-back is paced (Engine.pace): from the soft log-fill mark it runs
// one bounded round, from the hard mark rounds until the log is cut, on
// this goroutine and under this lock hold. fn's commits must not be
// acknowledged before Batch returns; once it has, they are durable
// whether or not it returned an error (fn's own, or else one from
// write-back pacing after the flush).
//
// Concurrent calls on one shard combine. A caller that finds the shard
// idle runs at once, as a group of one; callers that arrive meanwhile
// queue, and the finishing leader passes the role to the first of them,
// which runs up to maxCombine queued calls — each fn in arrival order —
// under one lock hold and one flush. Every caller returns only
// after the flush covering its commits: only the flush is shared. Server
// connections, COMMITs and table writes are plain Batch calls.
func (s *ShardedStore) Batch(i int, fn func(st *Store) error) error {
	c := &s.combiners[i]
	c.mu.Lock()
	if !c.busy {
		c.busy = true
		c.mu.Unlock()
		// The uncontended path keeps its bookkeeping on the stack.
		solo := batchCall{fn: fn}
		return s.lead(i, []*batchCall{&solo})
	}
	b := &batchCall{fn: fn, wake: make(chan struct{})}
	c.queue = append(c.queue, b)
	c.mu.Unlock()
	<-b.wake
	if !b.lead {
		return b.err
	}
	// Still at the head of the queue: take the group from there.
	c.mu.Lock()
	n := min(len(c.queue), maxCombine)
	group := c.queue[:n:n]
	c.queue = c.queue[n:]
	c.mu.Unlock()
	return s.lead(i, group)
}

// CreateTable creates the table on every shard; rows are routed to their
// owning shard by key hash.
func (s *ShardedStore) CreateTable(id uint64, rowSize int) (*ShardedTable, error) {
	return s.CreateTableLayout(id, rowSize, LayoutSorted)
}

// CreateTableLayout is CreateTable with an explicit leaf layout.
func (s *ShardedStore) CreateTableLayout(id uint64, rowSize int, layout LeafLayout) (*ShardedTable, error) {
	for i := range s.shards {
		err := s.WithShard(i, func(st *Store) error {
			_, err := st.CreateTableLayout(id, rowSize, layout)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("nvmstore: create table %d on shard %d: %w", id, i, err)
		}
	}
	return &ShardedTable{s: s, id: id, rowSize: rowSize}, nil
}

// Table returns the sharded table with the given id, or nil if shard 0
// does not know it (tables reappear automatically after restarts). The
// shard's table map is read under its lock: a restart of shard 0 replaces
// the map while holding it.
func (s *ShardedStore) Table(id uint64) *ShardedTable {
	s.slots[0].mu.Lock()
	t := s.shards[0].Table(id)
	s.slots[0].mu.Unlock()
	if t == nil {
		return nil
	}
	return &ShardedTable{s: s, id: id, rowSize: t.RowSize()}
}

// Close shuts every shard down in an orderly fashion under its lock: log
// tails are flushed (plus a final checkpoint per shard with
// Options.CheckpointOnClose), so every acknowledged transaction is
// durable. Close is idempotent; closing a store with a shard inside an
// open transaction fails, reporting every such shard.
func (s *ShardedStore) Close() error {
	var errs []error
	for i := range s.shards {
		if err := s.WithShard(i, (*Store).Close); err != nil {
			errs = append(errs, fmt.Errorf("nvmstore: close shard %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}

// Checkpoint checkpoints every shard.
func (s *ShardedStore) Checkpoint() error {
	for i := range s.shards {
		if err := s.WithShard(i, (*Store).Checkpoint); err != nil {
			return fmt.Errorf("nvmstore: checkpoint shard %d: %w", i, err)
		}
	}
	return nil
}

// CleanRestart restarts every shard in an orderly fashion.
func (s *ShardedStore) CleanRestart() error {
	for i := range s.shards {
		if err := s.WithShard(i, (*Store).CleanRestart); err != nil {
			return fmt.Errorf("nvmstore: clean restart shard %d: %w", i, err)
		}
	}
	return nil
}

// CrashRestartShard power-fails and recovers one shard: that shard's DRAM
// is lost and its log replayed, while the other shards keep running —
// per-shard recovery is the fault-isolation benefit of the shared-nothing
// layout.
func (s *ShardedStore) CrashRestartShard(i int) (RecoveryStats, error) {
	var stats RecoveryStats
	err := s.WithShard(i, func(st *Store) error {
		var err error
		stats, err = st.CrashRestart()
		return err
	})
	return stats, err
}

// CrashRestart power-fails and recovers every shard, summing the
// per-shard recovery statistics.
func (s *ShardedStore) CrashRestart() (RecoveryStats, error) {
	var total RecoveryStats
	for i := range s.shards {
		stats, err := s.CrashRestartShard(i)
		if err != nil {
			return total, fmt.Errorf("nvmstore: crash restart shard %d: %w", i, err)
		}
		total.Records += stats.Records
		total.Committed += stats.Committed
		total.Aborted += stats.Aborted
		total.Losers += stats.Losers
		total.Redone += stats.Redone
		total.Undone += stats.Undone
		total.TornTail = total.TornTail || stats.TornTail
	}
	return total, nil
}

// InjectFaults arms every shard's devices from one seeded fault plan,
// shard i using site salt i so the shards' fault streams are
// independent yet reproducible (see Store.InjectFaults). A nil plan
// disarms all shards. The returned slice holds shard i's injector
// bundle at index i.
func (s *ShardedStore) InjectFaults(plan *fault.Plan) []fault.Injectors {
	out := make([]fault.Injectors, len(s.shards))
	for i := range s.shards {
		_ = s.WithShard(i, func(st *Store) error {
			out[i] = st.e.ArmFaults(plan, uint64(i))
			return nil
		})
	}
	return out
}

// MaxSimulatedTime returns the slowest shard's accumulated simulated
// device time — the simulated component of the parallel hybrid-time
// model: shards run concurrently, so their device waits overlap and only
// the longest one extends a parallel run.
// Like every aggregation method below, it takes each shard's lock while
// reading that shard: engine state (clocks, counters) is plain data with
// no internal synchronization, so snapshotting it while a worker operates
// on the shard would be a data race.
func (s *ShardedStore) MaxSimulatedTime() time.Duration {
	var max time.Duration
	for i := range s.shards {
		s.slots[i].mu.Lock()
		d := s.shards[i].SimulatedTime()
		s.slots[i].mu.Unlock()
		if d > max {
			max = d
		}
	}
	return max
}

// TotalSimulatedTime returns the sum of all shards' simulated device
// time — the aggregate device work, used for IO accounting rather than
// elapsed-time math.
func (s *ShardedStore) TotalSimulatedTime() time.Duration {
	var total time.Duration
	for i := range s.shards {
		s.slots[i].mu.Lock()
		total += s.shards[i].SimulatedTime()
		s.slots[i].mu.Unlock()
	}
	return total
}

// Metrics returns the sum of all shards' counters, each shard snapshotted
// under its lock (see Manager.Stats for the contract). Latency histograms
// are merged across shards; residency gauges are summed.
func (s *ShardedStore) Metrics() Metrics {
	var total Metrics
	for i := range s.shards {
		s.slots[i].mu.Lock()
		m := s.shards[i].Metrics()
		s.slots[i].mu.Unlock()
		total.add(m)
	}
	total.OpsPerFlush = total.Log.OpsPerFlush()
	return total
}

// WearProfile computes the NVM wear distribution over all shards'
// devices together, as if they were one larger device.
func (s *ShardedStore) WearProfile() WearProfile {
	devices := make([][]uint32, len(s.shards))
	for i := range s.shards {
		s.slots[i].mu.Lock()
		devices[i] = s.shards[i].e.Manager().NVM().WearCounts()
		s.slots[i].mu.Unlock()
	}
	return wearProfile(devices...)
}

// ShardedTable routes fixed-size rows keyed by uint64 across the store's
// shards. Each operation runs as one transaction on the owning shard
// under that shard's lock, so the table is safe for concurrent use.
type ShardedTable struct {
	s       *ShardedStore
	id      uint64
	rowSize int
}

// RowSize returns the fixed row size in bytes.
func (t *ShardedTable) RowSize() int { return t.rowSize }

// shardTable resolves the table on shard st; resolved per operation so
// handles stay valid across shard restarts.
func (t *ShardedTable) shardTable(st *Store) (*Table, error) {
	tab := st.Table(t.id)
	if tab == nil {
		return nil, fmt.Errorf("nvmstore: table %d missing on shard", t.id)
	}
	return tab, nil
}

// read runs op against the table on shard i under the shard's lock.
// Reads are not transactions: they log nothing and leave the MVCC
// transaction stamp alone.
func (t *ShardedTable) read(i int, op func(tab *Table) error) error {
	return t.s.WithShard(i, func(st *Store) error {
		tab, err := t.shardTable(st)
		if err != nil {
			return err
		}
		return op(tab)
	})
}

// write runs op against the table on shard st as one transaction that
// commits without flushing: the body of a table write's Batch call. Each
// writer below builds that call's one closure itself, because Batch
// retains what it is given and a second closure would allocate.
func (t *ShardedTable) write(st *Store, op func(tab *Table) error) error {
	tab, err := t.shardTable(st)
	if err != nil {
		return err
	}
	return st.UpdateNoFlush(func() error { return op(tab) })
}

// Insert adds a row on the owning shard, as one transaction. Like every
// write below it is one Batch call: durable when it returns, its WAL
// flush shared with concurrent writers on the same shard.
func (t *ShardedTable) Insert(key uint64, row []byte) error {
	return t.s.Batch(t.s.ShardFor(key), func(st *Store) error {
		return t.write(st, func(tab *Table) error { return tab.Insert(key, row) })
	})
}

// Put inserts or replaces the row for key on the owning shard, as one
// transaction — the upsert the KV serving layer maps PUT to (see
// Table.Put). A row longer than RowSize fails.
func (t *ShardedTable) Put(key uint64, row []byte) error {
	return t.s.Batch(t.s.ShardFor(key), func(st *Store) error {
		return t.write(st, func(tab *Table) error { return tab.Put(key, row) })
	})
}

// Lookup copies the row for key into buf and reports whether it exists.
// Like every read it runs under the owning shard's lock and through that
// shard's buffer manager, so it is charged to the simulated devices and
// counted in the tier metrics exactly as a Table.Lookup is.
func (t *ShardedTable) Lookup(key uint64, buf []byte) (bool, error) {
	var found bool
	err := t.read(t.s.ShardFor(key), func(tab *Table) error {
		var err error
		found, err = tab.Lookup(key, buf)
		return err
	})
	return found, err
}

// LookupField copies n bytes at byte offset off of key's row into buf.
func (t *ShardedTable) LookupField(key uint64, off, n int, buf []byte) (bool, error) {
	var found bool
	err := t.read(t.s.ShardFor(key), func(tab *Table) error {
		var err error
		found, err = tab.LookupField(key, off, n, buf)
		return err
	})
	return found, err
}

// UpdateField overwrites part of key's row on the owning shard, as one
// transaction.
func (t *ShardedTable) UpdateField(key uint64, off int, val []byte) (bool, error) {
	var found bool
	err := t.s.Batch(t.s.ShardFor(key), func(st *Store) error {
		return t.write(st, func(tab *Table) (err error) {
			found, err = tab.UpdateField(key, off, val)
			return err
		})
	})
	return found, err
}

// Delete removes a row and reports whether it existed.
func (t *ShardedTable) Delete(key uint64) (bool, error) {
	var found bool
	err := t.s.Batch(t.s.ShardFor(key), func(st *Store) error {
		return t.write(st, func(tab *Table) (err error) {
			found, err = tab.Delete(key)
			return err
		})
	})
	return found, err
}

// Scan visits rows with key >= from in ascending global key order,
// passing fieldLen bytes at fieldOff of each row; it stops after limit
// rows (limit <= 0 means all) or when fn returns false. The field slice
// is only valid during the callback. It is ScanSnapshot over a snapshot
// opened for the call and closed after it: per shard the rows are a
// commit-LSN prefix, no shard lock is held while fn runs, and writers
// keep committing throughout. If a shard restarts under the scan, Scan
// opens a fresh snapshot and resumes after the last key it emitted with
// the limit that remains: keys stay strictly ascending and every row is
// a committed value, but rows emitted before and after the restart come
// from different snapshots.
func (t *ShardedTable) Scan(from uint64, limit int, fieldOff, fieldLen int, fn func(key uint64, field []byte) bool) error {
	for {
		sn, err := t.s.Snapshot()
		if err != nil {
			return err
		}
		next, emitted, err := t.scanAsOf(sn, from, limit, fieldOff, fieldLen, fn)
		sn.Close()
		if !errors.Is(err, ErrSnapshotInvalid) {
			return err
		}
		// An invalidated scan stopped short of its limit, so some remains.
		from = next
		if limit > 0 {
			limit -= emitted
		}
	}
}

// shardCursor is one shard's side of a scan. It buffers the shard's next
// rows for the cross-shard merge: keys[pos:] are still to be merged, and
// the field of keys[j] is the j-th run of fieldLen bytes in fields. Between
// lock holds it remembers where the walk of the shard's as-of leaf chain
// stands: the next leaf to visit and the first key still wanted from it.
// The buffers are reused from refill to refill and, through cursorPool,
// from scan to scan.
type shardCursor struct {
	keys    []uint64
	fields  []byte
	pos     int
	from    uint64
	next    core.PageID
	started bool
	done    bool // the shard holds no rows beyond the buffered ones
}

var cursorPool = sync.Pool{New: func() any { return new([]shardCursor) }}

// scanFillSlack is how many rows beyond its even share of what the merge
// still needs a cursor asks its shard for. Hash partitioning spreads a key
// range about evenly, so a few rows of slack make a second lock hold on a
// shard the exception.
const scanFillSlack = 4

// readLeafBatch is the number of leaves a scan visits per lock
// acquisition: enough to amortize the lock round-trip, small enough that
// writers wait for at most a few leaf reads.
const readLeafBatch = 16

// scanAsOf is the one scan, a streaming k-way merge over the shards'
// leaves as of sn: it emits the smallest buffered key to fn until limit
// rows are out (limit <= 0 means all), fn returns false or every shard is
// done, and refills only a cursor it has drained — with that cursor's
// share of the rows still missing plus scanFillSlack, or with whatever
// readLeafBatch leaves hold when there is no limit. It also returns the
// key a scan would resume from and the number of rows emitted, which
// Scan needs when the error is ErrSnapshotInvalid.
func (t *ShardedTable) scanAsOf(sn *Snapshot, from uint64, limit int, fieldOff, fieldLen int, fn func(key uint64, field []byte) bool) (next uint64, emitted int, err error) {
	n := len(t.s.shards)
	pooled := cursorPool.Get().(*[]shardCursor)
	defer cursorPool.Put(pooled)
	for len(*pooled) < n {
		*pooled = append(*pooled, shardCursor{})
	}
	curs := (*pooled)[:n]
	for i := range curs {
		c := &curs[i]
		*c = shardCursor{keys: c.keys[:0], fields: c.fields[:0], from: from}
	}
	next = from
	for limit <= 0 || emitted < limit {
		best := -1
		for i := range curs {
			c := &curs[i]
			for c.pos == len(c.keys) && !c.done {
				want := 0
				if limit > 0 {
					want = (limit-emitted+n-1)/n + scanFillSlack
				}
				if err := t.refill(sn, i, c, fieldOff, fieldLen, want); err != nil {
					return next, emitted, err
				}
			}
			if c.pos < len(c.keys) && (best < 0 || c.keys[c.pos] < curs[best].keys[curs[best].pos]) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		c := &curs[best]
		j := c.pos
		c.pos++
		emitted++
		next = c.keys[j] + 1
		// next wraps to 0 after the largest key, which no row can follow.
		if !fn(c.keys[j], c.fields[j*fieldLen:(j+1)*fieldLen]) || next == 0 {
			break
		}
	}
	return next, emitted, nil
}

// refill replaces c's drained buffer with shard i's next rows as of sn, in
// one hold of the shard's lock: it continues the walk of the table's leaf
// sibling chain, reads at most readLeafBatch leaves in place and copies at
// most budget entries (budget <= 0: whatever those leaves hold), so the
// hold is bounded by what the scan asked for, not by the leaves it passes;
// c is marked done at the end of the chain. It fails with
// ErrSnapshotInvalid if the shard restarted since sn was taken. The walk is
// sound because splits and shifts keep the left sibling in place (so a
// leaf's as-of content names its as-of successor), leaves are never merged
// or freed while the tree lives, and as-of content does not change between
// holds.
func (t *ShardedTable) refill(sn *Snapshot, i int, c *shardCursor, fieldOff, fieldLen, budget int) error {
	slot := &t.s.slots[i]
	slot.mu.Lock()
	defer slot.mu.Unlock()
	st, ss := t.s.shards[i], &sn.snaps[i]
	if st.e.Versions().Epoch() != ss.epoch {
		return ErrSnapshotInvalid
	}
	tab, err := t.shardTable(st)
	if err != nil {
		return err
	}
	tree := tab.t
	routed := false
	if !c.started {
		// Start at the leaf currently routing from: if it existed at the
		// snapshot stamp it covered from then too (leaf ranges only
		// narrow, but for a rightmost leaf that widened since). A leaf
		// born after the stamp has no as-of content, and one that widened
		// may not have covered from; fall back to the stable chain head
		// and skip forward from there.
		pid, err := tree.LeafFor(c.from)
		if err != nil {
			return err
		}
		if st.e.Versions().WidenedAfter(pid, ss.stamp) {
			if pid, err = tree.HeadLeaf(); err != nil {
				return err
			}
		}
		c.next, c.started, routed = pid, true, true
	}
	c.keys, c.fields, c.pos = c.keys[:0], c.fields[:0], 0
	leafCap := tree.LeafCapacity()
	room := readLeafBatch * leafCap // the most rows one hold can copy
	if budget > 0 {
		room = min(budget, room)
	}
	full, last := false, false
	emit := func(key uint64, field []byte) bool {
		if len(c.keys) == cap(c.keys) || len(c.fields)+len(field) > cap(c.fields) {
			// Grow by one leaf's capacity, never past room: growing by
			// append would overshoot what the hold can use.
			rows := min(len(c.keys)+leafCap, room)
			c.keys = append(make([]uint64, 0, rows), c.keys...)
			c.fields = append(make([]byte, 0, rows*fieldLen), c.fields...)
		}
		c.keys = append(c.keys, key)
		c.fields = append(c.fields, field...)
		c.from = key + 1
		last = key == math.MaxUint64 // c.from wrapped; no key can follow
		full = len(c.keys) == budget
		return !full && !last
	}
	for leaves := 0; ; leaves++ {
		if c.next == core.InvalidPageID {
			c.done = true
			return nil
		}
		if full || leaves == readLeafBatch {
			return nil
		}
		next, existed, err := tree.VisitLeafAsOf(c.next, ss.stamp, c.from, fieldOff, fieldLen, emit)
		switch {
		case err != nil:
			return err
		case last:
			c.next = core.InvalidPageID
		case full:
			// Budget spent inside this leaf: the next hold resumes in it.
		case existed:
			c.next = next
		case routed:
			if c.next, err = tree.HeadLeaf(); err != nil {
				return err
			}
		default:
			// A mid-chain successor with no as-of content was born after
			// the snapshot: the as-of chain ends here.
			c.next = core.InvalidPageID
		}
		routed = false
	}
}

// ErrSnapshotInvalid reports that a read snapshot was invalidated by a
// store restart (crash or clean restart) between its creation and use.
// The caller should open a fresh snapshot.
var ErrSnapshotInvalid = errors.New("nvmstore: snapshot invalidated by restart")

// Snapshot is a stable read point over every shard of a ShardedStore:
// scans through it see, per shard, exactly the transactions committed
// before it was taken, while writers on all shards keep committing —
// their first modification of each page saves a copy-on-write image the
// snapshot reads instead. Close it promptly so the shards can reclaim
// those images.
type Snapshot struct {
	s     *ShardedStore
	snaps []shardSnap
	once  sync.Once
}

// shardSnap is one shard's read point: its registration in the shard's
// version store (id 0: not taken), the transaction stamp it reads as of,
// the durable LSN at creation and the restart epoch it is valid in.
type shardSnap struct{ id, stamp, lsn, epoch uint64 }

// Snapshot opens a stable read point across all shards. Each shard's
// point is taken under its lock at the shard's durable frontier (the WAL
// is flushed first), so per shard the snapshot is a commit-LSN prefix;
// shards are snapshotted one after another, so the points of different
// shards are close but not a single global instant — the same contract a
// scan over hash-partitioned shards always had.
func (s *ShardedStore) Snapshot() (*Snapshot, error) {
	sn := &Snapshot{s: s, snaps: make([]shardSnap, len(s.shards))}
	for i := range s.shards {
		err := s.WithShard(i, func(st *Store) error {
			if st.e.InTx() {
				return fmt.Errorf("nvmstore: snapshot inside a transaction")
			}
			if _, err := st.e.FlushWAL(); err != nil {
				return err
			}
			v, ss := st.e.Versions(), &sn.snaps[i]
			ss.id, ss.stamp = v.BeginSnapshot()
			ss.lsn, ss.epoch = uint64(st.e.Log().DurableLSN()), v.Epoch()
			return nil
		})
		if err != nil {
			sn.Close()
			return nil, fmt.Errorf("nvmstore: snapshot shard %d: %w", i, err)
		}
	}
	return sn, nil
}

// Close releases the snapshot on every shard, reclaiming on the spot the
// old page versions no other open snapshot can still read. Closing twice
// is harmless.
func (sn *Snapshot) Close() {
	sn.once.Do(func() {
		for i, ss := range sn.snaps {
			if ss.id != 0 {
				_ = sn.s.WithShard(i, func(st *Store) error {
					st.e.Versions().EndSnapshot(ss.id)
					return nil
				})
			}
		}
	})
}

// LSNs returns the per-shard commit-LSN watermarks of the snapshot:
// everything committed at or below LSNs()[i] on shard i is visible.
func (sn *Snapshot) LSNs() []uint64 {
	lsns := make([]uint64, len(sn.snaps))
	for i, ss := range sn.snaps {
		lsns[i] = ss.lsn
	}
	return lsns
}

// ScanSnapshot is Scan against a snapshot the caller holds, so that
// several scans see one state: it visits the rows visible at sn, in
// ascending global key order from from, stopping after limit rows
// (limit <= 0 means all) or when fn returns false. The field slice is
// only valid during the callback. It holds a shard's lock only while it
// copies the next rows the merge asked for out of the as-of leaves — at
// most readLeafBatch leaves read in place per hold — and runs fn outside
// it, so writers keep committing while the scan runs; what they commit
// after the snapshot is simply invisible to it. Unlike Scan
// it does not resume: it returns ErrSnapshotInvalid if any scanned shard
// restarted since the snapshot was taken.
func (t *ShardedTable) ScanSnapshot(sn *Snapshot, from uint64, limit int, fieldOff, fieldLen int, fn func(key uint64, field []byte) bool) error {
	if sn.s != t.s {
		return fmt.Errorf("nvmstore: snapshot belongs to a different store")
	}
	_, _, err := t.scanAsOf(sn, from, limit, fieldOff, fieldLen, fn)
	return err
}

// Count returns the total number of rows across all shards.
func (t *ShardedTable) Count() (int, error) {
	total := 0
	for i := range t.s.shards {
		err := t.read(i, func(tab *Table) error {
			n, err := tab.Count()
			total += n
			return err
		})
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}
