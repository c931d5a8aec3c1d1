package repl

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"time"

	"nvmstore"
	"nvmstore/internal/engine"
	"nvmstore/internal/obs"
	"nvmstore/internal/wal"
	"nvmstore/internal/wire"
)

const (
	// ringMaxBytes bounds the per-shard retention ring of shipped records. A
	// replica resuming from an LSN the ring no longer covers bootstraps
	// from a snapshot instead.
	ringMaxBytes = 4 << 20
	// MaxBatchBytes bounds the image bytes the serving layer encodes into
	// one pushed BATCH or snapshot frame (always well under wire.MaxFrame).
	MaxBatchBytes = 256 << 10
)

// SourceOptions tunes the primary side of replication. The zero value
// gives sensible defaults.
type SourceOptions struct {
	// FeedQueue bounds the per-replica queue of pending items (default
	// 1024). A replica that falls this far behind is dropped — flow
	// control by disconnection, never by wedging the primary.
	FeedQueue int
	// SnapRows bounds the rows per snapshot chunk (default 1024).
	SnapRows int
	// SyncReplicas, when positive, makes WaitAcked block commits until
	// this many replicas acknowledged the shard's last shipped LSN —
	// semi-synchronous replication: an acked write then survives the
	// loss of the primary. With fewer live replicas attached the wait
	// degrades to the live count (and to no wait with none attached);
	// Stats.DegradedAcks counts every wait that ends short of it.
	SyncReplicas int
	// SyncTimeout bounds a semi-synchronous wait before degrading to
	// asynchronous for that batch (default 2s).
	SyncTimeout time.Duration
}

// Source is the primary side of replication for one sharded store: it
// taps every shard's WAL at the durability point, retains a bounded
// ring of shipped records, and fans batches out to subscribed feeds.
// All methods are safe for concurrent use.
type Source struct {
	store *nvmstore.ShardedStore
	opts  SourceOptions

	mu     sync.Mutex
	cond   *sync.Cond // broadcast on every ack and membership change
	shards []srcShard
	feeds  map[*Feed]bool
	nextID int

	epoch    uint64 // guarded by mu
	fencedBy uint64 // epoch that superseded us; 0 while active

	lag obs.Histogram // wall ns from ship to covering ack

	statSnapChunks int64
	statDropped    int64
	statDegraded   int64
}

// srcShard is the per-shard retention state, guarded by Source.mu.
type srcShard struct {
	ring      []*Batch
	ringBytes int
	// tapped reports whether the WAL tap is installed on this shard.
	tapped bool
	// shipped is the highest LSN delivered to the ring (including
	// records filtered from feeds); base is the LSN the ring's first
	// batch resumes from (its predecessor's last shipped LSN).
	shipped uint64
	// sent is the highest LSN of a record actually enqueued to feeds —
	// the target WaitAcked waits on (filtered page images never ack).
	sent uint64
}

// Batch is a run of durable records from one shard, as captured by the
// WAL tap: the unit of ring retention and feed fan-out.
type Batch struct {
	// Shard is the source shard index.
	Shard int
	// Prev is the last shipped LSN before this batch: the batch covers
	// (Prev, Last].
	Prev uint64
	// Last is the highest LSN the tap delivered in this batch,
	// including records filtered from Recs.
	Last uint64
	// Recs are the shippable records (page images and replication
	// metadata filtered out), ready for wire encoding.
	Recs []wire.ReplRec
	// Bytes is the encoded payload estimate used for ring accounting.
	Bytes int
	// wallNs is the ship timestamp for the replication-lag histogram.
	wallNs int64
}

// Item is one element of a feed's queue: exactly one of Batch and Snap
// is set. Snapshot chunks always precede the log batches that follow
// their SnapLSN.
type Item struct {
	// Batch is a run of shipped records.
	Batch *Batch
	// Snap is one bootstrap snapshot chunk.
	Snap *wire.ReplSnap
}

// Feed is one subscribed replica's stream state. Create with NewFeed,
// attach with Attach, consume Items, and Detach when the connection
// dies.
type Feed struct {
	id   int
	addr string
	ch   chan Item

	// All fields below are guarded by Source.mu. A feed goes live one
	// shard at a time, under that shard's lock, so no flush can slip
	// between its ring replay (or snapshot) and the live fan-out.
	liveShard []bool
	dead      bool
	acked     []uint64
	pending   [][]ackStamp // per shard, FIFO of enqueued batch stamps
	queued    int64        // bytes enqueued but not yet acked (lag bytes)
}

// ackStamp remembers when a batch was enqueued so the covering ack can
// be turned into a lag sample.
type ackStamp struct {
	last   uint64
	wallNs int64
	bytes  int64
}

// NewSource creates the primary-side replication state for store. The
// WAL taps are installed lazily when the first feed attaches and
// removed (with the ring cleared) when the last one detaches, so an
// unreplicated server pays nothing. The initial epoch is 1.
func NewSource(store *nvmstore.ShardedStore, opts SourceOptions) *Source {
	if opts.FeedQueue <= 0 {
		opts.FeedQueue = 1024
	}
	if opts.SnapRows <= 0 {
		opts.SnapRows = 1024
	}
	if opts.SyncTimeout <= 0 {
		opts.SyncTimeout = 2 * time.Second
	}
	s := &Source{
		store:  store,
		opts:   opts,
		shards: make([]srcShard, store.NumShards()),
		feeds:  make(map[*Feed]bool),
		epoch:  1,
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Epoch returns the current primary epoch.
func (s *Source) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// SetEpoch raises the epoch (promotion of this node). Lower values are
// ignored.
func (s *Source) SetEpoch(e uint64) {
	s.mu.Lock()
	if e > s.epoch {
		s.epoch = e
	}
	s.mu.Unlock()
}

// FencedBy returns the epoch that superseded this primary, or 0 while
// it is still authoritative.
func (s *Source) FencedBy() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fencedBy
}

// Fence marks this primary as superseded by epoch e (a PROMOTE frame
// for a newer epoch arrived). Every feed is dropped — the replicas
// resubscribe to the new primary — and the serving layer starts
// rejecting writes with a classified error. Returns false when e does
// not exceed the current epoch (the caller should reject the PROMOTE).
func (s *Source) Fence(e uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e <= s.epoch {
		return false
	}
	if s.fencedBy == 0 || e > s.fencedBy {
		s.fencedBy = e
	}
	for f := range s.feeds {
		s.killFeedLocked(f)
	}
	s.cond.Broadcast()
	return true
}

// NewFeed allocates a feed for one replica connection; addr labels it
// in stats and metrics.
func (s *Source) NewFeed(addr string) *Feed {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	n := s.store.NumShards()
	return &Feed{
		id:        s.nextID,
		addr:      addr,
		ch:        make(chan Item, s.opts.FeedQueue),
		liveShard: make([]bool, n),
		acked:     make([]uint64, n),
		pending:   make([][]ackStamp, n),
	}
}

// Items returns the feed's queue. The channel is closed when the feed
// is dropped (overflow, fencing, or Detach).
func (f *Feed) Items() <-chan Item { return f.ch }

// ID returns the feed's stable id, unique per Source.
func (f *Feed) ID() int { return f.id }

// Attach registers the feed and enqueues, per shard, either the ring
// tail past the subscriber's resume LSN or a full snapshot, after which
// live batches flow. The consistency argument: per shard, under the
// shard's lock, the WAL tail is flushed (shipping everything
// outstanding), the tap is installed, and the snapshot scan or ring
// replay happens before the lock is released — so the enqueued state is
// exactly the durable state at the tap point, with no gap and no
// overlap with the batches that follow.
//
// A subscriber whose Epoch is older than this primary's carries resume
// LSNs from a different primary's sequence; its From vector is ignored
// and every shard bootstraps from a snapshot (LSNs are never compared
// across epochs).
func (s *Source) Attach(f *Feed, sub wire.ReplSubscribe) error {
	n := s.store.NumShards()
	if len(sub.From) != n {
		return fmt.Errorf("repl: subscriber has %d shards, primary has %d", len(sub.From), n)
	}
	if arch := s.store.Shard(0).Architecture(); arch == nvmstore.NVMDirect.String() {
		return fmt.Errorf("repl: architecture %q cuts its log at every flush and cannot ship it", arch)
	}
	s.mu.Lock()
	if s.fencedBy != 0 {
		e := s.fencedBy
		s.mu.Unlock()
		return fmt.Errorf("repl: primary fenced by epoch %d", e)
	}
	if sub.Epoch > s.epoch {
		s.mu.Unlock()
		return fmt.Errorf("repl: subscriber at epoch %d is ahead of primary epoch %d", sub.Epoch, s.epoch)
	}
	// LSN sequences are per primary lineage: a subscriber from an older
	// epoch followed a different primary, so its From vector is positions
	// in a sequence this node never produced. Comparing (or worse,
	// resuming on) such LSNs would either reject the replica forever or
	// silently skip the divergent writes — force a snapshot bootstrap
	// instead; the wipe discards whatever the old lineage left behind.
	crossEpoch := sub.Epoch < s.epoch
	s.feeds[f] = true
	s.mu.Unlock()

	for i := range n {
		err := s.store.WithShard(i, func(st *nvmstore.Store) error {
			if _, err := st.FlushWAL(); err != nil {
				return err
			}
			log := engine.Of(st).Log()
			durable := uint64(log.DurableLSN())
			s.mu.Lock()
			sh := &s.shards[i]
			if !sh.tapped {
				sh.tapped = true
				sh.shipped = durable
				sh.sent = durable
				log.SetShip(func(recs []wal.Record) { s.ship(i, recs) })
				log.SetRetain(func() wal.LSN { return s.retain(i) })
			}
			from := sub.From[i]
			if !crossEpoch && from > durable {
				s.mu.Unlock()
				return fmt.Errorf("repl: shard %d: subscriber LSN %d ahead of durable %d", i, from, durable)
			}
			if !crossEpoch && sh.ringCovers(from) {
				for _, b := range sh.ring {
					if b.Last > from && len(b.Recs) > 0 {
						s.enqueueLocked(f, Item{Batch: b})
					}
				}
				f.acked[i] = from
				f.liveShard[i] = true
				s.mu.Unlock()
				return nil
			}
			s.mu.Unlock()
			// Snapshot bootstrap: scan every table (metadata excluded)
			// under the still-held shard lock. The chunks are consistent
			// with `durable`, and the tap queues everything after it.
			if err := s.snapshotLocked(f, st, i, durable); err != nil {
				return err
			}
			s.mu.Lock()
			f.acked[i] = durable
			f.liveShard[i] = true
			s.mu.Unlock()
			return nil
		})
		if err != nil {
			s.Detach(f)
			return err
		}
	}
	return nil
}

// ringCovers reports whether the retention ring can resume a subscriber
// whose last applied LSN is from.
func (sh *srcShard) ringCovers(from uint64) bool {
	if from == sh.shipped {
		return true // nothing missed; go live directly
	}
	if len(sh.ring) == 0 {
		return false
	}
	return sh.ring[0].Prev <= from && from <= sh.shipped
}

// snapshotLocked streams one shard's tables to f in chunks. Caller
// holds the shard lock (via WithShard) but NOT s.mu.
func (s *Source) snapshotLocked(f *Feed, st *nvmstore.Store, shard int, durable uint64) error {
	epoch := s.Epoch()
	chunk := &wire.ReplSnap{Shard: uint32(shard), Epoch: epoch, SnapLSN: durable}
	flush := func(final bool) error {
		chunk.Final = final
		s.mu.Lock()
		ok := s.enqueueLocked(f, Item{Snap: chunk})
		s.statSnapChunks++
		s.mu.Unlock()
		if !ok {
			return fmt.Errorf("repl: feed %d dropped during snapshot", f.id)
		}
		chunk = &wire.ReplSnap{Shard: uint32(shard), Epoch: epoch, SnapLSN: durable}
		return nil
	}
	for _, id := range engine.Of(st).TreeIDs() {
		if id == MetaTable {
			continue
		}
		tab := st.Table(id)
		size := tab.RowSize()
		var scanErr error
		err := tab.Scan(0, 1<<62, 0, size, func(key uint64, row []byte) bool {
			v := make([]byte, len(row))
			copy(v, row)
			chunk.Rows = append(chunk.Rows, wire.SnapRow{Table: id, Key: key, Value: v})
			if len(chunk.Rows) >= s.opts.SnapRows {
				scanErr = flush(false)
			}
			return scanErr == nil
		})
		if err == nil {
			err = scanErr
		}
		if err != nil {
			return err
		}
	}
	return flush(true)
}

// ship is the WAL tap callback for one shard: it runs on the flushing
// goroutine with the shard lock held, so it only converts, rings, and
// fans out — never blocks.
func (s *Source) ship(shard int, recs []wal.Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sh := &s.shards[shard]
	if !sh.tapped {
		return
	}
	b := &Batch{Shard: shard, Prev: sh.shipped}
	for _, r := range recs {
		lsn := uint64(r.LSN)
		if lsn > b.Last {
			b.Last = lsn
		}
		// Only logical changes and transaction marks travel: a page image
		// names this store's page ids (the replica's trees split on their
		// own), and the meta row is the replica's own.
		switch r.Kind {
		case wal.RecUpdate:
			if r.PID == MetaTable {
				continue
			}
		case wal.RecCommit, wal.RecAbort:
		default:
			continue
		}
		b.Recs = append(b.Recs, wire.ReplRec{
			Kind: r.Kind, LSN: lsn, Tx: uint64(r.Tx), PID: r.PID, Off: uint32(r.Off),
			After: r.After,
		})
		b.Bytes += len(r.After) + 64
	}
	if b.Last == 0 {
		return
	}
	sh.shipped = b.Last
	sh.ring = append(sh.ring, b)
	sh.ringBytes += b.Bytes
	for len(sh.ring) > 1 && sh.ringBytes > ringMaxBytes {
		sh.ringBytes -= sh.ring[0].Bytes
		sh.ring = sh.ring[1:]
	}
	if len(b.Recs) == 0 {
		return
	}
	sh.sent = b.Recs[len(b.Recs)-1].LSN
	b.wallNs = time.Now().UnixNano()
	for f := range s.feeds {
		if f.liveShard[shard] && !f.dead {
			s.enqueueLocked(f, Item{Batch: b})
		}
	}
}

// enqueueLocked queues one item on f, killing the feed on overflow.
// Caller holds s.mu. Returns false when the feed is (now) dead.
func (s *Source) enqueueLocked(f *Feed, it Item) bool {
	if f.dead {
		return false
	}
	select {
	case f.ch <- it:
		if it.Batch != nil {
			n := int64(it.Batch.Bytes)
			f.queued += n
			sh := it.Batch.Shard
			f.pending[sh] = append(f.pending[sh], ackStamp{last: it.Batch.Last, wallNs: it.Batch.wallNs, bytes: n})
		}
		return true
	default:
		s.statDropped++
		s.killFeedLocked(f)
		return false
	}
}

// killFeedLocked drops a feed: closes its channel (the consumer drains
// what was queued and stops) and removes it from fan-out. Idempotent;
// caller holds s.mu.
func (s *Source) killFeedLocked(f *Feed) {
	if f.dead {
		return
	}
	f.dead = true
	delete(s.feeds, f)
	close(f.ch)
	s.maybeUntapLocked()
	s.cond.Broadcast()
}

// Detach drops a feed whose connection is gone. Safe to call more than
// once.
func (s *Source) Detach(f *Feed) {
	s.mu.Lock()
	s.killFeedLocked(f)
	s.mu.Unlock()
}

// maybeUntapLocked schedules tap removal once no feeds remain. The taps
// must come off under each shard's lock, which must not nest inside
// s.mu, so the actual removal runs on a fresh goroutine.
func (s *Source) maybeUntapLocked() {
	if len(s.feeds) != 0 {
		return
	}
	go func() {
		for i := range s.store.NumShards() {
			s.store.WithShard(i, func(st *nvmstore.Store) error {
				s.mu.Lock()
				defer s.mu.Unlock()
				if len(s.feeds) != 0 || !s.shards[i].tapped {
					return nil // a feed raced back in; keep the tap
				}
				log := engine.Of(st).Log()
				log.SetShip(nil)
				log.SetRetain(nil)
				s.shards[i] = srcShard{}
				return nil
			})
		}
	}()
}

// retain is the per-shard truncation watermark: the lowest LSN the WAL
// must keep resident for replication — the first record NOT yet handed
// to the ship tap. Shipped records live on in this layer's own memory
// (the retention ring and the feeds' queues) independent of the WAL
// region, and a subscriber resuming from below the ring's coverage
// re-bootstraps from a snapshot, so replica ack progress never pins the
// log: the checkpoint path flushes (shipping everything durable) right
// before truncating, and truncation under replication proceeds exactly
// as without it. Runs under the shard lock (from wal.Truncate).
func (s *Source) retain(shard int) wal.LSN {
	s.mu.Lock()
	defer s.mu.Unlock()
	sh := &s.shards[shard]
	if !sh.tapped {
		return ^wal.LSN(0)
	}
	return wal.LSN(sh.shipped + 1)
}

// Ack records a replica's durable progress: semi-synchronous waiters
// wake, and the ship→ack delay of every batch the ack covers lands in
// the lag histogram.
func (s *Source) Ack(f *Feed, a wire.ReplAck) {
	now := time.Now().UnixNano()
	s.mu.Lock()
	defer s.mu.Unlock()
	if a.Epoch != s.epoch || int(a.Shard) >= len(f.acked) || f.dead {
		return
	}
	sh := int(a.Shard)
	if a.Applied > f.acked[sh] {
		f.acked[sh] = a.Applied
	}
	p := f.pending[sh]
	for len(p) > 0 && p[0].last <= a.Applied {
		s.lag.Record(now - p[0].wallNs)
		f.queued -= p[0].bytes
		p = p[1:]
	}
	f.pending[sh] = p
	s.cond.Broadcast()
}

// WaitAcked implements semi-synchronous commits: it blocks until
// SyncReplicas live feeds have acknowledged the shard's last shipped
// LSN, degrading to the number of live feeds (possibly zero) and to
// asynchronous after SyncTimeout. A return with fewer than SyncReplicas
// acknowledgements is counted in Stats.DegradedAcks. Call it after the
// batch's WAL flush, without holding the shard lock.
func (s *Source) WaitAcked(shard int) {
	if s.opts.SyncReplicas <= 0 {
		return
	}
	timer := time.AfterFunc(s.opts.SyncTimeout, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer timer.Stop()
	deadline := time.Now().Add(s.opts.SyncTimeout)
	s.mu.Lock()
	defer s.mu.Unlock()
	target := s.shards[shard].sent
	for {
		acked, live := 0, 0
		for f := range s.feeds {
			if f.dead || !f.liveShard[shard] {
				continue
			}
			live++
			if f.acked[shard] >= target {
				acked++
			}
		}
		if acked >= min(s.opts.SyncReplicas, live) || time.Now().After(deadline) {
			if acked < s.opts.SyncReplicas {
				s.statDegraded++
			}
			return
		}
		s.cond.Wait()
	}
}

// Live reports whether some attached feed is live on every shard. Until
// then WaitAcked has nobody to wait for and acknowledges writes
// unreplicated; the crash-schedule harness waits for it before its first
// write.
func (s *Source) Live() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for f := range s.feeds {
		if !f.dead && !slices.Contains(f.liveShard, false) {
			return true
		}
	}
	return false
}

// LagHistogram returns a snapshot of the ship→ack replication-lag
// histogram (wall nanoseconds).
func (s *Source) LagHistogram() obs.HistSnapshot { return s.lag.Snapshot() }

// FeedStat describes one attached replica in Stats.
type FeedStat struct {
	// ID is the feed id (stable per subscription).
	ID int `json:"id"`
	// Addr is the replica's remote address.
	Addr string `json:"addr"`
	// AckedLSN is the replica's acknowledged LSN per shard.
	AckedLSN []uint64 `json:"acked_lsn"`
	// LagBytes is the encoded bytes shipped to but not yet acknowledged
	// by this replica.
	LagBytes int64 `json:"lag_bytes"`
}

// Stats is the primary-side replication summary exposed through the
// server's STATS document.
type Stats struct {
	// Epoch is the current primary epoch.
	Epoch uint64 `json:"epoch"`
	// FencedBy is the epoch that superseded this primary (0: active).
	FencedBy uint64 `json:"fenced_by,omitempty"`
	// Replicas lists the attached feeds.
	Replicas []FeedStat `json:"replicas"`
	// SnapshotChunks counts bootstrap chunks streamed since start.
	SnapshotChunks int64 `json:"snapshot_chunks"`
	// DroppedFeeds counts feeds dropped by flow control.
	DroppedFeeds int64 `json:"dropped_feeds"`
	// DegradedAcks counts semi-synchronous waits that returned with fewer
	// than SyncReplicas acknowledgements: too few live feeds (none
	// included) or SyncTimeout expired. Writes acked this way may exist on
	// the primary alone.
	DegradedAcks int64 `json:"degraded_acks"`
	// LagP50Ns and LagP99Ns are quantiles of the ship→ack lag.
	LagP50Ns int64 `json:"lag_p50_ns"`
	// LagP99Ns is the 99th percentile ship→ack lag.
	LagP99Ns int64 `json:"lag_p99_ns"`
}

// Stats returns a point-in-time summary.
func (s *Source) Stats() Stats {
	lag := s.lag.Snapshot()
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Epoch:          s.epoch,
		FencedBy:       s.fencedBy,
		SnapshotChunks: s.statSnapChunks,
		DroppedFeeds:   s.statDropped,
		DegradedAcks:   s.statDegraded,
		LagP50Ns:       lag.Quantile(0.50),
		LagP99Ns:       lag.Quantile(0.99),
	}
	for f := range s.feeds {
		fs := FeedStat{ID: f.id, Addr: f.addr, AckedLSN: append([]uint64(nil), f.acked...), LagBytes: f.queued}
		st.Replicas = append(st.Replicas, fs)
	}
	// Ordered by id for deterministic output.
	slices.SortFunc(st.Replicas, func(a, b FeedStat) int { return cmp.Compare(a.ID, b.ID) })
	return st
}
