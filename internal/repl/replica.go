package repl

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"nvmstore"
	"nvmstore/internal/engine"
	"nvmstore/internal/fault"
	"nvmstore/internal/wal"
	"nvmstore/internal/wire"
)

// replicaDialTimeout bounds each connection attempt to the primary.
const replicaDialTimeout = 2 * time.Second

// ReplicaOptions configures the replica side of replication.
type ReplicaOptions struct {
	// Primary is the primary server's address (host:port). Required.
	Primary string
	// Backoff is the pause between reconnect attempts (default 100ms).
	Backoff time.Duration
	// Logf, when set, receives connection-lifecycle diagnostics.
	Logf func(format string, args ...any)
}

// Replica streams the primary's WAL into its own store. It dials
// Primary, subscribes with its durable per-shard applied LSNs, and
// applies pushed batches transactionally: records are buffered per
// primary transaction and applied atomically at the commit mark,
// together with the MetaTable position row — so a crash at any point
// recovers from the replica's own WAL and resumes shipping exactly
// once. The connection is retried forever (with backoff) until Close
// or Promote.
//
// All methods are safe for concurrent use.
type Replica struct {
	store *nvmstore.ShardedStore
	opts  ReplicaOptions

	mu        sync.Mutex
	cond      *sync.Cond // broadcast when applied/epoch/promoted change
	applied   []uint64   // durable applied LSN per shard
	epoch     uint64
	promoted  bool
	closed    bool
	connected bool
	conn      net.Conn // current session's connection, nil between sessions

	wg sync.WaitGroup // the run loop

	statReconnects int64 // atomic
	statCrashes    int64 // atomic
	statBatches    int64 // atomic
	statSnapRows   int64 // atomic
}

// NewReplica loads the store's durable replication position and starts
// the connection loop. The store must be laid out like the primary's
// (same shard count; tables are created on demand from snapshots).
func NewReplica(store *nvmstore.ShardedStore, opts ReplicaOptions) (*Replica, error) {
	if opts.Primary == "" {
		return nil, fmt.Errorf("repl: replica needs a primary address")
	}
	if opts.Backoff <= 0 {
		opts.Backoff = 100 * time.Millisecond
	}
	n := store.NumShards()
	r := &Replica{
		store:   store,
		opts:    opts,
		applied: make([]uint64, n),
		epoch:   1,
	}
	r.cond = sync.NewCond(&r.mu)
	for i := range n {
		err := store.WithShard(i, func(st *nvmstore.Store) error {
			applied, epoch := readMeta(st)
			r.applied[i] = applied
			if epoch > r.epoch {
				r.epoch = epoch
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	r.wg.Add(1)
	go r.run()
	return r, nil
}

// logf forwards to the configured logger, if any.
func (r *Replica) logf(format string, args ...any) {
	if r.opts.Logf != nil {
		r.opts.Logf(format, args...)
	}
}

// run dials and re-dials the primary until Close or Promote.
func (r *Replica) run() {
	defer r.wg.Done()
	for {
		r.mu.Lock()
		stop := r.closed || r.promoted
		r.mu.Unlock()
		if stop {
			return
		}
		if err := r.session(); err != nil {
			r.logf("repl: session with %s: %v", r.opts.Primary, err)
		}
		r.mu.Lock()
		stop = r.closed || r.promoted
		r.mu.Unlock()
		if stop {
			return
		}
		atomic.AddInt64(&r.statReconnects, 1)
		time.Sleep(r.opts.Backoff)
	}
}

// sessItem is one frame routed to a shard's apply worker.
type sessItem struct {
	batch *wire.ReplBatch
	snap  *wire.ReplSnap
}

// session runs one connection: subscribe, then route pushed frames to
// per-shard apply workers until the connection dies.
func (r *Replica) session() error {
	conn, err := net.DialTimeout("tcp", r.opts.Primary, replicaDialTimeout)
	if err != nil {
		return err
	}
	defer conn.Close()

	r.mu.Lock()
	if r.closed || r.promoted {
		r.mu.Unlock()
		return nil
	}
	r.conn = conn
	r.connected = true
	from := append([]uint64(nil), r.applied...)
	epoch := r.epoch
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		r.conn = nil
		r.connected = false
		r.mu.Unlock()
	}()

	sub := wire.AppendReplSubscribe(nil, wire.ReplSubscribe{Epoch: epoch, From: from})
	if _, err := conn.Write(wire.AppendRequest(nil, wire.Request{Op: wire.OpReplSubscribe, ID: 1, Value: sub})); err != nil {
		return err
	}

	// One apply worker per shard keeps shards independent (a slow or
	// crashing shard does not stall the others) while preserving per-
	// shard frame order. A worker failure closes the connection; the
	// worker then drains its channel without applying.
	n := r.store.NumShards()
	var errMu sync.Mutex
	var workerErr error
	fail := func(err error) {
		if err == nil {
			return
		}
		errMu.Lock()
		if workerErr == nil {
			workerErr = err
		}
		errMu.Unlock()
		conn.Close()
	}
	var wmu sync.Mutex // serializes ACK writes on conn
	workers := make([]chan sessItem, n)
	var wwg sync.WaitGroup
	for i := 0; i < n; i++ {
		workers[i] = make(chan sessItem, 64)
		wwg.Add(1)
		go r.applyWorker(i, conn, &wmu, workers[i], &wwg, fail)
	}

	var readErr error
	for readErr == nil {
		// A fresh buffer per frame: decoded records alias it and are
		// handed off to a worker, which may hold them across items
		// while a transaction is open.
		payload, _, err := wire.ReadFrame(conn, nil)
		if err != nil {
			readErr = err
			break
		}
		resp, err := wire.DecodeResponse(payload)
		if err != nil {
			readErr = err
			break
		}
		switch resp.Code {
		case wire.RespOK:
			// Subscription accepted.
		case wire.RespErr:
			readErr = fmt.Errorf("repl: primary rejected feed: %s", resp.Err)
		case wire.RespReplBatch:
			b, err := wire.DecodeReplBatch(resp.Value)
			if err != nil {
				readErr = err
			} else if int(b.Shard) >= n {
				readErr = fmt.Errorf("repl: batch for shard %d of %d", b.Shard, n)
			} else {
				workers[b.Shard] <- sessItem{batch: &b}
			}
		case wire.RespReplSnap:
			sn, err := wire.DecodeReplSnap(resp.Value)
			if err != nil {
				readErr = err
			} else if int(sn.Shard) >= n {
				readErr = fmt.Errorf("repl: snapshot for shard %d of %d", sn.Shard, n)
			} else {
				workers[sn.Shard] <- sessItem{snap: &sn}
			}
		default:
			readErr = fmt.Errorf("repl: unexpected %s frame on feed", wire.OpName(resp.Code))
		}
	}
	for i := range workers {
		close(workers[i])
	}
	wwg.Wait()
	errMu.Lock()
	we := workerErr
	errMu.Unlock()
	if we != nil {
		return we
	}
	return readErr
}

// applyWorker applies one shard's stream of batches and snapshot
// chunks. On any error it fails the session and drains the rest of the
// channel without applying.
func (r *Replica) applyWorker(shard int, conn net.Conn, wmu *sync.Mutex, ch <-chan sessItem, wwg *sync.WaitGroup, fail func(error)) {
	defer wwg.Done()
	st := workerState{}
	failed := false
	for it := range ch {
		if failed {
			continue
		}
		if err := r.applyItem(shard, it, &st, conn, wmu); err != nil {
			failed = true
			fail(err)
		}
	}
}

// workerState is one shard's cross-item apply state for a session: the
// records of the primary transaction currently open (a WAL flush — and
// so a shipped batch — can land mid-transaction) and the snapshot
// bootstrap progress.
type workerState struct {
	pending   []wire.ReplRec
	pendingTx uint64
	snapWiped bool
}

// applyItem applies one batch or snapshot chunk. A simulated crash
// (fault.Crash panic from the replica store's own injectors) is
// recovered here: the shard power-fails and restarts from its WAL, the
// durable position is reloaded from the meta row, and the session is
// failed so the reconnect resumes from exactly that position.
func (r *Replica) applyItem(shard int, it sessItem, ws *workerState, conn net.Conn, wmu *sync.Mutex) (err error) {
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		c, ok := fault.AsCrash(p)
		if !ok {
			panic(p)
		}
		atomic.AddInt64(&r.statCrashes, 1)
		if _, rerr := r.store.CrashRestartShard(shard); rerr != nil {
			err = fmt.Errorf("repl: shard %d: restart after crash: %w", shard, rerr)
			return
		}
		var applied, epoch uint64
		rerr := r.store.WithShard(shard, func(st *nvmstore.Store) error {
			applied, epoch = readMeta(st)
			return nil
		})
		if rerr != nil {
			err = rerr
			return
		}
		r.mu.Lock()
		r.applied[shard] = applied
		if epoch > r.epoch {
			r.epoch = epoch
		}
		r.cond.Broadcast()
		r.mu.Unlock()
		err = fmt.Errorf("repl: shard %d: crash during apply (%v); recovered to LSN %d", shard, c, applied)
	}()
	switch {
	case it.batch != nil:
		return r.applyBatch(shard, it.batch, ws, conn, wmu)
	case it.snap != nil:
		return r.applySnap(shard, it.snap, ws, conn, wmu)
	}
	return nil
}

// adoptEpoch raises the replica's epoch to the primary's and returns
// the resulting epoch. A frame from an older epoch is stale: the
// session is on a superseded primary and must be dropped.
func (r *Replica) adoptEpoch(e uint64) (uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e > r.epoch {
		r.epoch = e
	} else if e < r.epoch {
		return 0, fmt.Errorf("repl: frame from stale epoch %d (replica at %d)", e, r.epoch)
	}
	return r.epoch, nil
}

// applyBatch replays one shipped batch in one ShardedStore.Batch call:
// update records accumulate in the open transaction's buffer, and each
// primary transaction is applied as one local transaction — atomically
// with the meta row — when its commit mark arrives. Batch's one WAL flush
// makes every transaction the item applied durable, and the ACK reports
// the new position.
func (r *Replica) applyBatch(shard int, b *wire.ReplBatch, ws *workerState, conn net.Conn, wmu *sync.Mutex) error {
	epoch, err := r.adoptEpoch(b.Epoch)
	if err != nil {
		return err
	}
	r.mu.Lock()
	durable := r.applied[shard]
	r.mu.Unlock()
	var lastApplied uint64
	err = r.store.Batch(shard, func(st *nvmstore.Store) error {
		for i := range b.Recs {
			rec := &b.Recs[i]
			if rec.LSN <= durable {
				continue // resume overlap: already applied and durable
			}
			switch rec.Kind {
			case wal.RecUpdate:
				if rec.PID == MetaTable {
					continue
				}
				if ws.pendingTx != 0 && rec.Tx != ws.pendingTx {
					// Shards are single-threaded on the primary, so
					// transactions never interleave; a new tx id without a
					// mark means the stream is corrupt.
					return fmt.Errorf("repl: shard %d: tx %d interleaves open tx %d", shard, rec.Tx, ws.pendingTx)
				}
				ws.pendingTx = rec.Tx
				ws.pending = append(ws.pending, *rec)
			case wal.RecAbort:
				if rec.Tx == ws.pendingTx {
					ws.pending, ws.pendingTx = nil, 0
				}
			case wal.RecCommit:
				recs := ws.pending
				ws.pending, ws.pendingTx = nil, 0
				if err := applyTx(st, recs, rec.LSN, epoch); err != nil {
					return err
				}
				lastApplied = rec.LSN
			default:
				return fmt.Errorf("repl: shard %d: unknown record kind %d", shard, rec.Kind)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	atomic.AddInt64(&r.statBatches, 1)
	if lastApplied == 0 {
		return nil // no commit in this item; nothing new to ack
	}
	return r.finishApply(shard, lastApplied, epoch, conn, wmu)
}

// applyTx applies one primary transaction as one local transaction that
// commits without flushing, with the position row updated in the same
// commit — the apply is exactly-once across crashes because the data and
// the position are equally durable.
func applyTx(st *nvmstore.Store, recs []wire.ReplRec, commitLSN, epoch uint64) error {
	e := engine.Of(st)
	return st.UpdateNoFlush(func() error {
		for i := range recs {
			rec := &recs[i]
			err := e.ApplyLogical(wal.Record{
				Kind: rec.Kind,
				LSN:  wal.LSN(rec.LSN),
				Tx:   wal.TxID(rec.Tx),
				PID:  rec.PID,
				Off:  int(rec.Off),
				// The image aliases the frame buffer; ApplyLogical
				// copies what it keeps.
				After: rec.After,
			})
			if err != nil {
				return err
			}
		}
		return writeMeta(st, commitLSN, epoch)
	})
}

// finishApply publishes an applied LSN the item's Batch flush made
// durable and sends the ACK. ACK after flush is what lets the primary's
// retention ring eviction and semi-synchronous waits trust it.
func (r *Replica) finishApply(shard int, applied, epoch uint64, conn net.Conn, wmu *sync.Mutex) error {
	r.mu.Lock()
	if applied > r.applied[shard] {
		r.applied[shard] = applied
	}
	r.cond.Broadcast()
	r.mu.Unlock()
	ack := wire.AppendReplAck(nil, wire.ReplAck{Shard: uint32(shard), Epoch: epoch, Applied: applied})
	frame := wire.AppendRequest(nil, wire.Request{Op: wire.OpReplAck, ID: 0, Value: ack})
	wmu.Lock()
	_, err := conn.Write(frame)
	wmu.Unlock()
	return err
}

// applySnap applies one bootstrap snapshot chunk. The first chunk
// resets the shard: the position row is zeroed durably first, so a
// crash mid-snapshot resubscribes from zero and restarts the bootstrap
// instead of resuming the log onto a half-loaded store; then every
// replicated table is emptied. Rows stream in, and the Final chunk
// commits the position at SnapLSN.
func (r *Replica) applySnap(shard int, sn *wire.ReplSnap, ws *workerState, conn net.Conn, wmu *sync.Mutex) error {
	epoch, err := r.adoptEpoch(sn.Epoch)
	if err != nil {
		return err
	}
	if !ws.snapWiped {
		if err := r.wipeShard(shard, epoch); err != nil {
			return err
		}
		ws.snapWiped = true
		ws.pending, ws.pendingTx = nil, 0
		r.mu.Lock()
		r.applied[shard] = 0
		r.mu.Unlock()
	}
	// One Batch per chunk: its flush also keeps a large bootstrap's log
	// bounded, as it runs the engine's checkpoint pacing outside the
	// transaction.
	err = r.store.Batch(shard, func(st *nvmstore.Store) error {
		return st.UpdateNoFlush(func() error {
			for i := range sn.Rows {
				row := &sn.Rows[i]
				tab := st.Table(row.Table)
				if tab == nil {
					var cerr error
					tab, cerr = st.CreateTable(row.Table, len(row.Value))
					if cerr != nil {
						return cerr
					}
				}
				if err := tab.Insert(row.Key, row.Value); err != nil {
					return err
				}
			}
			if sn.Final {
				return writeMeta(st, sn.SnapLSN, epoch)
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	atomic.AddInt64(&r.statSnapRows, int64(len(sn.Rows)))
	if !sn.Final {
		return nil
	}
	ws.snapWiped = false
	return r.finishApply(shard, sn.SnapLSN, epoch, conn, wmu)
}

// wipeShard durably zeroes the shard's position row and empties every
// table except MetaTable, in bounded transactions. It is one of the two
// flush sites in this package outside Batch: the wipe stays in one hold
// of the shard lock, and it flushes after every bounded transaction.
func (r *Replica) wipeShard(shard int, epoch uint64) error {
	return r.store.WithShard(shard, func(st *nvmstore.Store) error {
		if err := st.UpdateNoFlush(func() error { return writeMeta(st, 0, epoch) }); err != nil {
			return err
		}
		if _, err := st.FlushWAL(); err != nil {
			return err
		}
		for _, id := range engine.Of(st).TreeIDs() {
			if id == MetaTable {
				continue
			}
			tab := st.Table(id)
			var keys []uint64
			err := tab.Scan(0, 1<<62, 0, 0, func(key uint64, _ []byte) bool {
				keys = append(keys, key)
				return true
			})
			if err != nil {
				return err
			}
			for len(keys) > 0 {
				chunk := keys
				if len(chunk) > 512 {
					chunk = chunk[:512]
				}
				keys = keys[len(chunk):]
				err := st.UpdateNoFlush(func() error {
					for _, k := range chunk {
						if _, err := tab.Delete(k); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					return err
				}
				// Keep the WAL bounded while emptying a large shard —
				// the flush runs the automatic checkpoint when needed.
				if _, err := st.FlushWAL(); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// Applied returns the per-shard durable applied LSN vector.
func (r *Replica) Applied() []uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]uint64(nil), r.applied...)
}

// Epoch returns the replica's current epoch.
func (r *Replica) Epoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// Promoted reports whether Promote has been called.
func (r *Replica) Promoted() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.promoted
}

// Connected reports whether a feed session is currently established.
func (r *Replica) Connected() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.connected
}

// WaitLSN blocks until the replica's applied vector covers lsns — the
// staleness-bounded read barrier. Shards with a zero entry are not
// waited on. It returns immediately once the replica is promoted (it
// is then the authority), and an error on timeout or Close.
func (r *Replica) WaitLSN(lsns []uint64, timeout time.Duration) error {
	r.mu.Lock()
	if len(lsns) > len(r.applied) {
		n := len(r.applied)
		r.mu.Unlock()
		return fmt.Errorf("repl: wait vector has %d shards, store has %d", len(lsns), n)
	}
	timer := time.AfterFunc(timeout, func() {
		r.mu.Lock()
		r.cond.Broadcast()
		r.mu.Unlock()
	})
	defer timer.Stop()
	deadline := time.Now().Add(timeout)
	defer r.mu.Unlock()
	for {
		covered := true
		for i, want := range lsns {
			if r.applied[i] < want {
				covered = false
				break
			}
		}
		if covered || r.promoted {
			return nil
		}
		if r.closed {
			return fmt.Errorf("repl: replica closed")
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("repl: WaitLSN timeout after %v", timeout)
		}
		r.cond.Wait()
	}
}

// Promote makes this replica the primary at the given epoch: the feed
// stops, every shard's WAL is flushed, and the epoch is persisted in
// the position rows. The caller (the serving layer) then starts
// accepting writes at the new epoch and fences the old primary. The
// returned vector is the promoted store's applied LSNs — the acked
// prefix it serves from. epoch must exceed the replica's current
// epoch.
func (r *Replica) Promote(epoch uint64) ([]uint64, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, fmt.Errorf("repl: replica closed")
	}
	if r.promoted {
		if epoch != r.epoch {
			cur := r.epoch
			r.mu.Unlock()
			return nil, fmt.Errorf("repl: already promoted at epoch %d", cur)
		}
		applied := append([]uint64(nil), r.applied...)
		r.mu.Unlock()
		return applied, nil
	}
	if epoch <= r.epoch {
		cur := r.epoch
		r.mu.Unlock()
		return nil, fmt.Errorf("repl: promote epoch %d does not exceed current epoch %d", epoch, cur)
	}
	r.promoted = true
	r.epoch = epoch
	conn := r.conn
	r.cond.Broadcast()
	r.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	r.wg.Wait() // session drained; apply workers done

	applied := r.Applied()
	for i := range applied {
		err := r.store.Batch(i, func(st *nvmstore.Store) error {
			return st.UpdateNoFlush(func() error { return writeMeta(st, applied[i], epoch) })
		})
		if err != nil {
			return nil, err
		}
	}
	return applied, nil
}

// Close stops the replica: the feed connection drops and the run loop
// exits. The store is left at its last durable applied position.
func (r *Replica) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	conn := r.conn
	r.cond.Broadcast()
	r.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	r.wg.Wait()
}

// ReplicaStats is the replica-side summary exposed through the
// server's STATS document.
type ReplicaStats struct {
	// Primary is the configured primary address.
	Primary string `json:"primary"`
	// Connected reports whether the feed session is up.
	Connected bool `json:"connected"`
	// Promoted reports whether this replica has been promoted.
	Promoted bool `json:"promoted,omitempty"`
	// Epoch is the replica's current epoch.
	Epoch uint64 `json:"epoch"`
	// AppliedLSN is the durable applied LSN per shard.
	AppliedLSN []uint64 `json:"applied_lsn"`
	// Reconnects counts feed sessions ended and retried.
	Reconnects int64 `json:"reconnects"`
	// ApplyCrashes counts simulated crashes recovered during apply.
	ApplyCrashes int64 `json:"apply_crashes"`
	// Batches counts batch items applied.
	Batches int64 `json:"batches"`
	// SnapRows counts snapshot rows loaded.
	SnapRows int64 `json:"snap_rows"`
}

// Stats returns a point-in-time summary.
func (r *Replica) Stats() ReplicaStats {
	r.mu.Lock()
	s := ReplicaStats{
		Primary:    r.opts.Primary,
		Connected:  r.connected,
		Promoted:   r.promoted,
		Epoch:      r.epoch,
		AppliedLSN: append([]uint64(nil), r.applied...),
	}
	r.mu.Unlock()
	s.Reconnects = atomic.LoadInt64(&r.statReconnects)
	s.ApplyCrashes = atomic.LoadInt64(&r.statCrashes)
	s.Batches = atomic.LoadInt64(&r.statBatches)
	s.SnapRows = atomic.LoadInt64(&r.statSnapRows)
	return s
}
