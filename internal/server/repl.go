package server

// Replication request handling: the server side of internal/repl's wire
// exchange. A primary (Options.Repl set) serves SUBSCRIBE by turning
// the connection into a push feed, consumes ACKs, and answers LSNS from
// its durable WAL positions. A replica (Options.Replica set) rejects
// writes with a "READONLY:"-classified error, serves WAIT as the
// staleness-bounded read barrier, and handles PROMOTE. A fenced primary
// (PROMOTE for a newer epoch arrived) rejects writes and WAIT with a
// "FENCED:" prefix and answers LSNS as RoleFenced, so both write and
// read clients fail over.

import (
	"fmt"
	"time"

	"nvmstore/internal/repl"
	"nvmstore/internal/wire"
)

// Classified error prefixes for rejected writes. Clients match them
// with client.IsFenced / client.IsReadOnly.
const (
	// FencedPrefix starts every write rejection from a superseded
	// primary.
	FencedPrefix = "FENCED: "
	// ReadOnlyPrefix starts every write rejection from an unpromoted
	// replica.
	ReadOnlyPrefix = "READONLY: "
)

// writeBlocked reports why this server rejects writes right now — a
// classified error message — or "" when writes are allowed.
func (c *conn) writeBlocked() string {
	s := c.srv
	if src := s.opts.Repl; src != nil {
		if e := src.FencedBy(); e != 0 {
			return fmt.Sprintf("%sprimary superseded by epoch %d", FencedPrefix, e)
		}
	}
	if rp := s.opts.Replica; rp != nil && !rp.Promoted() {
		return ReadOnlyPrefix + "read replica; writes go to the primary"
	}
	return ""
}

// replSubscribe turns the connection into a replication feed: the
// subscribe frame is answered inline, then a feeder goroutine streams
// every item the source enqueues — snapshot chunks first where needed,
// then live batches — until the feed is dropped or the connection dies.
func (c *conn) replSubscribe(req wire.Request, start time.Time) {
	src := c.srv.opts.Repl
	resp := wire.Response{ID: req.ID, Code: wire.RespErr}
	switch {
	case src == nil:
		resp.Err = "not a replication primary"
	case c.srv.opts.Replica != nil && !c.srv.opts.Replica.Promoted():
		resp.Err = "unpromoted replica cannot feed replicas"
	case c.feed != nil:
		resp.Err = "connection already subscribed"
	}
	if resp.Err != "" {
		c.answer(req, start, resp)
		return
	}
	sub, err := wire.DecodeReplSubscribe(req.Value)
	if err != nil {
		resp.Err = err.Error()
		c.answer(req, start, resp)
		return
	}
	f := src.NewFeed(c.nc.RemoteAddr().String())
	c.feed = f
	c.answer(req, start, wire.Response{ID: req.ID, Code: wire.RespOK})
	// The OK, and every response before it, must be on the wire before the
	// feed's first pushed frame.
	c.flush()
	// The feeder writes to the connection, so it must be registered with
	// pending before the reader exits — we are on the reader goroutine, so
	// this Add happens-before the post-loop pending.Wait.
	c.pending.Add(1)
	go c.feeder(f)
	// Attach streams the bootstrap into the feed's bounded queue, so it
	// must run concurrently with the feeder draining it.
	go func() {
		if err := src.Attach(f, sub); err != nil {
			c.srv.logf("server: repl feed %d (%s): %v", f.ID(), c.nc.RemoteAddr(), err)
			src.Detach(f)
		}
	}()
}

// feeder streams one feed's items as pushed response frames, splitting
// oversized batches and snapshot chunks so every frame stays far under
// wire.MaxFrame (a split never breaks replica semantics: transactions
// are buffered across frames and snapshot Final survives on the last
// piece). When the feed is dropped — detach, queue overflow, fencing,
// attach failure — it severs the connection so the replica reconnects
// instead of waiting on a dead feed.
func (c *conn) feeder(f *repl.Feed) {
	defer c.pending.Done()
	src := c.srv.opts.Repl
	const max = repl.MaxBatchBytes
	for it := range f.Items() {
		switch {
		case it.Batch != nil:
			b := it.Batch
			epoch := src.Epoch()
			recs := b.Recs
			for len(recs) > 0 {
				n, bytes := 0, 0
				for n < len(recs) && (n == 0 || bytes < max) {
					bytes += 33 + len(recs[n].After)
					n++
				}
				body := wire.AppendReplBatch(nil, wire.ReplBatch{Shard: uint32(b.Shard), Epoch: epoch, Recs: recs[:n]})
				c.push(wire.Response{Code: wire.RespReplBatch, Value: body})
				recs = recs[n:]
			}
		case it.Snap != nil:
			sn := it.Snap
			rows := sn.Rows
			for {
				n, bytes := 0, 0
				for n < len(rows) && (n == 0 || bytes < max) {
					bytes += 20 + len(rows[n].Value)
					n++
				}
				last := n == len(rows)
				body := wire.AppendReplSnap(nil, wire.ReplSnap{
					Shard: sn.Shard, Epoch: sn.Epoch, Final: sn.Final && last,
					SnapLSN: sn.SnapLSN, Rows: rows[:n],
				})
				c.push(wire.Response{Code: wire.RespReplSnap, Value: body})
				rows = rows[n:]
				if last {
					break
				}
			}
		}
	}
	c.nc.Close()
}

// replAck records a replica's durable progress. Acks are fire-and-
// forget — no response, keeping the feed connection's server→replica
// direction purely pushed frames.
func (c *conn) replAck(req wire.Request, start time.Time) {
	defer c.srv.record(req.Op, start)
	src := c.srv.opts.Repl
	if src == nil || c.feed == nil {
		return
	}
	ack, err := wire.DecodeReplAck(req.Value)
	if err != nil {
		c.srv.logf("server: %s: bad repl ack: %v", c.nc.RemoteAddr(), err)
		return
	}
	src.Ack(c.feed, ack)
}

// replPromote handles an explicit failover step. Sent to a replica it
// promotes it (response: the applied LSN vector it now serves from, the
// acked prefix); sent to the old primary it fences it, so every later
// write is rejected with FencedPrefix.
func (c *conn) replPromote(req wire.Request, start time.Time) {
	resp := wire.Response{ID: req.ID}
	pr, err := wire.DecodeReplPromote(req.Value)
	if err != nil {
		resp.Code, resp.Err = wire.RespErr, err.Error()
		c.answer(req, start, resp)
		return
	}
	s := c.srv
	switch {
	case s.opts.Replica != nil && !s.opts.Replica.Promoted():
		applied, err := s.opts.Replica.Promote(pr.Epoch)
		if err != nil {
			resp.Code, resp.Err = wire.RespErr, err.Error()
			break
		}
		if src := s.opts.Repl; src != nil {
			// This node now feeds its own replicas at the new epoch.
			src.SetEpoch(pr.Epoch)
		}
		resp.Code = wire.RespReplLSNs
		resp.Value = wire.AppendReplLSNs(nil, wire.ReplLSNs{Epoch: pr.Epoch, Role: wire.RolePrimary, LSNs: applied})
	case s.opts.Repl != nil:
		if !s.opts.Repl.Fence(pr.Epoch) {
			resp.Code = wire.RespErr
			resp.Err = fmt.Sprintf("promote epoch %d does not exceed current epoch %d", pr.Epoch, s.opts.Repl.Epoch())
			break
		}
		resp.Code = wire.RespOK
	default:
		resp.Code, resp.Err = wire.RespErr, "no replication state on this server"
	}
	c.answer(req, start, resp)
}

// replLSNs reports this server's position vector: a primary answers its
// per-shard durable LSNs (what a client's acked writes are covered by),
// a replica its applied vector. Clients chain the two for read-your-
// writes: LSNS on the primary, WAIT on the replica. A fenced ex-primary
// answers RoleFenced with the epoch that superseded it, so read clients
// stop treating its vector as an authority and fail over.
func (c *conn) replLSNs(req wire.Request, start time.Time) {
	s := c.srv
	var doc wire.ReplLSNs
	switch {
	case s.opts.Repl != nil && s.opts.Repl.FencedBy() != 0:
		doc = wire.ReplLSNs{Epoch: s.opts.Repl.FencedBy(), Role: wire.RoleFenced, LSNs: repl.DurableLSNs(s.store)}
	case s.opts.Replica != nil && !s.opts.Replica.Promoted():
		rp := s.opts.Replica
		doc = wire.ReplLSNs{Epoch: rp.Epoch(), Role: wire.RoleReplica, LSNs: rp.Applied()}
	default:
		doc = wire.ReplLSNs{Epoch: 1, Role: wire.RolePrimary, LSNs: repl.DurableLSNs(s.store)}
		if src := s.opts.Repl; src != nil {
			doc.Epoch = src.Epoch()
		} else if rp := s.opts.Replica; rp != nil {
			doc.Epoch = rp.Epoch()
		}
	}
	c.answer(req, start, wire.Response{ID: req.ID, Code: wire.RespReplLSNs, Value: wire.AppendReplLSNs(nil, doc)})
}

// replWait blocks until the replica's applied vector covers the
// client's — the staleness-bounded read barrier. It parks on a
// goroutine (registered with pending) so the reader keeps serving the
// connection's other pipelined requests. A live primary answers
// immediately: its own durable state trivially covers the vector it
// handed out. A fenced ex-primary must NOT — its lineage is dead, so
// "covered" would bless unboundedly stale reads; it answers with a
// FENCED-classified error so read clients fail over.
func (c *conn) replWait(req wire.Request, start time.Time) {
	rp := c.srv.opts.Replica
	w, err := wire.DecodeReplWait(req.Value)
	if err != nil {
		c.answer(req, start, wire.Response{ID: req.ID, Code: wire.RespErr, Err: err.Error()})
		return
	}
	if src := c.srv.opts.Repl; src != nil {
		if e := src.FencedBy(); e != 0 {
			msg := fmt.Sprintf("%sprimary superseded by epoch %d; re-resolve and wait elsewhere", FencedPrefix, e)
			c.answer(req, start, wire.Response{ID: req.ID, Code: wire.RespErr, Err: msg})
			return
		}
	}
	if rp == nil || rp.Promoted() {
		c.answer(req, start, wire.Response{ID: req.ID, Code: wire.RespOK})
		return
	}
	timeout := time.Duration(w.TimeoutMs) * time.Millisecond
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	c.pending.Add(1)
	go func() {
		defer c.pending.Done()
		resp := wire.Response{ID: req.ID, Code: wire.RespOK}
		if err := rp.WaitLSN(w.LSNs, timeout); err != nil {
			resp.Code, resp.Err = wire.RespErr, err.Error()
		}
		c.push(resp)
		c.srv.record(req.Op, start)
	}()
}
