// Package client is the Go client of the KV serving layer: a connection
// pool over internal/wire with pipelining. Every request carries a
// client-chosen id; responses are matched by id, so one connection
// carries many requests in flight — the synchronous methods (Get, Put,
// ...) are safe to call from many goroutines at once and share the
// pooled connections, while the Async variants let a single goroutine
// keep a deep pipeline of its own.
//
// Issuing a request encodes it into its connection's write buffer and
// wakes that connection's flusher goroutine, which hands everything
// buffered to the socket in one write: requests issued back to back
// share a write, and a request is on its way to the wire as soon as it
// is issued — the issuer need not call Result, Done, or anything else
// for it to be sent.
//
// Transactions never share those pooled connections: the server scopes
// transaction state per connection, so Begin dials a dedicated
// connection for the Tx and Commit/Rollback close it again. That keeps
// the autocommit contract — a nil from Put outside a transaction means
// committed and durable — intact even while other goroutines hold open
// transactions.
//
// The client records a wall-clock round-trip histogram per opcode
// (Latency), which is what the remote benchmark driver reports as
// wire-level p50/p99.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"nvmstore/internal/obs"
	"nvmstore/internal/shard"
	"nvmstore/internal/wire"
)

// dialTimeout bounds each dial.
const dialTimeout = 5 * time.Second

// Options tunes the client. The zero value is ready for use.
type Options struct {
	// Conns is the connection pool size (default 1).
	Conns int
	// Depth bounds in-flight requests per connection (default 128);
	// past it, issuing a request blocks — the client-side backpressure
	// matching the server's bounded queues.
	Depth int
	// Retries is how many times the synchronous KV methods (Get, Put,
	// Delete, Scan, Stats) reissue a request after a retryable
	// transport failure, redialing the failed connection first (default
	// 3; negative disables). See IsRetryable for why reissuing is safe.
	Retries int
	// RetryBackoff is the wait before the first retry; it doubles per
	// attempt (default 2ms).
	RetryBackoff time.Duration
	// TraceSample enables end-to-end span tracing: every TraceSample-th
	// keyed request (GET/PUT/DELETE, across the whole client) is stamped
	// with a fresh trace id and the wire.FlagTraced header, telling the
	// server to record a per-stage timeline for it (0 disables; 1 traces
	// everything). Untraced requests stay on the version-1 wire format,
	// so a client with TraceSample 0 is byte-identical to an untracing
	// one.
	TraceSample int
}

func (o *Options) applyDefaults() {
	if o.Conns <= 0 {
		o.Conns = 1
	}
	if o.Depth <= 0 {
		o.Depth = 128
	}
	if o.Retries == 0 {
		o.Retries = 3
	} else if o.Retries < 0 {
		o.Retries = 0
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 2 * time.Millisecond
	}
}

// IsRetryable reports whether a request that failed with err may safely
// be issued again. Transport failures — a dropped connection, a torn
// response frame, a failed redial — are retryable because every KV
// request is idempotent: PUT is an upsert, GET is pure, DELETE differs
// only in its found flag, and a request whose ack was lost has the same
// effect when repeated. A *RemoteError is not retryable: the server
// received the request and answered; retrying would just repeat the
// answer. ErrTxDone is a usage error, not a failure.
func IsRetryable(err error) bool {
	if err == nil || errors.Is(err, ErrTxDone) {
		return false
	}
	var re *RemoteError
	return !errors.As(err, &re)
}

// ErrClosed is returned by requests issued after Close (or after the
// underlying connection failed).
var ErrClosed = errors.New("client: connection closed")

// ErrTxDone is returned by Tx methods used after Commit or Rollback.
var ErrTxDone = errors.New("client: transaction finished")

// RemoteError is a server-reported request failure (a RespErr frame),
// as opposed to a transport failure.
type RemoteError struct{ Msg string }

// Error implements the error interface.
func (e *RemoteError) Error() string { return "server: " + e.Msg }

// Client is a pooled, pipelined connection to one server. Safe for
// concurrent use.
type Client struct {
	addr string
	opts Options
	rr   atomic.Uint64

	// mu guards the pool slots (failed connections are redialed in
	// place), the dedicated transaction connections (see Begin), and
	// the closed flag.
	mu      sync.Mutex
	conns   []*conn
	txConns map[*conn]struct{}
	closed  bool

	// retries counts reissued requests (see Retries).
	retries atomic.Int64

	// traceSeq drives TraceSample's every-Nth selection and seeds the
	// trace ids; stamped counts requests actually traced.
	traceSeq atomic.Uint64
	stamped  atomic.Int64

	// hist[op] is the round-trip wall-clock histogram per request
	// opcode.
	hist [wire.OpStats + 1]obs.Histogram
}

// Dial connects the pool.
func Dial(addr string, opts Options) (*Client, error) {
	opts.applyDefaults()
	c := &Client{
		addr:    addr,
		opts:    opts,
		conns:   make([]*conn, opts.Conns),
		txConns: make(map[*conn]struct{}),
	}
	for i := range c.conns {
		cn, err := c.dialConn()
		if err != nil {
			for _, pc := range c.conns[:i] {
				pc.close(ErrClosed)
			}
			return nil, err
		}
		c.conns[i] = cn
	}
	return c, nil
}

// dialConn dials one connection and starts its read loop.
func (c *Client) dialConn() (*conn, error) {
	nc, err := net.DialTimeout("tcp", c.addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", c.addr, err)
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return newConn(c, nc), nil
}

// newConn wraps an established connection and starts its reader and
// flusher goroutines; both exit when the connection closes or fails.
func newConn(c *Client, nc net.Conn) *conn {
	cn := &conn{
		cl:      c,
		nc:      nc,
		kick:    make(chan struct{}, 1),
		closed:  make(chan struct{}),
		pending: make(map[uint32]*Call),
		sem:     make(chan struct{}, c.opts.Depth),
	}
	go cn.readLoop()
	go cn.flushLoop()
	return cn
}

// Close tears down every pooled connection and any dedicated
// transaction connections; in-flight calls fail with ErrClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	pool := append([]*conn(nil), c.conns...)
	tx := make([]*conn, 0, len(c.txConns))
	for cn := range c.txConns {
		tx = append(tx, cn)
	}
	c.txConns = make(map[*conn]struct{})
	c.mu.Unlock()
	for _, cn := range pool {
		cn.close(ErrClosed)
	}
	for _, cn := range tx {
		cn.close(ErrClosed)
	}
	return nil
}

// Latency returns the client-observed round-trip latency rows, one per
// opcode used ("wire.get", ...).
func (c *Client) Latency() []obs.Row {
	var rows []obs.Row
	for op := wire.OpGet; op <= wire.OpStats; op++ {
		h := c.hist[op].Snapshot()
		if r := h.Row("wire." + wire.OpName(op)); r.Count > 0 {
			rows = append(rows, r)
		}
	}
	return rows
}

// ResetLatency zeroes the round-trip histograms (e.g. after a warmup
// phase).
func (c *Client) ResetLatency() {
	for i := range c.hist {
		c.hist[i].Reset()
	}
}

// next picks a pooled connection round-robin, healing dead slots.
func (c *Client) next() (*conn, error) {
	return c.connAt(int(c.rr.Add(1) % uint64(c.opts.Conns)))
}

// connAt returns pool slot i, redialing it first if its connection has
// failed — the pool self-heals, so one injected drop does not poison a
// round-robin slot forever.
func (c *Client) connAt(i int) (*conn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	cn := c.conns[i]
	if cn.failed() {
		fresh, err := c.dialConn()
		if err != nil {
			return nil, err
		}
		c.conns[i] = fresh
		cn = fresh
	}
	return cn, nil
}

// Retries returns how many requests were reissued after transport
// failures since the client was dialed — the remote driver's exact-op
// accounting subtracts them from throughput math.
func (c *Client) Retries() int64 { return c.retries.Load() }

// TraceStamped returns how many requests this client stamped for span
// tracing (see Options.TraceSample).
func (c *Client) TraceStamped() int64 { return c.stamped.Load() }

// maybeTrace stamps req with a trace context when TraceSample selects
// it. Only keyed requests are stamped — they are the ones the server
// timelines — and a zero-id collision is nudged to 1 (ids only need to
// be nonzero and unique enough to correlate).
func (c *Client) maybeTrace(req *wire.Request) {
	n := c.opts.TraceSample
	if n <= 0 {
		return
	}
	switch req.Op {
	case wire.OpGet, wire.OpPut, wire.OpDelete:
	default:
		return
	}
	seq := c.traceSeq.Add(1)
	if seq%uint64(n) != 0 {
		return
	}
	id := shard.Mix(seq) // a well-spread 64-bit trace id from the stamp sequence number
	if id == 0 {
		id = 1
	}
	req.Flags |= wire.FlagTraced
	req.TraceID = id
	c.stamped.Add(1)
}

// asyncCall issues req on the next pooled connection, folding a dial
// failure into the returned Call.
func (c *Client) asyncCall(req wire.Request) *Call {
	c.maybeTrace(&req)
	cn, err := c.next()
	if err != nil {
		call := &Call{op: req.Op, done: make(chan struct{}), err: err}
		close(call.done)
		return call
	}
	return cn.do(req)
}

// doRetry issues req synchronously, reissuing it with doubling backoff
// on retryable failures up to Options.Retries times. Only the
// synchronous autocommit methods route through here: they are
// idempotent (see IsRetryable), while transactions fail their whole Tx
// instead.
func (c *Client) doRetry(req wire.Request) (wire.Response, error) {
	backoff := c.opts.RetryBackoff
	for attempt := 0; ; attempt++ {
		resp, err := c.asyncCall(req).Result()
		if err == nil || !IsRetryable(err) || attempt >= c.opts.Retries {
			return resp, err
		}
		c.mu.Lock()
		closed := c.closed
		c.mu.Unlock()
		if closed {
			return resp, err
		}
		c.retries.Add(1)
		time.Sleep(backoff)
		backoff *= 2
	}
}

// Call is one in-flight request. Wait for it with Result (or select on
// Done, then call Result, which no longer blocks).
type Call struct {
	op    byte
	resp  wire.Response
	err   error
	done  chan struct{}
	start time.Time
}

// Done is closed when the response (or transport failure) arrived.
func (call *Call) Done() <-chan struct{} { return call.done }

// Result blocks until the response arrives and returns it. A RespErr
// frame surfaces as a *RemoteError. The response's bytes — Value, every
// entry's Value — belong to the caller from here on: the client keeps no
// reference and never reuses them. The values of one response may share
// one buffer (the frame it arrived in), so holding one value keeps the
// whole response alive; copy a value to keep it alone.
func (call *Call) Result() (wire.Response, error) {
	<-call.done
	if call.err != nil {
		return wire.Response{}, call.err
	}
	if call.resp.Code == wire.RespErr {
		return wire.Response{}, &RemoteError{Msg: call.resp.Err}
	}
	return call.resp, nil
}

// GetAsync issues a pipelined GET: when it returns, the request is
// encoded (the caller may reuse its arguments) and its connection's
// flusher has been woken to send it, together with whatever else was
// issued meanwhile — it reaches the server without any further call on
// the returned Call. Async calls are not retried — a pipelined caller
// owns its own in-flight window and decides what to reissue
// (IsRetryable tells it whether it safely can).
func (c *Client) GetAsync(table, key uint64) *Call {
	return c.asyncCall(wire.Request{Op: wire.OpGet, Table: table, Key: key})
}

// PutAsync issues a pipelined PUT (insert or replace). Not retried; see
// GetAsync.
func (c *Client) PutAsync(table, key uint64, value []byte) *Call {
	return c.asyncCall(wire.Request{Op: wire.OpPut, Table: table, Key: key, Value: value})
}

// Get returns the row for key and whether it exists, retrying transport
// failures (see Options.Retries).
func (c *Client) Get(table, key uint64) ([]byte, bool, error) {
	return interpretGet(c.doRetry(wire.Request{Op: wire.OpGet, Table: table, Key: key}))
}

func getResult(call *Call) ([]byte, bool, error) {
	return interpretGet(call.Result())
}

func interpretGet(resp wire.Response, err error) ([]byte, bool, error) {
	if err != nil {
		return nil, false, err
	}
	switch resp.Code {
	case wire.RespValue:
		return resp.Value, true, nil
	case wire.RespNotFound:
		return nil, false, nil
	}
	return nil, false, fmt.Errorf("client: unexpected response %s to get", wire.OpName(resp.Code))
}

// Put inserts or replaces the row for key, retrying transport failures.
// Outside a transaction the returned nil means the write is committed
// and durable on the server.
func (c *Client) Put(table, key uint64, value []byte) error {
	_, err := c.doRetry(wire.Request{Op: wire.OpPut, Table: table, Key: key, Value: value})
	return err
}

// Delete removes the row for key, reporting whether it existed,
// retrying transport failures. A retry after a lost ack reports
// found=false for a delete that did happen — the one observable wrinkle
// of at-least-once delivery on an idempotent op.
func (c *Client) Delete(table, key uint64) (bool, error) {
	resp, err := c.doRetry(wire.Request{Op: wire.OpDelete, Table: table, Key: key})
	if err != nil {
		return false, err
	}
	return resp.Code == wire.RespOK, nil
}

// Scan returns up to limit rows with key >= from in ascending key order
// (limit <= 0 means the server's maximum), retrying transport failures.
// The entries are the caller's. Their values may share one buffer — a
// long result is the response frame itself, handed over without a copy —
// so holding one value keeps the whole result alive (copy a value to keep
// it alone), and each value is capped at its length: an append
// reallocates it.
func (c *Client) Scan(table, from uint64, limit int) ([]wire.Entry, error) {
	req := wire.Request{Op: wire.OpScan, Table: table, Key: from}
	if limit > 0 {
		req.Limit = uint32(limit)
	}
	resp, err := c.doRetry(req)
	if err != nil {
		return nil, err
	}
	if resp.Code != wire.RespScan {
		return nil, fmt.Errorf("client: unexpected response %s to scan", wire.OpName(resp.Code))
	}
	return resp.Entries, nil
}

// Stats returns the server's STATS JSON document, retrying transport
// failures.
func (c *Client) Stats() ([]byte, error) {
	resp, err := c.doRetry(wire.Request{Op: wire.OpStats})
	if err != nil {
		return nil, err
	}
	if resp.Code != wire.RespStats {
		return nil, fmt.Errorf("client: unexpected response %s to stats", wire.OpName(resp.Code))
	}
	return resp.Value, nil
}

// Tx is a server-side transaction on its own dedicated connection,
// dialed by Begin (transaction state lives per connection on the
// server, and autocommit calls must never share a tx-active connection
// — the server would buffer them into the transaction). Writes are
// buffered server-side and acknowledged immediately; only a successful
// Commit makes them durable, atomically per shard. A Tx is not safe for
// concurrent use; Commit or Rollback closes its connection.
type Tx struct {
	cl   *Client
	cn   *conn
	done bool
}

// Begin starts a transaction on a dedicated connection, leaving the
// pooled connections to autocommit traffic.
func (c *Client) Begin() (*Tx, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	c.mu.Unlock()
	cn, err := c.dialConn()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		cn.close(ErrClosed)
		return nil, ErrClosed
	}
	c.txConns[cn] = struct{}{}
	c.mu.Unlock()
	if _, err := cn.do(wire.Request{Op: wire.OpBegin}).Result(); err != nil {
		c.releaseTx(cn)
		return nil, err
	}
	return &Tx{cl: c, cn: cn}, nil
}

// releaseTx retires a transaction's dedicated connection.
func (c *Client) releaseTx(cn *conn) {
	c.mu.Lock()
	delete(c.txConns, cn)
	c.mu.Unlock()
	cn.close(ErrClosed)
}

// Get reads through the transaction (the server answers from the
// transaction's own buffered writes first).
func (tx *Tx) Get(table, key uint64) ([]byte, bool, error) {
	if tx.done {
		return nil, false, ErrTxDone
	}
	return getResult(tx.cn.do(wire.Request{Op: wire.OpGet, Table: table, Key: key}))
}

// Put buffers an insert-or-replace in the transaction.
func (tx *Tx) Put(table, key uint64, value []byte) error {
	if tx.done {
		return ErrTxDone
	}
	_, err := tx.cn.do(wire.Request{Op: wire.OpPut, Table: table, Key: key, Value: value}).Result()
	return err
}

// Delete buffers a delete in the transaction.
func (tx *Tx) Delete(table, key uint64) error {
	if tx.done {
		return ErrTxDone
	}
	_, err := tx.cn.do(wire.Request{Op: wire.OpDelete, Table: table, Key: key}).Result()
	return err
}

// Commit applies the buffered writes, one atomic sub-transaction per
// shard; on return the writes are durable and the transaction's
// connection is closed.
func (tx *Tx) Commit() error {
	if tx.done {
		return ErrTxDone
	}
	tx.done = true
	_, err := tx.cn.do(wire.Request{Op: wire.OpCommit}).Result()
	tx.cl.releaseTx(tx.cn)
	return err
}

// Rollback discards the buffered writes and closes the transaction's
// connection.
func (tx *Tx) Rollback() error {
	if tx.done {
		return ErrTxDone
	}
	tx.done = true
	_, err := tx.cn.do(wire.Request{Op: wire.OpRollback}).Result()
	tx.cl.releaseTx(tx.cn)
	return err
}

// conn is one pooled connection with its pipelining bookkeeping.
type conn struct {
	cl *Client
	nc net.Conn

	// wbuf holds the encoded requests not yet handed to the socket; do
	// appends under wmu and the flusher swaps it for an empty buffer
	// before writing, so issuers never wait on a socket write. Every
	// request in it holds a sem slot, which bounds it to Depth requests.
	wmu  sync.Mutex
	wbuf []byte
	// kick wakes the flusher; a token left in it covers everything
	// appended before the flusher's next swap.
	kick chan struct{}
	// closed is closed by close; it stops the flusher.
	closed chan struct{}

	mu      sync.Mutex
	pending map[uint32]*Call
	nextID  uint32
	err     error // sticky transport failure

	sem chan struct{}

	closeOnce sync.Once
}

// maxIdleWriteBuf caps the write buffer a connection keeps between
// flushes, so one burst of large PUTs does not pin its size forever.
const maxIdleWriteBuf = 64 << 10

// failed reports whether the connection has a sticky transport error.
func (cn *conn) failed() bool {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	return cn.err != nil
}

// do registers and encodes one request and wakes the flusher, returning
// the in-flight call. Failures surface through the call.
func (cn *conn) do(req wire.Request) *Call {
	call := &Call{op: req.Op, done: make(chan struct{}), start: time.Now()}
	cn.sem <- struct{}{}
	cn.mu.Lock()
	if cn.err != nil {
		err := cn.err
		cn.mu.Unlock()
		<-cn.sem
		call.err = err
		close(call.done)
		return call
	}
	cn.nextID++
	req.ID = cn.nextID
	cn.pending[req.ID] = call
	cn.mu.Unlock()

	cn.wmu.Lock()
	cn.wbuf = wire.AppendRequest(cn.wbuf, req)
	cn.wmu.Unlock()
	select {
	case cn.kick <- struct{}{}:
	default: // a wake-up is already pending; it will see this request
	}
	return call
}

// flushLoop is the connection's writer: each wake-up sends everything
// issued since the last one in a single socket write. It never waits for
// more requests, so a lone request leaves at once; requests issued while
// it was not running (back to back by one goroutine, or during the
// previous write) leave together.
func (cn *conn) flushLoop() {
	var out []byte
	for {
		select {
		case <-cn.kick:
		case <-cn.closed:
			return
		}
		cn.wmu.Lock()
		out, cn.wbuf = cn.wbuf, out[:0]
		cn.wmu.Unlock()
		if len(out) == 0 {
			continue
		}
		if _, err := cn.nc.Write(out); err != nil {
			cn.close(fmt.Errorf("client: write: %w", err))
			return
		}
		if cap(out) > maxIdleWriteBuf {
			out = nil
		}
	}
}

// residentBuf is the size of a connection's resident frame buffer. A
// response that fits it (an ack, a GET's row) is decoded there and its
// value copied out for the Call, so the buffer serves the next frame; a
// longer one (a SCAN result, a STATS document) is read into a buffer
// allocated for that frame alone and given to the Call as it is — never
// copied, pooled or reused. Handing off a short frame too would only
// trade its copy for the allocator's zeroing of a fresh buffer.
const residentBuf = 4 << 10

// readLoop matches responses to pending calls until the connection
// fails or closes.
func (cn *conn) readLoop() {
	br := bufio.NewReader(cn.nc)
	resident := make([]byte, residentBuf)
	for {
		// ReadFrame leaves resident alone when the frame outgrows it and
		// returns a buffer of the frame's own.
		payload, _, err := wire.ReadFrame(br, resident)
		if err != nil {
			if err == io.EOF || errors.Is(err, net.ErrClosed) {
				err = ErrClosed
			}
			cn.close(err)
			return
		}
		resp, derr := wire.DecodeResponse(payload)
		if derr != nil {
			cn.close(derr)
			return
		}
		cn.mu.Lock()
		call := cn.pending[resp.ID]
		delete(cn.pending, resp.ID)
		cn.mu.Unlock()
		if call == nil {
			cn.close(fmt.Errorf("client: response for unknown request id %d", resp.ID))
			return
		}
		if len(payload) <= residentBuf {
			// Decoded in the resident buffer, which the next frame
			// overwrites: give the call copies that outlive it.
			if resp.Value != nil {
				resp.Value = append([]byte(nil), resp.Value...)
			}
			for i := range resp.Entries {
				resp.Entries[i].Value = append([]byte(nil), resp.Entries[i].Value...)
			}
		}
		call.resp = resp
		if int(call.op) < len(cn.cl.hist) {
			cn.cl.hist[call.op].Record(time.Since(call.start).Nanoseconds())
		}
		close(call.done)
		<-cn.sem
	}
}

// close fails the connection: every pending and future call returns
// err.
func (cn *conn) close(err error) {
	cn.closeOnce.Do(func() {
		cn.mu.Lock()
		cn.err = err
		calls := cn.pending
		cn.pending = make(map[uint32]*Call)
		cn.mu.Unlock()
		close(cn.closed)
		cn.nc.Close()
		for _, call := range calls {
			call.err = err
			close(call.done)
			<-cn.sem
		}
	})
}
