// Package wire is the network protocol of the KV serving layer: a
// compact length-prefixed binary framing with a versioned header, used
// by internal/server and internal/client.
//
// Every frame is a 4-byte big-endian payload length followed by the
// payload. The payload starts with a fixed header — one version byte,
// one opcode byte, and a 4-byte big-endian request id — followed by an
// opcode-specific body. Request ids are chosen by the client and echoed
// verbatim in the matching response, which is what lets both sides
// pipeline: many requests may be in flight on one connection, and
// responses may return in any order.
//
// Version 2 frames extend the header with a trace context: one flags
// byte and an 8-byte big-endian trace id, inserted between the request
// id and the body. The encoders emit version 2 only when a frame
// actually carries trace state (Flags or TraceID nonzero), so untraced
// traffic is byte-identical to version 1 and old peers interoperate as
// long as tracing is off. Decoders accept both versions.
//
// Request bodies:
//
//	GET, DELETE           table uint64 | key uint64
//	PUT                   table uint64 | key uint64 | value bytes (rest)
//	SCAN                  table uint64 | from uint64 | limit uint32
//	BEGIN/COMMIT/ROLLBACK (empty)
//	STATS                 (empty)
//
// Response bodies:
//
//	OK, NOTFOUND          (empty)
//	VALUE                 value bytes (rest)
//	ERR                   UTF-8 message (rest)
//	SCAN                  count uint32 | count × (key uint64 | len uint32 | value bytes)
//	STATS                 JSON bytes (rest)
//
// The decoder is fuzz-friendly by construction: it never trusts a length
// it has not bounds-checked, never allocates proportionally to anything
// but verified input bytes, and rejects every malformed frame with an
// error instead of panicking. MaxFrame bounds what a peer can make the
// other side buffer.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Version is the base protocol version: the 6-byte header with no trace
// context. Receivers reject frames whose version they do not speak, so
// the framing itself can evolve.
const Version = 1

// VersionTraced is the version of frames carrying the trace extension
// (flags byte + 8-byte trace id after the request id).
const VersionTraced = 2

// Flag bits of a VersionTraced frame's flags byte. Unknown bits are
// preserved by the decoders for forward compatibility.
const (
	// FlagTraced marks a request sampled for span tracing: the server
	// records a per-stage timeline for it under the frame's trace id.
	FlagTraced byte = 1 << 0
)

// MaxFrame bounds a single frame's payload (header + body). It caps
// both the server's per-request buffering and the client's per-response
// buffering; the server clamps its SCAN row limit by encoded bytes so
// scan responses fit in one frame whatever the table's row size.
const MaxFrame = 8 << 20

// headerSize is version(1) + opcode(1) + request id(4).
const headerSize = 6

// headerSizeV2 adds the trace extension: flags(1) + trace id(8).
const headerSizeV2 = headerSize + 9

// Request opcodes.
const (
	OpGet byte = iota + 1
	OpPut
	OpDelete
	OpScan
	OpBegin
	OpCommit
	OpRollback
	OpStats
)

// Replication request opcodes (see repl.go for the body codecs). Their
// bodies ride opaquely in Request.Value so the header handling — and
// the v1/v2 trace-extension negotiation — is identical to every other
// opcode.
const (
	// OpReplSubscribe turns the connection into a replication feed: the
	// body names the resume LSNs and the server starts pushing
	// RespReplBatch / RespReplSnap frames.
	OpReplSubscribe byte = iota + 9
	// OpReplAck acknowledges applied-and-durable LSNs on a feed.
	OpReplAck
	// OpReplPromote promotes a replica to primary, or fences a primary
	// whose epoch the body supersedes.
	OpReplPromote
	// OpReplLSNs queries the peer's per-shard LSN vector, epoch, and
	// role (empty body; answered with RespReplLSNs).
	OpReplLSNs
	// OpReplWait blocks until the peer's LSN vector covers the body's
	// bound or a timeout expires — the staleness-bounded read barrier.
	OpReplWait
)

// Response codes. The high bit distinguishes responses from requests,
// so a stream confusion (e.g. a client dialed by another client) fails
// loudly instead of silently mismatching.
const (
	RespOK byte = iota + 0x80
	RespValue
	RespNotFound
	RespErr
	RespScan
	RespStats
	// RespReplBatch is an unsolicited pushed frame on a subscribed
	// connection: one shard's flushed log records (body in Value).
	RespReplBatch
	// RespReplSnap is a pushed snapshot chunk bootstrapping a replica
	// shard that is too far behind for log catch-up.
	RespReplSnap
	// RespReplLSNs answers OpReplLSNs with the peer's LSN vector.
	RespReplLSNs
)

// Errors returned by the decoders and the frame reader.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")
	ErrShortFrame    = errors.New("wire: truncated frame")
	ErrBadVersion    = errors.New("wire: unsupported protocol version")
	ErrBadOpcode     = errors.New("wire: unknown opcode")
)

// OpName returns a short lower-case name for a request opcode or
// response code, for metrics and error messages.
func OpName(op byte) string {
	switch op {
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpDelete:
		return "delete"
	case OpScan:
		return "scan"
	case OpBegin:
		return "begin"
	case OpCommit:
		return "commit"
	case OpRollback:
		return "rollback"
	case OpStats:
		return "stats"
	case OpReplSubscribe:
		return "replsubscribe"
	case OpReplAck:
		return "replack"
	case OpReplPromote:
		return "replpromote"
	case OpReplLSNs:
		return "repllsns"
	case OpReplWait:
		return "replwait"
	case RespOK:
		return "ok"
	case RespValue:
		return "value"
	case RespNotFound:
		return "notfound"
	case RespErr:
		return "err"
	case RespScan:
		return "scanresult"
	case RespStats:
		return "statsresult"
	case RespReplBatch:
		return "replbatch"
	case RespReplSnap:
		return "replsnap"
	case RespReplLSNs:
		return "repllsnsresult"
	}
	return fmt.Sprintf("op%#x", op)
}

// Request is one decoded client request.
type Request struct {
	// Op is the request opcode (OpGet ... OpStats).
	Op byte
	// ID is the client-chosen pipelining id echoed in the response.
	ID uint32
	// Table and Key address a row for GET/PUT/DELETE; for SCAN, Key is
	// the inclusive start key.
	Table uint64
	Key   uint64
	// Value is the PUT payload. It aliases the decode buffer — copy it
	// before the next frame is read if it must outlive the request.
	Value []byte
	// Limit is the SCAN row limit (0 means the server's maximum).
	Limit uint32
	// Flags is the trace-extension flags byte (see FlagTraced). Nonzero
	// Flags or TraceID makes AppendRequest emit a VersionTraced frame.
	Flags byte
	// TraceID is the client-stamped trace id of a sampled request.
	TraceID uint64
}

// Traced reports whether the request asks for span tracing: the sampled
// flag set and a usable (nonzero) trace id.
func (r *Request) Traced() bool { return r.Flags&FlagTraced != 0 && r.TraceID != 0 }

// Response is one decoded server response.
type Response struct {
	// Code is the response code (RespOK ... RespStats).
	Code byte
	// ID echoes the request id.
	ID uint32
	// Value is the row for RespValue, the JSON document for RespStats.
	// It aliases the decode buffer, like Request.Value.
	Value []byte
	// Err is the error message for RespErr.
	Err string
	// Entries are the SCAN results for RespScan; each entry's Value
	// aliases the decode buffer (see Entry).
	Entries []Entry
	// Flags and TraceID mirror the request fields: servers may echo the
	// trace context, and nonzero values make AppendResponse emit a
	// VersionTraced frame. The serving layer keeps responses at Version
	// (the timeline lives server-side), so these are normally zero.
	Flags   byte
	TraceID uint64
}

// Entry is one SCAN result row. The values of one decoded response sit
// back to back in one buffer — the frame they arrived in — so holding one
// value keeps the whole response alive; copy a value to keep it alone.
// Each is capped at its own length: appending to one reallocates it and
// never reaches the next entry.
type Entry struct {
	Key   uint64
	Value []byte
}

// AppendRequest appends the complete frame (length prefix included) for
// r to dst and returns the extended slice.
func AppendRequest(dst []byte, r Request) []byte {
	body := 0
	switch r.Op {
	case OpGet, OpDelete:
		body = 16
	case OpPut:
		body = 16 + len(r.Value)
	case OpScan:
		body = 20
	case OpReplSubscribe, OpReplAck, OpReplPromote, OpReplWait:
		body = len(r.Value)
	}
	dst = appendHeader(dst, body, r.Op, r.ID, r.Flags, r.TraceID)
	switch r.Op {
	case OpGet, OpDelete:
		dst = binary.BigEndian.AppendUint64(dst, r.Table)
		dst = binary.BigEndian.AppendUint64(dst, r.Key)
	case OpPut:
		dst = binary.BigEndian.AppendUint64(dst, r.Table)
		dst = binary.BigEndian.AppendUint64(dst, r.Key)
		dst = append(dst, r.Value...)
	case OpScan:
		dst = binary.BigEndian.AppendUint64(dst, r.Table)
		dst = binary.BigEndian.AppendUint64(dst, r.Key)
		dst = binary.BigEndian.AppendUint32(dst, r.Limit)
	case OpReplSubscribe, OpReplAck, OpReplPromote, OpReplWait:
		dst = append(dst, r.Value...)
	}
	return dst
}

// AppendResponse appends the complete frame for r to dst and returns
// the extended slice.
func AppendResponse(dst []byte, r Response) []byte {
	body := 0
	switch r.Code {
	case RespValue, RespStats, RespReplBatch, RespReplSnap, RespReplLSNs:
		body = len(r.Value)
	case RespErr:
		body = len(r.Err)
	case RespScan:
		body = 4
		for _, e := range r.Entries {
			body += 12 + len(e.Value)
		}
	}
	dst = appendHeader(dst, body, r.Code, r.ID, r.Flags, r.TraceID)
	switch r.Code {
	case RespValue, RespStats, RespReplBatch, RespReplSnap, RespReplLSNs:
		dst = append(dst, r.Value...)
	case RespErr:
		dst = append(dst, r.Err...)
	case RespScan:
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(r.Entries)))
		for _, e := range r.Entries {
			dst = AppendScanEntry(dst, e.Key, e.Value)
		}
	}
	return dst
}

// The scan-frame builder writes a RespScan frame without an []Entry in
// between: BeginScanFrame, one AppendScanEntry per row as the rows are
// produced, FinishScanFrame once their number is known. The frame is
// byte-identical to AppendResponse's for the same entries.

// scanFrameHead is what precedes a RespScan frame's entries: the length
// prefix, the untraced header and the row count.
const scanFrameHead = 4 + headerSize + 4

// ScanFrameSize returns the length of a RespScan frame of rows entries
// whose values are valueLen bytes each — the capacity that lets a builder
// append that many rows without growing its buffer.
func ScanFrameSize(rows, valueLen int) int {
	return scanFrameHead + rows*(12+valueLen)
}

// BeginScanFrame starts an untraced RespScan frame answering request id
// in buf's storage, overwriting its contents, and returns the frame so
// far. The length prefix and the row count are placeholders until
// FinishScanFrame.
func BeginScanFrame(buf []byte, id uint32) []byte {
	buf = appendHeader(buf[:0], 4, RespScan, id, 0, 0)
	return binary.BigEndian.AppendUint32(buf, 0)
}

// AppendScanEntry appends one scan entry — key uint64 | len uint32 | value
// — to dst. It is the only encoder of that layout.
func AppendScanEntry(dst []byte, key uint64, value []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, key)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(value)))
	return append(dst, value...)
}

// FinishScanFrame completes a frame begun with BeginScanFrame to which
// rows entries were appended: it patches the length prefix and the row
// count in place.
func FinishScanFrame(frame []byte, rows int) {
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
	binary.BigEndian.PutUint32(frame[scanFrameHead-4:], uint32(rows))
}

// appendHeader writes the length prefix and the frame header for a
// bodyLen-byte body, choosing Version or VersionTraced by whether the
// frame carries trace state.
func appendHeader(dst []byte, bodyLen int, op byte, id uint32, flags byte, traceID uint64) []byte {
	if flags == 0 && traceID == 0 {
		dst = binary.BigEndian.AppendUint32(dst, uint32(headerSize+bodyLen))
		dst = append(dst, Version, op)
		return binary.BigEndian.AppendUint32(dst, id)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(headerSizeV2+bodyLen))
	dst = append(dst, VersionTraced, op)
	dst = binary.BigEndian.AppendUint32(dst, id)
	dst = append(dst, flags)
	return binary.BigEndian.AppendUint64(dst, traceID)
}

// decodeHeader validates the fixed header (either version) and returns
// opcode, id, trace context, and the body.
func decodeHeader(payload []byte) (op byte, id uint32, flags byte, traceID uint64, body []byte, err error) {
	if len(payload) < headerSize {
		return 0, 0, 0, 0, nil, ErrShortFrame
	}
	switch payload[0] {
	case Version:
		return payload[1], binary.BigEndian.Uint32(payload[2:6]), 0, 0, payload[headerSize:], nil
	case VersionTraced:
		if len(payload) < headerSizeV2 {
			return 0, 0, 0, 0, nil, fmt.Errorf("%w: %d-byte traced header", ErrShortFrame, len(payload))
		}
		return payload[1], binary.BigEndian.Uint32(payload[2:6]),
			payload[6], binary.BigEndian.Uint64(payload[7:15]), payload[headerSizeV2:], nil
	}
	return 0, 0, 0, 0, nil, fmt.Errorf("%w: %d", ErrBadVersion, payload[0])
}

// DecodeRequest decodes a request payload (a frame minus its length
// prefix). Returned slices alias payload.
func DecodeRequest(payload []byte) (Request, error) {
	op, id, flags, traceID, body, err := decodeHeader(payload)
	if err != nil {
		return Request{}, err
	}
	r := Request{Op: op, ID: id, Flags: flags, TraceID: traceID}
	switch op {
	case OpGet, OpDelete:
		if len(body) != 16 {
			return Request{}, fmt.Errorf("%w: %s body %d bytes", ErrShortFrame, OpName(op), len(body))
		}
		r.Table = binary.BigEndian.Uint64(body)
		r.Key = binary.BigEndian.Uint64(body[8:])
	case OpPut:
		if len(body) < 16 {
			return Request{}, fmt.Errorf("%w: put body %d bytes", ErrShortFrame, len(body))
		}
		r.Table = binary.BigEndian.Uint64(body)
		r.Key = binary.BigEndian.Uint64(body[8:])
		r.Value = body[16:]
	case OpScan:
		if len(body) != 20 {
			return Request{}, fmt.Errorf("%w: scan body %d bytes", ErrShortFrame, len(body))
		}
		r.Table = binary.BigEndian.Uint64(body)
		r.Key = binary.BigEndian.Uint64(body[8:])
		r.Limit = binary.BigEndian.Uint32(body[16:])
	case OpBegin, OpCommit, OpRollback, OpStats, OpReplLSNs:
		if len(body) != 0 {
			return Request{}, fmt.Errorf("%w: %s carries a body", ErrShortFrame, OpName(op))
		}
	case OpReplSubscribe, OpReplAck, OpReplPromote, OpReplWait:
		// Opaque replication body; the typed codecs in repl.go validate.
		r.Value = body
	default:
		return Request{}, fmt.Errorf("%w: %#x", ErrBadOpcode, op)
	}
	return r, nil
}

// DecodeResponse decodes a response payload. Returned slices alias
// payload.
func DecodeResponse(payload []byte) (Response, error) {
	code, id, flags, traceID, body, err := decodeHeader(payload)
	if err != nil {
		return Response{}, err
	}
	r := Response{Code: code, ID: id, Flags: flags, TraceID: traceID}
	switch code {
	case RespOK, RespNotFound:
		if len(body) != 0 {
			return Response{}, fmt.Errorf("%w: %s carries a body", ErrShortFrame, OpName(code))
		}
	case RespValue, RespStats, RespReplBatch, RespReplSnap, RespReplLSNs:
		r.Value = body[:len(body):len(body)]
	case RespErr:
		r.Err = string(body)
	case RespScan:
		if len(body) < 4 {
			return Response{}, fmt.Errorf("%w: scan result header", ErrShortFrame)
		}
		count := binary.BigEndian.Uint32(body)
		body = body[4:]
		// Each entry is at least 12 bytes, so a hostile count cannot
		// make us allocate more entries than the body could hold.
		if uint64(count)*12 > uint64(len(body)) {
			return Response{}, fmt.Errorf("%w: scan count %d exceeds body", ErrShortFrame, count)
		}
		r.Entries = make([]Entry, 0, count)
		for i := uint32(0); i < count; i++ {
			if len(body) < 12 {
				return Response{}, fmt.Errorf("%w: scan entry %d", ErrShortFrame, i)
			}
			key := binary.BigEndian.Uint64(body)
			vlen := binary.BigEndian.Uint32(body[8:])
			body = body[12:]
			if uint64(vlen) > uint64(len(body)) {
				return Response{}, fmt.Errorf("%w: scan entry %d value", ErrShortFrame, i)
			}
			// Capped at its length: the next entry's key follows in memory
			// the caller may own, and an append must not reach it.
			r.Entries = append(r.Entries, Entry{Key: key, Value: body[:vlen:vlen]})
			body = body[vlen:]
		}
		if len(body) != 0 {
			return Response{}, fmt.Errorf("%w: %d trailing bytes after scan entries", ErrShortFrame, len(body))
		}
	default:
		return Response{}, fmt.Errorf("%w: %#x", ErrBadOpcode, code)
	}
	return r, nil
}

// bufPool recycles frame and row buffers across connections and
// requests. The serving path allocates one buffer per frame read, per
// response written, and per row looked up; at tens of thousands of
// requests per second that garbage dominates the profile, so the hot
// paths draw from this pool instead. Capacities converge on the
// workload's frame sizes: a buffer that proves too small is dropped —
// left to the garbage collector, never put back — and replaced by a
// larger one. (Put back, it would be the next buffer handed out on the
// same P, sync.Pool's private slot being last in, first out: the next
// caller allocates again and the pool grows by one buffer per miss.)
//
// A sync.Pool stores pointers, and boxing a slice header on every Put
// would itself allocate, so the *[]byte holders cycle through a pool of
// their own: GetBuf empties a holder into holderPool, PutBuf refills one
// from it. In steady state neither call allocates.
var bufPool, holderPool sync.Pool

// GetBuf returns a zero-length recycled buffer (possibly nil: appending
// grows it like any other slice). Pair with PutBuf once every alias of
// the buffer is dead.
func GetBuf() []byte {
	p, ok := bufPool.Get().(*[]byte)
	if !ok {
		return nil
	}
	buf := (*p)[:0]
	*p = nil
	holderPool.Put(p)
	return buf
}

// GetBufN returns a recycled buffer of length n with unspecified
// contents. A pooled buffer with insufficient capacity is dropped and a
// fresh one allocated, so capacities ratchet up to the workload's sizes.
func GetBufN(n int) []byte {
	if b := GetBuf(); cap(b) >= n {
		return b[:n]
	}
	return make([]byte, n)
}

// PutBuf recycles buf for a later GetBuf. The caller must not retain
// any alias of buf; a nil or empty-capacity buf is a no-op.
func PutBuf(buf []byte) {
	if cap(buf) == 0 {
		return
	}
	p, ok := holderPool.Get().(*[]byte)
	if !ok {
		p = new([]byte)
	}
	*p = buf[:0]
	bufPool.Put(p)
}

// ReadFrame reads one length-prefixed payload from r into buf (grown as
// needed) and returns the payload slice, which aliases the returned
// buffer. Callers loop:
//
//	payload, buf, err = wire.ReadFrame(r, buf)
//
// A payload that does not fit cap(buf) is read into a buffer allocated
// for it alone, which is returned as newBuf; buf is neither written past
// the prefix nor recycled, so a caller may pass the result back (its
// buffer then grows to the largest frame seen) or keep buf and own the
// returned payload outright. io.EOF is returned unwrapped on a clean
// close before the prefix; a close mid-frame is io.ErrUnexpectedEOF.
//
// The length prefix is read into buf too (a local array would escape
// through the io.Reader call and cost an allocation per frame), so a
// loop that passes its buffer back allocates only when a frame outgrows
// it.
func ReadFrame(r io.Reader, buf []byte) (payload, newBuf []byte, err error) {
	var prefix []byte
	if cap(buf) >= 4 {
		prefix = buf[:4]
	} else {
		prefix = make([]byte, 4) // cold start: the caller has no buffer yet
	}
	if _, err := io.ReadFull(r, prefix); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, buf, io.ErrUnexpectedEOF
		}
		return nil, buf, err
	}
	n := binary.BigEndian.Uint32(prefix)
	if n > MaxFrame {
		return nil, buf, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	if n < headerSize {
		return nil, buf, fmt.Errorf("%w: %d-byte payload", ErrShortFrame, n)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, buf, err
	}
	return buf, buf, nil
}

// FrameBuffered reports whether br already holds a whole frame, prefix
// and payload, so that the next ReadFrame(br, …) is served from its buffer.
// It never reads, and leaves validating the length to ReadFrame.
func FrameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < 4 {
		return false
	}
	prefix, _ := br.Peek(4) // buffered: no read, no error
	return int64(br.Buffered())-4 >= int64(binary.BigEndian.Uint32(prefix))
}
