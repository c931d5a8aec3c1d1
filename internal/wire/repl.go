// Replication frame bodies. The five replication message kinds —
// SUBSCRIBE, BATCH, ACK, SNAPSHOT, PROMOTE (plus the LSNS/WAIT query
// pair) — share the ordinary frame header; their bodies are encoded and
// decoded here. Like the rest of the package the decoders are
// fuzz-friendly: every length is bounds-checked before use, allocation
// is proportional to verified input, and malformed bodies return errors
// rather than panicking (see FuzzDecodeRepl).
//
// Body layouts (all integers big-endian):
//
//	SUBSCRIBE  epoch u64 | nshards u32 | nshards × appliedLSN u64
//	ACK        shard u32 | epoch u64 | appliedLSN u64
//	PROMOTE    epoch u64
//	WAIT       timeout_ms u32 | nshards u32 | nshards × lsn u64
//	LSNS       epoch u64 | role u8 | nshards u32 | nshards × lsn u64
//	BATCH      shard u32 | epoch u64 | count u32 | count × record
//	  record   kind u8 | lsn u64 | tx u64 | pid u64 | off u32 |
//	           alen u32 | after
//	SNAPSHOT   shard u32 | epoch u64 | final u8 | snapLSN u64 |
//	           count u32 | count × (table u64 | key u64 | vlen u32 | value)
package wire

import (
	"encoding/binary"
	"fmt"
)

// ReplSubscribe is the body of an OpReplSubscribe request: a replica
// joining (or rejoining) the primary's replication stream.
type ReplSubscribe struct {
	// Epoch is the highest primary epoch the replica has seen; a primary
	// fenced past it refuses the subscription.
	Epoch uint64
	// From holds, per shard, the last LSN the replica has durably
	// applied; shipping resumes at From[i]+1. A shard count that does not
	// match the primary's is rejected at subscribe time.
	From []uint64
}

// ReplAck is the body of an OpReplAck request: the replica's durable
// progress on one shard. Acked records may be truncated on the primary.
type ReplAck struct {
	// Shard is the shard index the acknowledgment covers.
	Shard uint32
	// Epoch guards against a stale feed acking across a promotion.
	Epoch uint64
	// Applied is the highest LSN applied and flushed on the replica.
	Applied uint64
}

// ReplPromote is the body of an OpReplPromote request. Sent to a
// replica it means "become primary at this epoch"; sent to a primary
// whose epoch is lower it means "you have been superseded — fence".
type ReplPromote struct {
	// Epoch is the new primary epoch; it must exceed the peer's.
	Epoch uint64
}

// ReplWait is the body of an OpReplWait request: block until the peer's
// applied (replica) or durable (primary) LSN vector covers LSNs, giving
// clients read-your-writes on a bounded-staleness replica.
type ReplWait struct {
	// TimeoutMs bounds the wait in milliseconds (0: server default).
	TimeoutMs uint32
	// LSNs is the per-shard bound to wait for; a shorter vector than the
	// peer's shard count waits only on the named prefix.
	LSNs []uint64
}

// ReplLSNs is the body of a RespReplLSNs response: the peer's
// replication position.
type ReplLSNs struct {
	// Epoch is the peer's current primary epoch.
	Epoch uint64
	// Role is RolePrimary, RoleReplica, or RoleFenced.
	Role byte
	// LSNs is per-shard progress: durable LSNs on a primary (fenced or
	// not), applied LSNs on a replica.
	LSNs []uint64
}

// Role values carried in ReplLSNs.Role.
const (
	// RolePrimary marks a writable peer that ships its log.
	RolePrimary byte = 1
	// RoleReplica marks a read-only peer applying a primary's log.
	RoleReplica byte = 2
	// RoleFenced marks a superseded ex-primary: its Epoch field carries
	// the epoch that fenced it, and clients must fail over — its LSN
	// vector is from a dead lineage and guarantees nothing.
	RoleFenced byte = 3
)

// ReplRec is one log record inside a ReplBatch, mirroring wal.Record.
type ReplRec struct {
	// Kind is the wal record kind (update/commit/abort).
	Kind byte
	// LSN, Tx, PID, and Off mirror the wal.Record fields.
	LSN uint64
	// Tx is the primary-side transaction id grouping records.
	Tx uint64
	// PID is the tree id of a logical update record.
	PID uint64
	// Off packs the logical opcode and field offset like wal.Record.Off.
	Off uint32
	// After is the redo image; it aliases the decode buffer.
	After []byte
}

// ReplBatch is the body of a RespReplBatch pushed frame: a run of
// flushed (durable) records from one primary shard, in LSN order.
type ReplBatch struct {
	// Shard is the primary shard the records came from.
	Shard uint32
	// Epoch is the primary epoch that flushed the records.
	Epoch uint64
	// Recs are the records; images alias the decode buffer.
	Recs []ReplRec
}

// SnapRow is one row of a snapshot chunk.
type SnapRow struct {
	// Table is the table id the row belongs to.
	Table uint64
	// Key is the row key.
	Key uint64
	// Value is the row payload; it aliases the decode buffer.
	Value []byte
}

// ReplSnap is the body of a RespReplSnap pushed frame: a chunk of a
// consistent per-shard snapshot, used to bootstrap a replica whose
// resume LSN the primary's log no longer covers.
type ReplSnap struct {
	// Shard is the primary shard being snapshotted.
	Shard uint32
	// Epoch is the primary epoch taking the snapshot.
	Epoch uint64
	// Final marks the last chunk: the shard's snapshot is complete and
	// log batches after SnapLSN follow.
	Final bool
	// SnapLSN is the durable LSN the snapshot is consistent with.
	SnapLSN uint64
	// Rows are the chunk's rows; values alias the decode buffer.
	Rows []SnapRow
}

// replRecHdr is the fixed part of an encoded ReplRec.
const replRecHdr = 1 + 8 + 8 + 8 + 4 + 4

// snapRowHdr is the fixed part of an encoded SnapRow.
const snapRowHdr = 8 + 8 + 4

// AppendReplSubscribe appends the encoded body of s to dst.
func AppendReplSubscribe(dst []byte, s ReplSubscribe) []byte {
	dst = binary.BigEndian.AppendUint64(dst, s.Epoch)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(s.From)))
	for _, l := range s.From {
		dst = binary.BigEndian.AppendUint64(dst, l)
	}
	return dst
}

// DecodeReplSubscribe decodes an OpReplSubscribe body.
func DecodeReplSubscribe(b []byte) (ReplSubscribe, error) {
	if len(b) < 12 {
		return ReplSubscribe{}, fmt.Errorf("%w: subscribe body %d bytes", ErrShortFrame, len(b))
	}
	s := ReplSubscribe{Epoch: binary.BigEndian.Uint64(b)}
	n := binary.BigEndian.Uint32(b[8:])
	b = b[12:]
	if uint64(n)*8 != uint64(len(b)) {
		return ReplSubscribe{}, fmt.Errorf("%w: subscribe lsn vector %d×8 vs %d bytes", ErrShortFrame, n, len(b))
	}
	s.From = make([]uint64, n)
	for i := range s.From {
		s.From[i] = binary.BigEndian.Uint64(b[8*i:])
	}
	return s, nil
}

// AppendReplAck appends the encoded body of a to dst.
func AppendReplAck(dst []byte, a ReplAck) []byte {
	dst = binary.BigEndian.AppendUint32(dst, a.Shard)
	dst = binary.BigEndian.AppendUint64(dst, a.Epoch)
	return binary.BigEndian.AppendUint64(dst, a.Applied)
}

// DecodeReplAck decodes an OpReplAck body.
func DecodeReplAck(b []byte) (ReplAck, error) {
	if len(b) != 20 {
		return ReplAck{}, fmt.Errorf("%w: ack body %d bytes", ErrShortFrame, len(b))
	}
	return ReplAck{
		Shard:   binary.BigEndian.Uint32(b),
		Epoch:   binary.BigEndian.Uint64(b[4:]),
		Applied: binary.BigEndian.Uint64(b[12:]),
	}, nil
}

// AppendReplPromote appends the encoded body of p to dst.
func AppendReplPromote(dst []byte, p ReplPromote) []byte {
	return binary.BigEndian.AppendUint64(dst, p.Epoch)
}

// DecodeReplPromote decodes an OpReplPromote body.
func DecodeReplPromote(b []byte) (ReplPromote, error) {
	if len(b) != 8 {
		return ReplPromote{}, fmt.Errorf("%w: promote body %d bytes", ErrShortFrame, len(b))
	}
	return ReplPromote{Epoch: binary.BigEndian.Uint64(b)}, nil
}

// AppendReplWait appends the encoded body of w to dst.
func AppendReplWait(dst []byte, w ReplWait) []byte {
	dst = binary.BigEndian.AppendUint32(dst, w.TimeoutMs)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(w.LSNs)))
	for _, l := range w.LSNs {
		dst = binary.BigEndian.AppendUint64(dst, l)
	}
	return dst
}

// DecodeReplWait decodes an OpReplWait body.
func DecodeReplWait(b []byte) (ReplWait, error) {
	if len(b) < 8 {
		return ReplWait{}, fmt.Errorf("%w: wait body %d bytes", ErrShortFrame, len(b))
	}
	w := ReplWait{TimeoutMs: binary.BigEndian.Uint32(b)}
	n := binary.BigEndian.Uint32(b[4:])
	b = b[8:]
	if uint64(n)*8 != uint64(len(b)) {
		return ReplWait{}, fmt.Errorf("%w: wait lsn vector %d×8 vs %d bytes", ErrShortFrame, n, len(b))
	}
	w.LSNs = make([]uint64, n)
	for i := range w.LSNs {
		w.LSNs[i] = binary.BigEndian.Uint64(b[8*i:])
	}
	return w, nil
}

// AppendReplLSNs appends the encoded body of l to dst.
func AppendReplLSNs(dst []byte, l ReplLSNs) []byte {
	dst = binary.BigEndian.AppendUint64(dst, l.Epoch)
	dst = append(dst, l.Role)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(l.LSNs)))
	for _, v := range l.LSNs {
		dst = binary.BigEndian.AppendUint64(dst, v)
	}
	return dst
}

// DecodeReplLSNs decodes a RespReplLSNs body.
func DecodeReplLSNs(b []byte) (ReplLSNs, error) {
	if len(b) < 13 {
		return ReplLSNs{}, fmt.Errorf("%w: lsns body %d bytes", ErrShortFrame, len(b))
	}
	l := ReplLSNs{Epoch: binary.BigEndian.Uint64(b), Role: b[8]}
	n := binary.BigEndian.Uint32(b[9:])
	b = b[13:]
	if uint64(n)*8 != uint64(len(b)) {
		return ReplLSNs{}, fmt.Errorf("%w: lsns vector %d×8 vs %d bytes", ErrShortFrame, n, len(b))
	}
	l.LSNs = make([]uint64, n)
	for i := range l.LSNs {
		l.LSNs[i] = binary.BigEndian.Uint64(b[8*i:])
	}
	return l, nil
}

// AppendReplBatch appends the encoded body of bt to dst.
func AppendReplBatch(dst []byte, bt ReplBatch) []byte {
	dst = binary.BigEndian.AppendUint32(dst, bt.Shard)
	dst = binary.BigEndian.AppendUint64(dst, bt.Epoch)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(bt.Recs)))
	for _, r := range bt.Recs {
		dst = append(dst, r.Kind)
		dst = binary.BigEndian.AppendUint64(dst, r.LSN)
		dst = binary.BigEndian.AppendUint64(dst, r.Tx)
		dst = binary.BigEndian.AppendUint64(dst, r.PID)
		dst = binary.BigEndian.AppendUint32(dst, r.Off)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(r.After)))
		dst = append(dst, r.After...)
	}
	return dst
}

// DecodeReplBatch decodes a RespReplBatch body. Record images alias b.
func DecodeReplBatch(b []byte) (ReplBatch, error) {
	if len(b) < 16 {
		return ReplBatch{}, fmt.Errorf("%w: batch body %d bytes", ErrShortFrame, len(b))
	}
	bt := ReplBatch{Shard: binary.BigEndian.Uint32(b), Epoch: binary.BigEndian.Uint64(b[4:])}
	count := binary.BigEndian.Uint32(b[12:])
	b = b[16:]
	// Each record is at least replRecHdr bytes, so a hostile count cannot
	// make us allocate more records than the body could hold.
	if uint64(count)*replRecHdr > uint64(len(b)) {
		return ReplBatch{}, fmt.Errorf("%w: batch count %d exceeds body", ErrShortFrame, count)
	}
	bt.Recs = make([]ReplRec, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(b) < replRecHdr {
			return ReplBatch{}, fmt.Errorf("%w: batch record %d", ErrShortFrame, i)
		}
		r := ReplRec{
			Kind: b[0],
			LSN:  binary.BigEndian.Uint64(b[1:]),
			Tx:   binary.BigEndian.Uint64(b[9:]),
			PID:  binary.BigEndian.Uint64(b[17:]),
			Off:  binary.BigEndian.Uint32(b[25:]),
		}
		na := binary.BigEndian.Uint32(b[29:])
		b = b[replRecHdr:]
		if uint64(na) > uint64(len(b)) {
			return ReplBatch{}, fmt.Errorf("%w: batch record %d image", ErrShortFrame, i)
		}
		r.After = b[:na:na]
		b = b[na:]
		bt.Recs = append(bt.Recs, r)
	}
	if len(b) != 0 {
		return ReplBatch{}, fmt.Errorf("%w: %d trailing bytes after batch records", ErrShortFrame, len(b))
	}
	return bt, nil
}

// AppendReplSnap appends the encoded body of s to dst.
func AppendReplSnap(dst []byte, s ReplSnap) []byte {
	dst = binary.BigEndian.AppendUint32(dst, s.Shard)
	dst = binary.BigEndian.AppendUint64(dst, s.Epoch)
	if s.Final {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = binary.BigEndian.AppendUint64(dst, s.SnapLSN)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(s.Rows)))
	for _, r := range s.Rows {
		dst = binary.BigEndian.AppendUint64(dst, r.Table)
		dst = binary.BigEndian.AppendUint64(dst, r.Key)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(r.Value)))
		dst = append(dst, r.Value...)
	}
	return dst
}

// DecodeReplSnap decodes a RespReplSnap body. Row values alias b.
func DecodeReplSnap(b []byte) (ReplSnap, error) {
	if len(b) < 25 {
		return ReplSnap{}, fmt.Errorf("%w: snapshot body %d bytes", ErrShortFrame, len(b))
	}
	if b[12] > 1 {
		return ReplSnap{}, fmt.Errorf("%w: snapshot final flag %#x", ErrShortFrame, b[12])
	}
	s := ReplSnap{
		Shard:   binary.BigEndian.Uint32(b),
		Epoch:   binary.BigEndian.Uint64(b[4:]),
		Final:   b[12] != 0,
		SnapLSN: binary.BigEndian.Uint64(b[13:]),
	}
	count := binary.BigEndian.Uint32(b[21:])
	b = b[25:]
	if uint64(count)*snapRowHdr > uint64(len(b)) {
		return ReplSnap{}, fmt.Errorf("%w: snapshot count %d exceeds body", ErrShortFrame, count)
	}
	s.Rows = make([]SnapRow, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(b) < snapRowHdr {
			return ReplSnap{}, fmt.Errorf("%w: snapshot row %d", ErrShortFrame, i)
		}
		r := SnapRow{Table: binary.BigEndian.Uint64(b), Key: binary.BigEndian.Uint64(b[8:])}
		vlen := binary.BigEndian.Uint32(b[16:])
		b = b[snapRowHdr:]
		if uint64(vlen) > uint64(len(b)) {
			return ReplSnap{}, fmt.Errorf("%w: snapshot row %d value", ErrShortFrame, i)
		}
		r.Value = b[:vlen:vlen]
		b = b[vlen:]
		s.Rows = append(s.Rows, r)
	}
	if len(b) != 0 {
		return ReplSnap{}, fmt.Errorf("%w: %d trailing bytes after snapshot rows", ErrShortFrame, len(b))
	}
	return s, nil
}
