// Package repl implements primary→replica log-shipping replication on
// top of the storage engine's write-ahead log (internal/wal) and the
// binary wire protocol (internal/wire).
//
// # Design
//
// The WAL is the single source of durable truth: every committed change
// exists as logical records (insert/delete/update keyed by table id)
// with strictly monotonic LSNs, and a transaction is durable exactly
// when the flush covering its commit record lands. Replication taps the
// log at that durability point — wal.Log.SetShip delivers records only
// after a successful flush — so a replica can never observe state the
// primary could still lose, and the serving layer's ack⇒durable
// contract extends across the network.
//
// The Source (primary side) keeps a bounded per-shard retention ring of
// shipped records and fans them out to per-replica Feeds with bounded
// queues (flow control: a replica that cannot keep up is dropped and
// rejoins via snapshot rather than wedging the primary). Shipped
// records live on in the Source's own memory, so replica progress never
// pins the primary's log: the retention watermark the Source installs
// on each shard's log only protects the unshipped gap — records
// appended but not yet handed to the ship tap — and the checkpoint path
// flushes (shipping everything durable) right before truncating, so
// truncation under replication proceeds exactly as without it.
//
// The Replica dials the primary, subscribes with its per-shard durable
// applied LSNs, and replays pushed batches inside its own transactions:
// records are buffered per primary transaction and applied atomically
// at the commit mark, together with a metadata row recording the
// applied LSN and epoch. Apply transactions log into the replica's own
// WAL, so replica crashes recover locally and resume shipping exactly
// once from the metadata row. A replica whose resume LSN the ring no
// longer covers bootstraps from a consistent per-shard snapshot taken
// under the shard lock (flush → attach tap → scan: no gap, no overlap).
//
// # Epochs and promotion
//
// Every primary has an epoch, carried in SUBSCRIBE/BATCH/ACK frames. An
// explicit PROMOTE to epoch e makes a replica writable at e and — sent
// to the old primary — fences it: a fenced primary rejects writes and
// read-your-writes barriers with a classified error so clients fail
// over to the new primary. Batches and acks from superseded epochs are
// discarded. LSN sequences are per primary lineage and never compared
// across epochs: a subscriber presenting an older epoch followed a
// different primary, so its resume vector is ignored and it bootstraps
// from a snapshot of the new lineage.
//
// # Staleness-bounded reads
//
// Replicas serve reads at a bounded staleness: clients read their
// per-shard LSN vector from the primary (OpReplLSNs) and block on the
// replica (OpReplWait) until its applied vector covers it —
// read-your-writes across the fleet.
package repl

import (
	"encoding/binary"

	"nvmstore"
	"nvmstore/internal/engine"
)

// MetaTable is the reserved table id holding a replica's replication
// position: one 16-byte row per shard at MetaKey — applied LSN and
// epoch, little-endian. It is written inside every apply transaction,
// so the position is exactly as durable as the applied data; snapshot
// streams and the ship tap both exclude it. Because of that exclusion,
// user data stored under this id would silently never replicate — the
// server rejects data operations on it, and nvmserver refuses to serve
// it as the -table id.
const MetaTable uint64 = 0x7265706c // "repl"

// MetaKey is the row key of the position row within MetaTable.
const MetaKey uint64 = 0

// metaRowSize is the payload size of the position row.
const metaRowSize = 16

// encodeMeta renders the position row.
func encodeMeta(applied, epoch uint64) []byte {
	row := make([]byte, metaRowSize)
	binary.LittleEndian.PutUint64(row, applied)
	binary.LittleEndian.PutUint64(row[8:], epoch)
	return row
}

// decodeMeta parses the position row.
func decodeMeta(row []byte) (applied, epoch uint64) {
	if len(row) < metaRowSize {
		return 0, 0
	}
	return binary.LittleEndian.Uint64(row), binary.LittleEndian.Uint64(row[8:])
}

// readMeta loads one shard's durable replication position, or zeros
// when the shard has none yet (fresh replica).
func readMeta(st *nvmstore.Store) (applied, epoch uint64) {
	tab := st.Table(MetaTable)
	if tab == nil {
		return 0, 0
	}
	buf := make([]byte, metaRowSize)
	ok, err := tab.Lookup(MetaKey, buf)
	if err != nil || !ok {
		return 0, 0
	}
	return decodeMeta(buf)
}

// writeMeta upserts one shard's replication position inside the running
// transaction.
func writeMeta(st *nvmstore.Store, applied, epoch uint64) error {
	tab := st.Table(MetaTable)
	if tab == nil {
		var err error
		tab, err = st.CreateTable(MetaTable, metaRowSize)
		if err != nil {
			return err
		}
	}
	return tab.Put(MetaKey, encodeMeta(applied, epoch))
}

// DurableLSNs returns a store's per-shard durability frontiers, each
// read under its shard's lock: every acknowledged write on shard i has
// its commit record at or below entry i. A primary answers LSNS with
// it, and a replica whose applied vector covers it has caught up.
func DurableLSNs(store *nvmstore.ShardedStore) []uint64 {
	lsns := make([]uint64, store.NumShards())
	for i := range lsns {
		_ = store.WithShard(i, func(st *nvmstore.Store) error {
			lsns[i] = uint64(engine.Of(st).Log().DurableLSN())
			return nil
		})
	}
	return lsns
}
