// Package ycsb implements the YCSB key-value benchmark as configured in
// the paper's evaluation (§5.2): a single table whose rows have a numeric
// primary key and ten string fields of 100 bytes each, accessed with
// Zipf-distributed keys (z = 1, non-clustered popular keys) and uniformly
// chosen fields.
//
// Three workloads generalize YCSB's predefined mixes exactly as the paper
// does:
//
//   - YCSB-RO: 100% point lookups (YCSB workload C),
//   - YCSB-R/W: x% field updates, (100-x)% lookups (mixing A and C),
//   - YCSB-SCAN: 100% range scans of random length 1-100 (workload E
//     without inserts).
//
// Every operation runs as one transaction against an engine, matching the
// paper's OLTP-style single-operation transactions.
package ycsb

import (
	"fmt"

	"nvmstore/internal/btree"
	"nvmstore/internal/engine"
	"nvmstore/internal/shard"
	"nvmstore/internal/zipfian"
)

// Schema constants from the YCSB specification.
const (
	// Fields is the number of string fields per row.
	Fields = 10
	// FieldSize is the size of each field in bytes.
	FieldSize = 100
	// RowSize is the payload size of one row.
	RowSize = Fields * FieldSize
	// TableID is the tree id of the YCSB table.
	TableID = 1
)

// RowsForDataSize returns how many rows fit in the given data size with a
// few percent of headroom for inner pages, so that a data set sized to a
// device capacity actually fits on it. Loaded at the paper's 0.66 fill
// factor a row takes 1645 bytes (ten rows per 16 kB leaf page plus its
// slot header), which the paper calls the data size.
func RowsForDataSize(bytes int64) int {
	return int(bytes / 1700)
}

// DefaultSeed is the base seed of the YCSB random streams. Sharded
// workers derive their per-shard seed from it (shard.SeedFor), so runs
// are reproducible at any thread count.
const DefaultSeed = 0x5943534221

// Partition names one shard of a hash-partitioned key space, the
// shard-per-core model of the paper's Appendix A.1. The zero value is the
// unpartitioned (single-threaded) workload.
type Partition struct {
	// Shards is the total shard count; 0 or 1 means unpartitioned.
	Shards int
	// Index is this shard in [0, Shards).
	Index int
}

// Owns reports whether the partition owns key.
func (p Partition) Owns(key uint64) bool {
	return p.Shards <= 1 || shard.Of(key, p.Shards) == p.Index
}

// KeyStream is the deterministic random stream of one YCSB worker: a
// scrambled-Zipf key sequence restricted to the worker's partition, plus
// the uniform draws for field choices and workload mixes. Two streams
// with the same (n, seed, partition) produce identical sequences. Not
// safe for concurrent use — one stream per shard worker.
type KeyStream struct {
	gen  *zipfian.Generator
	part Partition
	// owned, for a partitioned stream, lists the shard's keys in global
	// popularity order, so one Zipf draw over len(owned) ranks yields the
	// global distribution restricted to this shard — without paying for
	// rejection sampling on every operation.
	owned []uint64
}

// NewKeyStream creates a stream over the global key space [0, n) seeded
// from (seed, partition index). An unpartitioned stream uses the base
// seed directly, so a 1-shard run draws exactly the single-threaded
// sequence.
func NewKeyStream(n uint64, seed uint64, p Partition) *KeyStream {
	if p.Shards <= 1 {
		return &KeyStream{gen: zipfian.New(n, seed), part: p}
	}
	owned := make([]uint64, 0, int(n)/p.Shards+16)
	for r := uint64(0); r < n; r++ {
		if k := zipfian.KeyAt(r, n); p.Owns(k) {
			owned = append(owned, k)
		}
	}
	if len(owned) == 0 {
		panic(fmt.Sprintf("ycsb: shard %d/%d owns no keys of %d", p.Index, p.Shards, n))
	}
	return &KeyStream{
		gen:   zipfian.New(uint64(len(owned)), shard.SeedFor(seed, p.Index)),
		part:  p,
		owned: owned,
	}
}

// Next returns the next Zipf-distributed key owned by the partition. A
// shard draws a Zipf rank over its own keys ordered by global popularity,
// which keeps each shard's access skew equal to the global distribution
// restricted to the keys it owns.
func (s *KeyStream) Next() uint64 {
	if s.owned != nil {
		return s.owned[s.gen.Next()]
	}
	return s.gen.NextScrambled()
}

// Uniform returns a uniform value in [0, m).
func (s *KeyStream) Uniform(m uint64) uint64 { return s.gen.Uint64n(m) }

// Workload drives YCSB operations against one engine.
type Workload struct {
	e     *engine.Engine
	table *btree.Tree
	n     uint64
	part  Partition
	seed  uint64
	keys  *KeyStream
	buf   []byte

	zipfLatest *latestDist

	// Ops counts completed operations.
	Ops int64
}

// Load creates the YCSB table in e and bulk-loads, at the B-tree fill
// factor fill, the rows of the global key space [0, n) that partition p
// owns: all of them for the zero Partition, one shard's for the Appendix
// A.1 shard-per-core layout. The paper loads at a fill factor of 0.66,
// its scan overhead experiment (§5.4.2) at 1.0. Row i has key i; field f
// of row i holds a deterministic pattern. The workload's key stream
// starts from DefaultSeed (a shard's from shard.SeedFor(DefaultSeed,
// p.Index)) and only ever draws owned keys.
func Load(e *engine.Engine, n int, layout btree.LeafLayout, fill float64, p Partition) (*Workload, error) {
	t, err := e.CreateTree(TableID, RowSize, layout)
	if err != nil {
		return nil, err
	}
	shards := max(p.Shards, 1)
	owned := make([]uint64, 0, n/shards+n/(8*shards)+16)
	for k := uint64(0); k < uint64(n); k++ {
		if p.Owns(k) {
			owned = append(owned, k)
		}
	}
	row := make([]byte, RowSize)
	err = t.BulkLoad(len(owned),
		func(i int) uint64 { return owned[i] },
		func(i int, dst []byte) {
			FillRow(owned[i], row)
			copy(dst, row)
		},
		fill)
	if err != nil {
		return nil, fmt.Errorf("ycsb: bulk load: %w", err)
	}
	if err := e.Checkpoint(); err != nil {
		return nil, err
	}
	return &Workload{
		e:     e,
		table: t,
		n:     uint64(n),
		part:  p,
		seed:  DefaultSeed,
		keys:  NewKeyStream(uint64(n), DefaultSeed, p),
		buf:   make([]byte, RowSize),
	}, nil
}

// Reseed rebuilds the workload's random streams from a new base seed
// (a partitioned workload still derives its per-shard seed from it via
// shard.SeedFor, exactly like the default). Runs with different seeds
// draw different — but individually reproducible — key sequences; the
// bench harness threads its -seed flag through here.
func (w *Workload) Reseed(seed uint64) {
	w.seed = seed
	w.keys = NewKeyStream(w.n, seed, w.part)
	w.zipfLatest = nil
}

// FillRow writes row key's deterministic content into dst (RowSize bytes).
func FillRow(key uint64, dst []byte) {
	for f := 0; f < Fields; f++ {
		FillField(key, f, dst[f*FieldSize:(f+1)*FieldSize])
	}
}

// FillField writes the deterministic content of one field.
func FillField(key uint64, field int, dst []byte) {
	seed := key*Fields + uint64(field)
	for i := range dst {
		dst[i] = byte(seed>>uint(8*(i%4))) + byte(i)
	}
}

// Table returns the YCSB table tree.
func (w *Workload) Table() *btree.Tree { return w.table }

// gen returns the worker's key stream, rebuilding it when inserts grew
// the key space.
func (w *Workload) gen() *KeyStream {
	if w.keys == nil {
		w.keys = NewKeyStream(w.n, w.seed, w.part)
	}
	return w.keys
}

// Lookup runs one YCSB-RO transaction: read one uniformly chosen field of
// one Zipf-chosen row.
func (w *Workload) Lookup() error {
	key := w.gen().Next()
	field := int(w.gen().Uniform(Fields))
	w.e.Begin()
	found, err := w.table.LookupField(key, field*FieldSize, FieldSize, w.buf)
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("ycsb: key %d missing", key)
	}
	if err := w.e.Commit(); err != nil {
		return err
	}
	w.Ops++
	return nil
}

// Update runs one update transaction: overwrite one uniformly chosen
// field of one Zipf-chosen row.
func (w *Workload) Update() error {
	key := w.gen().Next()
	field := int(w.gen().Uniform(Fields))
	// New field content varies with the op counter so updates are not
	// no-ops.
	FillField(key+uint64(w.Ops), field, w.buf[:FieldSize])
	w.e.Begin()
	found, err := w.table.UpdateField(key, field*FieldSize, w.buf[:FieldSize])
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("ycsb: key %d missing", key)
	}
	if err := w.e.Commit(); err != nil {
		return err
	}
	w.Ops++
	return nil
}

// Scan runs one YCSB-SCAN transaction: from a Zipf-chosen start key, read
// one uniformly chosen field of each of 1-100 consecutive rows.
func (w *Workload) Scan() error {
	key := w.gen().Next()
	length := int(w.gen().Uniform(100)) + 1
	field := int(w.gen().Uniform(Fields))
	w.e.Begin()
	err := w.table.Scan(key, length, field*FieldSize, FieldSize, func(k uint64, fieldBytes []byte) bool {
		return true
	})
	if err != nil {
		return err
	}
	if err := w.e.Commit(); err != nil {
		return err
	}
	w.Ops++
	return nil
}

// ScanRange runs one scan transaction with a fixed range length, as used
// by the overhead analysis of §5.4.2.
func (w *Workload) ScanRange(length int) error {
	key := w.gen().Next()
	field := int(w.gen().Uniform(Fields))
	w.e.Begin()
	err := w.table.Scan(key, length, field*FieldSize, FieldSize, func(uint64, []byte) bool {
		return true
	})
	if err != nil {
		return err
	}
	if err := w.e.Commit(); err != nil {
		return err
	}
	w.Ops++
	return nil
}

// FullScan reads every row's first field once (a full table scan).
func (w *Workload) FullScan() error {
	w.e.Begin()
	if err := w.table.Scan(0, 0, 0, FieldSize, func(uint64, []byte) bool {
		return true
	}); err != nil {
		return err
	}
	if err := w.e.Commit(); err != nil {
		return err
	}
	w.Ops++
	return nil
}

// Mixed runs one YCSB-R/W transaction: an update with probability
// writePct/100, otherwise a lookup.
func (w *Workload) Mixed(writePct int) error {
	if int(w.gen().Uniform(100)) < writePct {
		return w.Update()
	}
	return w.Lookup()
}

// Insert adds a new row past the current end of the key space (YCSB's
// ordered insert, used by workloads D and E). Not supported on a
// partitioned workload: the appended key belongs to an arbitrary shard.
func (w *Workload) Insert() error {
	if w.part.Shards > 1 {
		return fmt.Errorf("ycsb: Insert on a partitioned workload (shard %d/%d)", w.part.Index, w.part.Shards)
	}
	key := w.n
	FillRow(key, w.buf)
	w.e.Begin()
	if err := w.table.Insert(key, w.buf); err != nil {
		return err
	}
	if err := w.e.Commit(); err != nil {
		return err
	}
	w.n = key + 1
	w.keys = nil // key-space size changed: rebuild lazily
	w.Ops++
	return nil
}

// latest returns a key skewed toward the most recently inserted rows,
// YCSB's "latest" distribution.
func (w *Workload) latest() uint64 {
	if w.zipfLatest == nil || w.zipfLatest.n != w.n {
		w.zipfLatest = &latestDist{n: w.n, gen: zipfian.New(w.n, 0x1A7E57)}
	}
	return w.n - 1 - w.zipfLatest.gen.Next()
}

// latestDist caches a Zipf generator over the current key-space size.
type latestDist struct {
	n   uint64
	gen *zipfian.Generator
}

// ReadLatest looks up one field of a recently inserted row. Like Insert,
// it is only supported on unpartitioned workloads.
func (w *Workload) ReadLatest() error {
	if w.part.Shards > 1 {
		return fmt.Errorf("ycsb: ReadLatest on a partitioned workload (shard %d/%d)", w.part.Index, w.part.Shards)
	}
	key := w.latest()
	field := int(key % Fields)
	w.e.Begin()
	found, err := w.table.LookupField(key, field*FieldSize, FieldSize, w.buf)
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("ycsb: latest key %d missing", key)
	}
	if err := w.e.Commit(); err != nil {
		return err
	}
	w.Ops++
	return nil
}

// Preset identifies one of YCSB's five standard workload mixes. The
// paper's YCSB-RO, YCSB-R/W, and YCSB-SCAN generalize these (§5.2).
type Preset byte

// The standard presets.
const (
	PresetA Preset = 'A' // 50% update, 50% read
	PresetB Preset = 'B' // 5% update, 95% read
	PresetC Preset = 'C' // 100% read (the paper's YCSB-RO)
	PresetD Preset = 'D' // 5% insert, 95% read-latest
	PresetE Preset = 'E' // 5% insert, 95% scan
)

// Run executes one transaction of the given standard workload.
func (w *Workload) Run(p Preset) error {
	r := int(w.gen().Uniform(100))
	switch p {
	case PresetA:
		return w.Mixed(50)
	case PresetB:
		return w.Mixed(5)
	case PresetC:
		return w.Lookup()
	case PresetD:
		if r < 5 {
			return w.Insert()
		}
		return w.ReadLatest()
	case PresetE:
		if r < 5 {
			return w.Insert()
		}
		return w.Scan()
	default:
		return fmt.Errorf("ycsb: unknown preset %q", p)
	}
}
