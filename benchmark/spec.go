package main

import (
	"encoding/binary"
	"math"
)

// Schema shared by every workload: YCSB's ten 100-byte fields.
const (
	tableID   = 1
	fieldSize = 100
	numFields = 10
	rowSize   = fieldSize * numFields
)

// spec is one workload: the store it runs on, the traffic it sends, and
// how much of it is measured. Every store is ThreeTier with sorted
// leaves; nothing here is tunable from the command line, so two runs of
// one commit always measure the same thing.
type spec struct {
	name string
	why  string

	// wire workloads drive an in-process server over 127.0.0.1 through
	// internal/client; embedded ones call Store/Table directly.
	wire   bool
	shards int

	rows           int
	dram, nvm, ssd int64

	theta   float64 // scrambled-Zipf skew; 0 means uniform keys
	putPct  int     // share of PUT / UpdateField operations
	scanPct int     // share of 50-row SCANs (wire only)

	warmOps int // unmeasured operations that fill the caches

	// A measured round is one throughput segment of segOps operations and,
	// on wire workloads, latSegs latency segments of latSegOps. A segment
	// is the unit the quiet filter (metrics.go) keeps or drops, so it
	// lasts tens of milliseconds. With -seconds rounds repeat until the
	// time is used; without it fixedSegs of them run, so that counters are
	// comparable across commits.
	segOps             int
	latSegOps, latSegs int
	fixedSegs          int

	ladderOps int // operations per ladder loop in fixed-count mode
}

const scanLen = 50

// Sizes keep the paper's DRAM:NVM:SSD = 2:10:50 shape where they can.
// The embedded stores are smaller than the wire one so that three
// set-ups, the measured phase and the verify pass fit one run.
var specs = []*spec{
	{
		name: "wire_read",
		why:  "95% GET over loopback on DRAM-resident data: wire, client, server and sharded do the work, core and ssd none",
		wire: true, shards: 2,
		rows: 30_000, dram: 128 << 20, nvm: 320 << 20, ssd: 1600 << 20,
		theta: 0.99, putPct: 5,
		warmOps: 32_000,
		segOps:  4_000, latSegOps: 1_000, latSegs: 2, fixedSegs: 125,
		ladderOps: 4_000,
	},
	{
		name: "wire_write",
		why:  "50% PUT through the same server: wal, group commit and the background maintainer carry the difference to wire_read",
		wire: true, shards: 2,
		rows: 30_000, dram: 128 << 20, nvm: 320 << 20, ssd: 1600 << 20,
		theta: 0.99, putPct: 50,
		warmOps: 32_000,
		segOps:  4_000, latSegOps: 1_000, latSegs: 2, fixedSegs: 125,
		ladderOps: 4_000,
	},
	{
		name: "wire_scan",
		why:  "95% 50-row SCAN: the only workload on the snapshot-scan path and its 50 KB responses",
		wire: true, shards: 2,
		rows: 30_000, dram: 128 << 20, nvm: 320 << 20, ssd: 1600 << 20,
		theta: 0.99, putPct: 5, scanPct: 95,
		warmOps: 2_000,
		segOps:  200, latSegOps: 200, latSegs: 2, fixedSegs: 80,
		ladderOps: 4_000,
	},
	{
		name: "embedded_nvm",
		why:  "uniform keys on data 6x DRAM that fits NVM, no network: engine, btree and core (mini pages, line loads, DRAM eviction) do the work",
		rows: 100_000, dram: 16 << 20, nvm: 160 << 20, ssd: 800 << 20,
		putPct:  5,
		warmOps: 400_000,
		segOps:  20_000, fixedSegs: 200,
		ladderOps: 50_000,
	},
	{
		name: "embedded_ssd",
		why:  "Zipf 50% updates on data 3x NVM: simulated SSD time, NVM admission and checkpoint write-back decide the result, host code does not",
		rows: 150_000, dram: 8 << 20, nvm: 48 << 20, ssd: 800 << 20,
		theta: 0.99, putPct: 50,
		warmOps: 250_000,
		segOps:  10_000, fixedSegs: 200,
		ladderOps: 20_000,
	},
}

func findSpec(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// Operation kinds. kindNames index by kind.
const (
	opGet = iota
	opPut
	opScan
	numKinds
)

var kindNames = [numKinds]string{"get", "put", "scan"}

// op is one generated operation. field is used by embedded workloads
// only; the wire protocol addresses whole rows and PUT overwrites the
// row's first field.
type op struct {
	key   uint64
	id    uint32 // position in its stream
	kind  uint8
	field uint8
}

// rng is SplitMix64. The benchmark owns its generators so that a change
// to the repository's own workload packages cannot change the inputs.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func mix64(x uint64) uint64 {
	r := rng{x}
	return r.next()
}

// zipfParams holds the constants of Gray et al.'s Zipf generator for one
// key-space size; they are computed once per workload and shared by all
// of its streams.
type zipfParams struct {
	n                  uint64
	theta, alpha, eta  float64
	zetan, secondBound float64
}

func newZipf(n uint64, theta float64) *zipfParams {
	zeta := func(m uint64) float64 {
		sum := 0.0
		for i := uint64(1); i <= m; i++ {
			sum += 1 / math.Pow(float64(i), theta)
		}
		return sum
	}
	zetan := zeta(n)
	return &zipfParams{
		n: n, theta: theta, alpha: 1 / (1 - theta), zetan: zetan,
		eta:         (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/zetan),
		secondBound: 1 + math.Pow(0.5, theta),
	}
}

func (z *zipfParams) rank(u float64) uint64 {
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.secondBound {
		return 1
	}
	r := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if r >= z.n {
		r = z.n - 1
	}
	return r
}

// stream is a deterministic operation generator: the same (workload,
// seed, tag) always yields the same operations.
type stream struct {
	sp *spec
	z  *zipfParams
	r  rng
	n  uint32
}

// Stream tags. Each consumer of a workload's operations draws from its
// own stream, so adding a phase does not shift another phase's inputs.
const (
	tagWarm   = 1
	tagTput   = 2 // + worker index
	tagLat    = 10
	tagLadder = 11 // + operation kind
	tagVerify = 20
)

func (sp *spec) newStream(z *zipfParams, seed uint64, tag uint64) *stream {
	return &stream{sp: sp, z: z, r: rng{mix64(seed) ^ mix64(tag*0x9e3779b97f4a7c15+uint64(len(sp.name)))}}
}

func (s *stream) next() op {
	o := op{id: s.n}
	s.n++
	if s.z != nil {
		u := float64(s.r.next()>>11) / (1 << 53)
		o.key = mix64(s.z.rank(u)) % s.z.n // popular ranks scattered over the key space
	} else {
		o.key = s.r.next() % uint64(s.sp.rows)
	}
	pct := int(s.r.next() % 100)
	switch {
	case pct < s.sp.putPct:
		o.kind = opPut
	case pct < s.sp.putPct+s.sp.scanPct:
		o.kind = opScan
	default:
		o.kind = opGet
	}
	o.field = uint8(s.r.next() % numFields)
	return o
}

// fill overwrites dst with the stream's next len(dst) operations. It
// runs outside every timed region: the program under test receives only
// the generated inputs.
func (s *stream) fill(dst []op) {
	for i := range dst {
		dst[i] = s.next()
	}
}

// fillKind is fill restricted to one operation kind, for the ladder's
// per-kind loops: keys and fields follow the workload's distribution.
func (s *stream) fillKind(dst []op, kind uint8) {
	for i := range dst {
		dst[i] = s.next()
		dst[i].kind = kind
	}
}

// A field is stamped with the key it belongs to and the version of the
// write that produced it, followed by bytes derived from both, so that
// a reader can tell a wrong, stale or torn value from a right one.
// Loaded rows carry version 0 in every field.
const stampSize = 16

func fillField(dst []byte, key uint64, field int, version uint64) {
	binary.LittleEndian.PutUint64(dst, key)
	binary.LittleEndian.PutUint64(dst[8:], version)
	x := key*31 + uint64(field)*7 + version*131
	i := stampSize
	for ; i+8 <= len(dst); i += 8 {
		x = x*6364136223846793005 + 1442695040888963407
		binary.LittleEndian.PutUint64(dst[i:], x)
	}
	for ; i < len(dst); i++ {
		x = x*6364136223846793005 + 1442695040888963407
		dst[i] = byte(x >> 56)
	}
}

func fillRow(dst []byte, key uint64) {
	for f := 0; f < numFields; f++ {
		fillField(dst[f*fieldSize:(f+1)*fieldSize], key, f, 0)
	}
}

// stampOK is the cheap check of the measured phases: the field belongs
// to the key that was asked for.
func stampOK(field []byte, key uint64) bool {
	return len(field) >= stampSize && binary.LittleEndian.Uint64(field) == key
}

// fieldVersion fully checks a field against the bytes fillField would
// have produced and returns the version it carries.
func fieldVersion(got []byte, key uint64, field int) (version uint64, ok bool) {
	if !stampOK(got, key) || len(got) < fieldSize {
		return 0, false
	}
	version = binary.LittleEndian.Uint64(got[8:])
	var want [fieldSize]byte
	fillField(want[:], key, field, version)
	return version, string(got[:fieldSize]) == string(want[:])
}
