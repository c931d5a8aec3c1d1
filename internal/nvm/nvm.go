// Package nvm simulates a byte-addressable non-volatile memory device.
//
// The device stands in for the Intel Crystal Ridge Software Emulation
// Platform used by the paper "Managing Non-Volatile Memory in Database
// Systems" (SIGMOD 2018). It models exactly the properties the paper's
// experiments depend on:
//
//   - configurable read latency (the paper sweeps 165 ns to 1800 ns),
//   - asymmetric write latency,
//   - cache-line (64 B) access granularity with a bandwidth term for
//     contiguous transfers,
//   - explicit persistence via Flush, mirroring clwb+sfence: data written
//     with WriteAt is visible but not durable until flushed,
//   - per-cache-line write (wear) counters for the endurance experiment,
//   - an optional CPU last-level cache simulation, so that systems working
//     directly on NVM benefit from cache hits on hot lines exactly as the
//     paper's NVM Direct engine benefits from the real L3.
//
// Latency is not slept away; it is charged to a simclock.Clock so that
// experiments are deterministic and fast (see internal/simclock).
//
// The device is not safe for concurrent use; the reproduced engines are
// single-threaded, matching the paper's evaluation setup.
package nvm

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"nvmstore/internal/fault"
	"nvmstore/internal/obs"
	"nvmstore/internal/offheap"
	"nvmstore/internal/simclock"
)

// LineSize is the cache-line granularity of the device in bytes.
const LineSize = 64

// HostPage is the page size of the host's virtual memory: the unit in
// which the medium's memory becomes resident (see WriteAt) and is released
// (see Release).
const HostPage = 4096

// zeroPage is the host page of zeros WriteAt compares with.
var zeroPage [HostPage]byte

// Config describes the geometry and timing of a simulated NVM device.
type Config struct {
	// Size is the capacity of the device in bytes. It is rounded up to a
	// multiple of LineSize.
	Size int64

	// ReadLatency is charged once per contiguous read that misses the
	// simulated CPU cache. The paper's default is 500 ns.
	ReadLatency time.Duration

	// WriteLatency is charged once per contiguous flush. NVM writes are
	// more expensive than reads; the paper calls the latency asymmetric.
	WriteLatency time.Duration

	// LineTransfer is the bandwidth term: each additional contiguous line
	// in a read or flush costs this much on top of the base latency. The
	// default of 30 ns per 64 B line (~2.1 GB/s) makes a full 16 kB page
	// load cost about 16 single-line reads, matching the benefit the
	// paper measures for cache-line-grained loading.
	LineTransfer time.Duration

	// CPUCacheBytes is the size of the simulated last-level CPU cache
	// sitting in front of the device, cacheWays-way set associative.
	// Reads that hit this cache are free. Zero disables the cache
	// simulation.
	CPUCacheBytes int64

	// StrictPersistence enables crash simulation: WriteAt records the
	// previous content of each written line, and Crash reverts every line
	// that has not been flushed since. This is the adversarial
	// interpretation of the paper's observation that an unflushed store
	// may or may not have reached NVM.
	StrictPersistence bool
}

// DefaultConfig returns the device configuration used throughout the
// reproduction unless an experiment overrides it: the paper's default
// 500 ns NVM latency with a 20 MB, 8-way L3 in front.
func DefaultConfig(size int64) Config {
	return Config{
		Size:          size,
		ReadLatency:   500 * time.Nanosecond,
		WriteLatency:  500 * time.Nanosecond,
		LineTransfer:  30 * time.Nanosecond,
		CPUCacheBytes: 20 << 20,
	}
}

// Stats counts device traffic since the last call to ResetStats.
type Stats struct {
	// LinesRead is the number of cache lines requested by reads,
	// including those served by the simulated CPU cache.
	LinesRead int64
	// LinesReadCharged is the number of lines that actually paid NVM
	// read latency (CPU-cache misses).
	LinesReadCharged int64
	// ReadOps is the number of read requests: ReadAt and Touch calls.
	ReadOps int64
	// ReadOpsCharged is the number of read requests that paid NVM read
	// latency: those with at least one line missing the CPU cache.
	ReadOpsCharged int64
	// LinesFlushed is the number of cache lines made durable by Flush.
	LinesFlushed int64
	// FlushOps is the number of Flush calls.
	FlushOps int64
	// LinesWritten is the number of cache lines stored by WriteAt.
	LinesWritten int64
}

// Device is a simulated NVM DIMM.
type Device struct {
	cfg Config
	clk *simclock.Clock
	// data is the medium and wear the per-line write counters, both
	// allocations of arena, as are the CPU cache's tags: off the Go heap,
	// and unmapped once the device (its arena's one holder) is
	// unreachable. A method whose last use of d touches data ends in
	// runtime.KeepAlive(d), so the unmap cannot overtake the access.
	arena *offheap.Arena
	data  []byte
	wear  []uint32
	// wearTotal is the running sum of wear, kept so TotalWrites need not
	// walk the array.
	wearTotal int64
	stats     Stats
	cache     *cpuCache

	// pending maps each line written since its last flush to the slot of
	// prev holding the line's previous durable content, only in strict
	// persistence mode. Flush returns a line's slot to prevFree and
	// WriteAt reuses it, so a written line allocates nothing of its own.
	pending  map[int64]int32
	prev     []byte
	prevFree []int32

	// faults, when non-nil, is consulted on every Flush for scheduled
	// torn flushes, clean crashes, and stalls (see SetFaults).
	faults *fault.Injector

	rec *obs.Collector
	// zeroReads batches fully CPU-cached ReadAt/Touch calls — the hot
	// case — so they cost a plain increment instead of an atomic; see
	// recordRead and SyncObs.
	zeroReads int64
}

// SetRecorder installs an observability collector. Every ReadAt/Touch
// records its charged latency as obs.OpNVMRead (zero on CPU-cache hits)
// and every Flush as obs.OpNVMFlush. A nil collector (the default)
// disables recording.
func (d *Device) SetRecorder(r *obs.Collector) { d.rec = r }

// recordRead records one read's charged latency. Callers hold the
// d.rec != nil guard.
func (d *Device) recordRead(ns int64) {
	if ns > 0 {
		d.rec.Latency(obs.OpNVMRead, ns)
		return
	}
	d.zeroReads++
	if d.zeroReads >= obs.ZeroFlush {
		d.rec.LatencyZeros(obs.OpNVMRead, d.zeroReads)
		d.zeroReads = 0
	}
}

// SyncObs flushes the batched zero-cost read count into the recorder.
// Call only while the device's owning engine is idle.
func (d *Device) SyncObs() {
	if d.rec != nil && d.zeroReads > 0 {
		d.rec.LatencyZeros(obs.OpNVMRead, d.zeroReads)
		d.zeroReads = 0
	}
}

// New creates a device with the given configuration, charging all device
// time to clk. It panics if cfg.Size is not positive, if clk is nil, or if
// the CPU cache is enabled on a device of 2³² lines or more (its tags are
// 32-bit), since each indicates a programming error rather than a runtime
// condition.
func New(cfg Config, clk *simclock.Clock) *Device {
	if cfg.Size <= 0 {
		panic("nvm: non-positive device size")
	}
	if clk == nil {
		panic("nvm: nil clock")
	}
	lines := (cfg.Size + LineSize - 1) / LineSize
	cfg.Size = lines * LineSize
	if cfg.CPUCacheBytes > 0 && lines > math.MaxUint32 {
		panic(fmt.Sprintf("nvm: a CPU cache over %d lines, more than its 32-bit tags address", lines))
	}
	arena := offheap.New()
	d := &Device{
		cfg:   cfg,
		clk:   clk,
		arena: arena,
		data:  arena.Alloc(int(cfg.Size)),
		wear:  offheap.Uint32s(arena, int(lines)),
	}
	if cfg.CPUCacheBytes > 0 {
		d.cache = newCPUCache(arena, cfg.CPUCacheBytes)
	}
	if cfg.StrictPersistence {
		d.pending = make(map[int64]int32)
	}
	return d
}

// Size returns the device capacity in bytes.
func (d *Device) Size() int64 { return d.cfg.Size }

// Lines returns the number of cache lines on the device.
func (d *Device) Lines() int64 { return int64(len(d.wear)) }

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// SetReadLatency changes the read latency, supporting the paper's NVM
// latency sweep (Figure 12) without rebuilding the device.
func (d *Device) SetReadLatency(l time.Duration) { d.cfg.ReadLatency = l }

// SetWriteLatency changes the write latency.
func (d *Device) SetWriteLatency(l time.Duration) { d.cfg.WriteLatency = l }

func (d *Device) checkRange(off int64, n int) {
	if off < 0 || n < 0 || off+int64(n) > d.cfg.Size {
		panic(fmt.Sprintf("nvm: access [%d, %d) outside device of size %d", off, off+int64(n), d.cfg.Size))
	}
}

// lineRange returns the first line index and number of lines covering
// [off, off+n).
func lineRange(off int64, n int) (first, count int64) {
	if n == 0 {
		return off / LineSize, 0
	}
	first = off / LineSize
	last := (off + int64(n) - 1) / LineSize
	return first, last - first + 1
}

// ReadAt copies len(p) bytes starting at off into p, charging read latency
// for the cache lines that miss the simulated CPU cache.
func (d *Device) ReadAt(p []byte, off int64) {
	d.Touch(off, len(p))
	copy(p, d.data[off:off+int64(len(p))])
	runtime.KeepAlive(d)
}

// Touch charges a read of [off, off+n) without copying any data: ReadAt
// is Touch and then the copy. Alone it serves engines that access the
// device zero-copy through View, such as the NVM Direct engine working in
// place.
func (d *Device) Touch(off int64, n int) {
	d.checkRange(off, n)
	if n == 0 {
		return
	}
	first, count := lineRange(off, n)
	misses := d.missed(first, count)
	d.stats.ReadOps++
	d.stats.LinesRead += count
	d.stats.LinesReadCharged += misses
	var ns int64
	if misses > 0 {
		d.stats.ReadOpsCharged++
		ns = int64(d.cfg.ReadLatency) + (misses-1)*int64(d.cfg.LineTransfer)
		d.clk.AdvanceNs(ns)
	}
	if d.rec != nil {
		d.recordRead(ns)
	}
}

// missed runs the lines [first, first+count) through the CPU cache and
// returns how many of them missed it: all of them without a cache.
func (d *Device) missed(first, count int64) int64 {
	if d.cache == nil {
		return count
	}
	return d.cache.accessRange(first, count)
}

// View returns the device's backing memory for [off, off+n) without
// charging anything. Callers are responsible for charging reads via Touch
// and persisting mutations via Flush. Mutations made through a view bypass
// strict-persistence tracking: they behave like stores that the CPU evicted
// to NVM on its own, which the paper notes can happen at any time.
//
// A view is valid only while its device is reachable: the medium lives
// off the Go heap and is unmapped once the device is garbage, whatever
// views remain. The one holder of views, core's direct frame, is reached
// only through its Manager, which holds the device (CI gate "One media
// allocator; views stay in core").
func (d *Device) View(off int64, n int) []byte {
	d.checkRange(off, n)
	return d.data[off : off+int64(n)]
}

// WriteAt stores p at off. The store is immediately visible to ReadAt but
// not durable until the covered lines are flushed: in strict persistence
// mode a Crash reverts unflushed lines. WriteAt itself charges no device
// time; the cost of persisting is charged by Flush, mirroring how stores go
// to the CPU cache and clwb pays the NVM write.
//
// A whole host page of p that is all zeros, stored onto a host page of the
// medium that is all zeros, is not copied: the bytes are equal already. The
// medium is an anonymous mapping (internal/offheap), so a page never
// stored to reads as the kernel's shared zero page and is not resident;
// copying zeros onto it would make it so. This is what keeps the zero
// tails of partly filled pages out of the process's memory. Host pages are
// counted from the medium's start, which is a host-page boundary on a
// device of offheap.ChunkSize or more (a mapping of its own); on a smaller
// one the skip can only save less.
func (d *Device) WriteAt(p []byte, off int64) {
	d.checkRange(off, len(p))
	if len(p) == 0 {
		return
	}
	first, count := lineRange(off, len(p))
	d.stats.LinesWritten += count
	if d.pending != nil {
		for l := first; l < first+count; l++ {
			if _, ok := d.pending[l]; !ok {
				d.pending[l] = d.keepPrev(l)
			}
		}
	}
	d.missed(first, count) // write-allocate
	// Copy p in runs as long as possible: p[from:i] is yet to be copied.
	dst := d.data[off : off+int64(len(p))]
	from := 0
	for i := 0; i < len(p); {
		n := min(len(p)-i, HostPage-int((off+int64(i))%HostPage))
		if n == HostPage && bytes.Equal(p[i:i+n], zeroPage[:]) && bytes.Equal(dst[i:i+n], zeroPage[:]) {
			copy(dst[from:i], p[from:i])
			from = i + n
		}
		i += n
	}
	copy(dst[from:], p[from:])
	runtime.KeepAlive(d)
}

// Release hands the host pages of the medium that lie wholly inside
// [off, off+n) back to the host (offheap.Release): they read as zeros and
// are no longer resident until stored to again. The parts of the range
// that share a host page with bytes outside it keep their bytes; host
// pages are counted from the medium's start, as in WriteAt. Release is no
// device operation: it charges no time, counts no line, and leaves the
// wear counters and the CPU cache alone. The caller must need the bytes no
// more — the log releases what a truncation made stale. In strict
// persistence mode Release refuses, changing nothing, a range that holds
// a line written since its last flush: a crash would have to revert that
// line to content the release dropped.
func (d *Device) Release(off int64, n int) error {
	d.checkRange(off, n)
	first, count := lineRange(off, n)
	for l := range d.pending {
		if l >= first && l < first+count {
			return fmt.Errorf("nvm: release of [%d, %d) holds line %d, written and not flushed", off, off+int64(n), l)
		}
	}
	lo := (off + HostPage - 1) / HostPage * HostPage
	if hi := (off + int64(n)) / HostPage * HostPage; lo < hi {
		offheap.Release(d.data[lo:hi])
	}
	runtime.KeepAlive(d)
	return nil
}

// keepPrev copies line l's current content into a free slot of prev and
// returns the slot.
func (d *Device) keepPrev(l int64) int32 {
	line := d.data[l*LineSize : (l+1)*LineSize]
	if n := len(d.prevFree); n > 0 {
		i := d.prevFree[n-1]
		d.prevFree = d.prevFree[:n-1]
		copy(d.prev[int64(i)*LineSize:], line)
		return i
	}
	d.prev = append(d.prev, line...)
	return int32(len(d.prev)/LineSize - 1)
}

// settle marks line l durable: a Crash no longer reverts it.
func (d *Device) settle(l int64) {
	if i, ok := d.pending[l]; ok {
		delete(d.pending, l)
		d.prevFree = append(d.prevFree, i)
	}
}

// SetFaults installs a fault injector consulted on every Flush: a
// fault.NVMStall charges extra latency, a fault.NVMCrash panics with
// fault.Crash before persisting anything, and a fault.NVMTornFlush
// persists only a prefix of the flushed lines before crashing — the
// adversarial interleaving of per-line clwbs with a power failure that
// the paper's sfence ordering argument has to survive. A nil injector
// (the default) disables injection.
func (d *Device) SetFaults(in *fault.Injector) { d.faults = in }

// Flush makes the lines covering [off, off+n) durable, charging write
// latency and incrementing the wear counter of every flushed line. It
// models clwb of each line followed by an sfence: the lines stay valid in
// the simulated CPU cache.
func (d *Device) Flush(off int64, n int) {
	d.checkRange(off, n)
	if n == 0 {
		return
	}
	first, count := lineRange(off, n)
	if d.faults != nil {
		if st := d.faults.Check(fault.NVMStall); st.Fire {
			d.clk.AdvanceNs(st.StallNs)
		}
		if d.faults.Check(fault.NVMCrash).Fire {
			panic(fault.Crash{Kind: fault.NVMCrash, Site: "nvm.flush"})
		}
		if torn := d.faults.Check(fault.NVMTornFlush); torn.Fire {
			// The crash lands between two clwbs: a prefix of the lines
			// reaches the medium (they leave the strict-persistence
			// pending set and count as wear), the rest never persists.
			// Frac < 1 guarantees at least the last line is lost.
			durable := int64(torn.Frac * float64(count))
			for l := first; l < first+durable; l++ {
				d.wear[l]++
				if d.pending != nil {
					d.settle(l)
				}
			}
			d.wearTotal += durable
			d.stats.LinesFlushed += durable
			panic(fault.Crash{Kind: fault.NVMTornFlush, Site: "nvm.flush"})
		}
	}
	for l := first; l < first+count; l++ {
		d.wear[l]++
		if d.pending != nil {
			d.settle(l)
		}
	}
	d.wearTotal += count
	d.stats.FlushOps++
	d.stats.LinesFlushed += count
	ns := int64(d.cfg.WriteLatency) + (count-1)*int64(d.cfg.LineTransfer)
	d.clk.AdvanceNs(ns)
	if d.rec != nil {
		d.rec.Latency(obs.OpNVMFlush, ns)
	}
}

// Persist is shorthand for WriteAt followed by Flush of the same range: a
// store that is immediately made durable, as the paper's engines do for WAL
// entries and in-place tuple updates.
func (d *Device) Persist(p []byte, off int64) {
	d.WriteAt(p, off)
	d.Flush(off, len(p))
}

// Crash simulates a power failure. In strict persistence mode every line
// written since its last flush reverts to its last durable content. The
// simulated CPU cache is dropped either way (a real restart starts cold).
func (d *Device) Crash() {
	for l, i := range d.pending {
		copy(d.data[l*LineSize:(l+1)*LineSize], d.prev[int64(i)*LineSize:])
	}
	clear(d.pending)
	d.prev, d.prevFree = d.prev[:0], d.prevFree[:0]
	d.DropCPUCache()
}

// DropCPUCache empties the simulated CPU cache without touching data,
// modelling a clean restart where DRAM and caches are cold but NVM content
// survives.
func (d *Device) DropCPUCache() {
	if d.cache != nil {
		d.cache.reset()
	}
	runtime.KeepAlive(d)
}

// Wear returns the write count of cache line l.
func (d *Device) Wear(l int64) uint32 {
	w := d.wear[l]
	runtime.KeepAlive(d)
	return w
}

// WearCounts returns a copy of all per-line write counters.
func (d *Device) WearCounts() []uint32 {
	out := slices.Clone(d.wear)
	runtime.KeepAlive(d)
	return out
}

// TotalWrites returns the sum of all wear counters, i.e. the total number
// of cache-line writes the device has absorbed.
func (d *Device) TotalWrites() int64 { return d.wearTotal }

// ResetWear zeroes the wear counters.
func (d *Device) ResetWear() {
	clear(d.wear)
	d.wearTotal = 0
}

// Stats returns a snapshot of the traffic counters.
func (d *Device) Stats() Stats { return d.stats }

// ResetStats zeroes the traffic counters.
func (d *Device) ResetStats() { d.stats = Stats{} }

// cacheWays is the associativity of the simulated CPU cache.
const cacheWays = 8

// cpuCache is a set-associative cache over line indices with per-set LRU
// replacement. It only tracks presence, not content: content always lives
// in the device slab.
type cpuCache struct {
	sets int64
	// tags holds line indices + 1 (0 means empty), laid out per set in
	// LRU order: tags[set*cacheWays] is most recently used. They are
	// 32-bit, which New checks the device's line count against.
	tags []uint32
}

// newCPUCache returns a cache of the given size whose tags are carved
// from arena.
func newCPUCache(arena *offheap.Arena, bytes int64) *cpuCache {
	sets := max(bytes/LineSize/cacheWays, 1)
	return &cpuCache{sets: sets, tags: offheap.Uint32s(arena, int(sets)*cacheWays)}
}

// skewShift sets the skew of the set index: one set more per
// 1<<skewShift lines, the lines of a 16 KB page.
const skewShift = 8

// set returns the set line l maps to. The index is skewed by one set per
// 256 lines, so that 16 KB pages laid out back to back (core's page slots)
// spread over the sets as they would at a stride of 257 lines. A plain
// l % sets would put line i of every such page into the same sets/256
// sets (the default cache has a multiple of 256 sets), where the hot first
// lines of all pages evict each other. Consecutive lines still map to
// consecutive sets, but one at each 256-line boundary.
func (c *cpuCache) set(l int64) int64 { return (l + l>>skewShift) % c.sets }

// accessRange accesses the lines [first, first+count) in order and returns
// how many of them missed. Only the first line's set is divided out; each
// further line's set follows from its predecessor's.
func (c *cpuCache) accessRange(first, count int64) (misses int64) {
	set := c.set(first)
	for l := first; l < first+count; l++ {
		if l != first {
			set++
			if l&(1<<skewShift-1) == 0 {
				set++
			}
			for set >= c.sets {
				set -= c.sets
			}
		}
		if !c.access(l, set) {
			misses++
		}
	}
	return misses
}

// access looks up line l in its set, inserting it if absent, and reports
// whether it was present (a hit).
func (c *cpuCache) access(l, set int64) bool {
	base := set * cacheWays
	tag := uint32(l + 1)
	ways := c.tags[base : base+cacheWays]
	for i, t := range ways {
		if t == tag {
			// Move to front (most recently used).
			copy(ways[1:i+1], ways[:i])
			ways[0] = tag
			return true
		}
	}
	// Miss: insert at front, evicting the LRU way.
	copy(ways[1:], ways[:len(ways)-1])
	ways[0] = tag
	return false
}

func (c *cpuCache) reset() { clear(c.tags) }
