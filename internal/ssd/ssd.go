// Package ssd simulates a block-oriented flash device.
//
// The simulation captures the two properties of SSDs that matter to the
// storage architectures in the reproduced paper: access is page-granular
// (a single tuple cannot be read without transferring the whole page), and
// the per-access latency is orders of magnitude above NVM (hundreds of
// microseconds versus hundreds of nanoseconds).
//
// How the device holds a page in host memory is not part of what it
// simulates, so it keeps only what a read needs back: a written page is
// stored as its prefix up to the last non-zero byte, rounded up to a
// 1 KB grain, and a read copies that prefix and clears the rest of the
// caller's buffer. A B-tree leaf filled to the paper's 0.66 holds its rows
// at the front and zeros behind them, so it costs 10 KB of host memory,
// not 16. A slot that holds no page costs nothing, so a large configured
// capacity is free. The blocks are off the Go heap, carved from the
// device's internal/offheap arena in 1 MB chunks mapped as they fill.
//
// Trim tells the device that a slot's page is dead: the buffer manager
// trims a page once its NVM copy supersedes it. The slot then reads as
// zeros, and its block, like the block a page outgrows, waits on a free
// list for the next page that fits, so the device's memory follows the
// pages it holds rather than every page it was ever given.
//
// Latency is charged to a simclock.Clock rather than slept (see
// internal/simclock), the same per page whatever its prefix. The device is
// not safe for concurrent use.
package ssd

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"nvmstore/internal/fault"
	"nvmstore/internal/obs"
	"nvmstore/internal/offheap"
	"nvmstore/internal/simclock"
)

// Config describes a simulated SSD.
type Config struct {
	// PageSize is the transfer unit in bytes.
	PageSize int
	// Capacity is the maximum number of pages the device holds.
	Capacity int64
	// ReadLatency is charged per page read.
	ReadLatency time.Duration
	// WriteLatency is charged per page write.
	WriteLatency time.Duration
	// MaxRetries bounds how many times a faulted page access is retried
	// before the failure is treated as fatal.
	MaxRetries int
}

// retryBackoff is the simulated delay charged before the first retry of a
// faulted page access; it doubles per attempt.
const retryBackoff = 50 * time.Microsecond

// DefaultConfig returns the SSD configuration used by the reproduction: the
// paper quotes "hundreds of microseconds" per access; we use 100 µs reads
// and 200 µs writes, and retry a faulted access up to 4 times.
func DefaultConfig(pageSize int, capacity int64) Config {
	return Config{
		PageSize:     pageSize,
		Capacity:     capacity,
		ReadLatency:  100 * time.Microsecond,
		WriteLatency: 200 * time.Microsecond,
		MaxRetries:   4,
	}
}

// Stats counts device traffic since the last ResetStats.
type Stats struct {
	// PagesRead and PagesWritten count successful page transfers.
	PagesRead    int64
	PagesWritten int64
	// Faults counts injected I/O errors hit by page accesses.
	Faults int64
	// Retries counts retry attempts spent recovering from transient
	// faults (each charged a doubling backoff on the simulated clock).
	Retries int64
	// Stalls counts injected slow-I/O events.
	Stalls int64
}

// grain is the unit a stored prefix is rounded up to. A leaf holding
// 10 192 bytes of rows takes 10 KB at this grain and 12 KB in whole 4 KB
// sectors; a finer grain saves less than 1 KB a page.
const grain = 1 << 10

// zeros is what a page's trailing grains are compared against.
var zeros [grain]byte

// Device is a simulated SSD storing fixed-size pages addressed by slot
// number.
type Device struct {
	cfg Config
	clk *simclock.Clock
	// pages maps each slot that holds a page to its block: the page's
	// stored prefix, nil for an all-zero page. Blocks come from arena: off
	// the Go heap, and unmapped once the device (the arena's one holder)
	// is unreachable. A method whose last use of d touches a block ends in
	// runtime.KeepAlive(d), so the unmap cannot overtake the access.
	arena *offheap.Arena
	pages map[int64][]byte
	// free holds the blocks no page uses — trimmed, or outgrown — by
	// length in grains: free[i] are blocks of i grains, the last index
	// also those of a whole page that is not a multiple of the grain.
	free [][][]byte
	// stored counts the bytes of every block taken from the arena, in use
	// or free.
	stored int64
	stats  Stats
	rec    *obs.Collector
	faults *fault.Injector
}

// SetRecorder installs an observability collector: every ReadPage records
// its charged latency as obs.OpSSDRead and every WritePage as
// obs.OpSSDWrite. A nil collector (the default) disables recording.
func (d *Device) SetRecorder(r *obs.Collector) { d.rec = r }

// SetFaults installs a fault injector consulted on every page access:
// fault.SSDReadError / fault.SSDWriteError inject I/O errors the device
// retries with exponential backoff (charged to the simulated clock, so
// degradation shows up in throughput), and fault.SSDStall charges extra
// latency. A transient fault that outlives Config.MaxRetries, or a
// permanent one, panics with fault.Crash — the storage engine above has
// no error path for a dead drive, so harnesses treat it as a failed
// node and restart. A nil injector (the default) disables injection.
func (d *Device) SetFaults(in *fault.Injector) { d.faults = in }

// injectFaults runs the fault checks for one page access of kind k at
// the named site, charging backoff for transient errors and panicking
// on permanent ones.
func (d *Device) injectFaults(k fault.Kind, site string) {
	if st := d.faults.Check(fault.SSDStall); st.Fire {
		d.stats.Stalls++
		d.clk.AdvanceNs(st.StallNs)
	}
	dec := d.faults.Check(k)
	if !dec.Fire {
		return
	}
	d.stats.Faults++
	if dec.Transient <= 0 {
		panic(fault.Crash{Kind: k, Site: site})
	}
	// Retry the access until the transient failure clears. Attempt i
	// charges retryBackoff·2^(i-1); only a fault the plan marks transient
	// (dec.Transient > 0) is worth the wait.
	backoff := retryBackoff
	for attempt := 1; ; attempt++ {
		if attempt > d.cfg.MaxRetries {
			panic(fault.Crash{Kind: k, Site: site})
		}
		d.stats.Retries++
		d.clk.Advance(backoff)
		backoff *= 2
		if attempt >= dec.Transient {
			return // this retry succeeded
		}
	}
}

// New creates a device. It panics on a non-positive page size or capacity,
// or a nil clock, since those indicate programming errors.
func New(cfg Config, clk *simclock.Clock) *Device {
	if cfg.PageSize <= 0 || cfg.Capacity <= 0 {
		panic("ssd: non-positive page size or capacity")
	}
	if clk == nil {
		panic("ssd: nil clock")
	}
	return &Device{
		cfg:   cfg,
		clk:   clk,
		arena: offheap.New(),
		pages: make(map[int64][]byte),
		free:  make([][][]byte, grains(cfg.PageSize)+1),
	}
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Capacity returns the maximum number of pages.
func (d *Device) Capacity() int64 { return d.cfg.Capacity }

// Allocated returns the number of slots that hold a page: written, and
// not trimmed since.
func (d *Device) Allocated() int64 { return int64(len(d.pages)) }

// StoredBytes returns the host bytes the device has taken for blocks, in
// use or free. It never exceeds twice PageSize times the most pages the
// device has held at once. New bytes shorter than a page are taken only
// while no block is free, so there are never more such blocks than
// pages held; a new whole-page block only while every whole-page block
// holds a page, so there are never more of those either.
func (d *Device) StoredBytes() int64 { return d.stored }

func (d *Device) checkSlot(slot int64) {
	if slot < 0 || slot >= d.cfg.Capacity {
		panic(fmt.Sprintf("ssd: slot %d outside capacity %d", slot, d.cfg.Capacity))
	}
}

// ReadPage copies the content of slot into p, which must be exactly one
// page long. Reading a never-written slot yields zeroes, like a fresh
// drive. The full page-read latency is charged regardless of how much of
// the page the caller needs: block devices have no sub-page access.
func (d *Device) ReadPage(slot int64, p []byte) {
	d.checkSlot(slot)
	if len(p) != d.cfg.PageSize {
		panic(fmt.Sprintf("ssd: read buffer of %d bytes, page size is %d", len(p), d.cfg.PageSize))
	}
	if d.faults != nil {
		d.injectFaults(fault.SSDReadError, "ssd.read")
	}
	d.stats.PagesRead++
	d.clk.Advance(d.cfg.ReadLatency)
	if d.rec != nil {
		d.rec.Latency(obs.OpSSDRead, int64(d.cfg.ReadLatency))
	}
	n := copy(p, d.pages[slot])
	runtime.KeepAlive(d)
	clear(p[n:])
}

// WritePage stores p, which must be exactly one page long, at slot. SSD
// writes are durable when the call returns (the drive's FTL and capacitors
// are not modelled).
func (d *Device) WritePage(slot int64, p []byte) {
	d.checkSlot(slot)
	if len(p) != d.cfg.PageSize {
		panic(fmt.Sprintf("ssd: write buffer of %d bytes, page size is %d", len(p), d.cfg.PageSize))
	}
	if d.faults != nil {
		d.injectFaults(fault.SSDWriteError, "ssd.write")
	}
	d.stats.PagesWritten++
	d.clk.Advance(d.cfg.WriteLatency)
	if d.rec != nil {
		d.rec.Latency(obs.OpSSDWrite, int64(d.cfg.WriteLatency))
	}
	blk, ok := d.pages[slot]
	// A page in a full block stays there, so only a shorter block needs
	// the scan.
	if !ok || len(blk) < d.cfg.PageSize {
		if n := prefixLen(p); !ok || n > len(blk) {
			if len(blk) > 0 {
				// Outgrown: the page moves to a full block for good, and
				// its old block waits for a shorter page.
				d.release(blk)
				n = d.cfg.PageSize
			}
			blk = nil
			if n > 0 {
				blk = d.block(n)
			}
			d.pages[slot] = blk
		}
	}
	// p is zero past its prefix, and a block is never longer than p, so
	// this also clears what an earlier page left in the block.
	copy(blk, p)
	runtime.KeepAlive(d)
}

// Trim drops the page slot holds, if any: the slot reads as zeros and is
// not Written until the next WritePage, and its block joins the free list.
// A trim is the host telling the drive that the page is dead, not a page
// transfer: it charges no time and moves no traffic counter.
func (d *Device) Trim(slot int64) {
	d.checkSlot(slot)
	blk, ok := d.pages[slot]
	if !ok {
		return
	}
	delete(d.pages, slot)
	if len(blk) > 0 {
		d.release(blk)
	}
}

// grains returns how many grains n bytes take, a partial one counted.
func grains(n int) int { return (n + grain - 1) / grain }

// release puts a block no page uses on the free list.
func (d *Device) release(blk []byte) {
	i := grains(len(blk))
	d.free[i] = append(d.free[i], blk)
}

// block returns a block for a prefix of n bytes, 0 < n <= PageSize: the
// shortest free one that fits, else new arena bytes — n of them if no
// block is free at all, a whole page if only blocks too short are. The
// second rule bounds StoredBytes (see there): prefixes that keep growing
// past the free blocks cannot pile up one short block per length.
func (d *Device) block(n int) []byte {
	free := false
	for i := range d.free {
		l := len(d.free[i])
		if l == 0 {
			continue
		}
		if i >= grains(n) {
			blk := d.free[i][l-1]
			d.free[i] = d.free[i][:l-1]
			return blk
		}
		free = true
	}
	if free {
		n = d.cfg.PageSize
	}
	d.stored += int64(n)
	return d.arena.Alloc(n)
}

// prefixLen returns the length of p up to its last non-zero byte, rounded
// up to a whole grain and capped at len(p); 0 if p is all zeros. It
// compares one grain at a time with bytes.Equal, from the end, so it reads
// the trailing zeros and one grain of the prefix, no more.
func prefixLen(p []byte) int {
	end := len(p)
	for end > 0 {
		start := (end - 1) &^ (grain - 1)
		if !bytes.Equal(p[start:end], zeros[:end-start]) {
			return end
		}
		end = start
	}
	return 0
}

// Written reports whether slot holds a page: written, and not trimmed
// since.
func (d *Device) Written(slot int64) bool {
	_, ok := d.pages[slot]
	return ok
}

// Stats returns a snapshot of the traffic counters.
func (d *Device) Stats() Stats { return d.stats }

// ResetStats zeroes the traffic counters.
func (d *Device) ResetStats() { d.stats = Stats{} }
