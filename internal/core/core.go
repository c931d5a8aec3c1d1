// Package core implements the paper's storage engine: a lightweight buffer
// manager that spans DRAM, NVM, and SSD.
//
// The package reproduces the primary contribution of "Managing Non-Volatile
// Memory in Database Systems" (van Renen et al., SIGMOD 2018):
//
//   - cache-line-grained pages (§3.1): NVM-backed pages are loaded into
//     DRAM one 64 B cache line at a time, tracked by resident and dirty
//     bitmasks, so that hot tuples on otherwise cold pages do not drag the
//     whole 16 KB page across the memory bus;
//   - mini pages (§3.2): small 1 KB frames holding up to 16 cache lines
//     behind a slot indirection, transparently promoted to full pages on
//     overflow, so the limited DRAM holds hot tuples instead of hot pages;
//   - pointer swizzling (§3.3): references to DRAM-resident pages are
//     replaced by direct frame references, avoiding the mapping-table
//     lookup for hot pages;
//   - three-tier replacement (§4.2): DRAM eviction (clock), NVM admission
//     (a duel of load counts against the NVM clock's victim — a departure
//     from the paper's admission set, see DESIGN.md §5), and NVM eviction
//     (clock);
//   - a combined page table (§4.3) that maps a page identifier to its DRAM
//     or NVM location with a single lookup;
//   - system restart (§4.4): the volatile mapping table is rebuilt by
//     scanning the page headers on NVM.
//
// One Manager, configured by Topology and feature toggles, implements all
// five architectures the paper evaluates (Main Memory, NVM Direct, Basic
// NVM BM, SSD BM, and the three-tier design). This mirrors the paper's
// methodology: "all evaluated architectures are implemented within the same
// storage engine."
//
// Managers are not safe for concurrent use; the paper's evaluation is
// single-threaded and its Appendix A.1 leaves synchronization to future
// work, as do we.
package core

import (
	"errors"
	"fmt"
)

// Geometry constants. The paper uses 16 kB pages of 256 cache lines and
// mini pages of at most 16 cache lines.
const (
	// LineSize is the cache-line granularity in bytes.
	LineSize = 64
	// PageSize is the size of a full page in bytes.
	PageSize = 16384
	// LinesPerPage is the number of cache lines on a full page.
	LinesPerPage = PageSize / LineSize
	// MiniLines is the maximum number of cache lines a mini page holds.
	MiniLines = 16
	// MiniDataSize is the data capacity of a mini page in bytes.
	MiniDataSize = MiniLines * LineSize

	// fullFrameBytes is the DRAM cost charged for a full page: 16 kB of
	// data plus the two-cache-line header of §3.1.
	fullFrameBytes = PageSize + 2*LineSize
	// miniFrameBytes is the DRAM cost charged for a mini page: sixteen
	// cache lines of data plus the one-cache-line header of §3.2.
	miniFrameBytes = MiniDataSize + LineSize
)

// PageID identifies a page. Zero is never a valid page identifier.
type PageID uint64

// InvalidPageID is the zero PageID.
const InvalidPageID PageID = 0

// Ref is a reference to a page as stored inside parent pages (for example
// B-tree child pointers): either a plain page identifier, or — when the
// page is swizzled — a direct reference to its DRAM buffer frame.
//
// The most significant bit distinguishes the two, exactly as in the paper:
// if it is set, the remaining bits are a frame-table index that can be
// "dereferenced" without consulting the mapping table; otherwise they are a
// page identifier. A zero Ref is a null reference.
type Ref uint64

const swizzleBit Ref = 1 << 63

// MakeRef returns an unswizzled reference to pid.
func MakeRef(pid PageID) Ref { return Ref(pid) }

// swizzledRef returns a swizzled reference to frame-table index idx.
func swizzledRef(idx int32) Ref { return swizzleBit | Ref(idx) }

// Swizzled reports whether r refers directly to a DRAM frame.
func (r Ref) Swizzled() bool { return r&swizzleBit != 0 }

// PageID returns the page identifier of an unswizzled reference.
func (r Ref) PageID() PageID { return PageID(r &^ swizzleBit) }

// frameIndex returns the frame-table index of a swizzled reference.
func (r Ref) frameIndex() int32 { return int32(r &^ swizzleBit) }

// AccessMode tells the buffer manager how a fixed page will be used, the
// "hinting mechanism" of §5.4.2.
type AccessMode uint8

const (
	// ModeCacheLine requests cache-line-grained access: the page is not
	// loaded eagerly, and a mini page may be allocated for it. This is
	// the right mode for point operations (lookup, insert, delete).
	ModeCacheLine AccessMode = iota
	// ModeFull requests a fully loaded page, skipping residency checks
	// and mini pages. This is the right mode for inner-node traversal,
	// restructuring, and full scans, where most of the page is touched
	// anyway.
	ModeFull
)

// Errors returned by the buffer manager.
var (
	// ErrNoEvictable is returned when DRAM is full and every frame is
	// pinned or has swizzled children.
	ErrNoEvictable = errors.New("core: DRAM full and no frame is evictable")
	// ErrCapacity is returned when a topology with a hard capacity limit
	// (Main Memory, NVM Direct, Basic NVM BM) runs out of space.
	ErrCapacity = errors.New("core: storage capacity exhausted")
	// ErrPageNotFound is returned when fixing a page identifier that was
	// never allocated.
	ErrPageNotFound = errors.New("core: page not found")
)

// location is a tagged entry of the combined page table (§4.3): the high
// bit selects between a DRAM frame index and an NVM slot index, so one
// lookup finds the page wherever it is cached.
type location uint64

const locDRAMBit location = 1 << 63

func dramLoc(idx int32) location  { return locDRAMBit | location(idx) }
func nvmLoc(slot int64) location  { return location(slot) }
func (l location) inDRAM() bool   { return l&locDRAMBit != 0 }
func (l location) frame() int32   { return int32(l &^ locDRAMBit) }
func (l location) nvmSlot() int64 { return int64(l &^ locDRAMBit) }

// String renders the location for diagnostics.
func (l location) String() string {
	if l.inDRAM() {
		return fmt.Sprintf("dram(%d)", l.frame())
	}
	return fmt.Sprintf("nvm(%d)", l.nvmSlot())
}
