package core

import (
	"encoding/binary"
	"fmt"

	"nvmstore/internal/obs"
)

// frameKind distinguishes the three in-memory representations of a page.
type frameKind uint8

const (
	// kindFull is a full 16 kB page (§3.1). When NVM-backed and accessed
	// in cache-line-grained mode, its resident bitmask tracks which lines
	// have been loaded.
	kindFull frameKind = iota
	// kindMini is a mini page (§3.2): up to 16 cache lines behind a slot
	// indirection, promoted to a full page on overflow.
	kindMini
	// kindDirect is not a DRAM copy at all but a window onto the NVM
	// device, used by the NVM Direct architecture: reads charge NVM
	// latency, writes are flushed in place on unfix.
	kindDirect
)

// Frame is the in-DRAM state of a fixed page: the page data (or a view of
// it) plus the header fields the paper keeps in the first one or two cache
// lines of the page (residency and dirty masks, the NVM backing pointer,
// the swizzling back-pointer) and the buffer-management bookkeeping.
type Frame struct {
	kind frameKind
	pid  PageID
	idx  int32 // frame-table index; -1 for direct frames

	// data holds PageSize bytes for full frames, MiniDataSize bytes for
	// mini frames, and an NVM device view for direct frames.
	data []byte

	// Cache-line residency and dirtiness (full frames). fullyResident
	// and anyDirty are the paper's r and d header bits.
	resident      bitmask
	dirty         bitmask
	fullyResident bool
	anyDirty      bool
	// needsJournal says some dirty byte was stored by a write other than
	// Handle.Overwrite — an insert's shifted rows, a page image, a fresh
	// page — which WAL redo cannot rebuild in a torn slot, so the next
	// write-back runs under the undo journal (journalArm). Cleared with
	// the dirty state.
	needsJournal bool

	// Mini-page state: slots[i] is the physical cache-line id stored in
	// the i-th data slot; the slots are kept sorted by physical id so
	// that physically consecutive lines are contiguous in data.
	slots     [MiniLines]uint8
	count     uint8
	miniDirty uint16
	// promoted forwards all access to the full page this mini page was
	// promoted into ("partially promoted", §3.2).
	promoted *Frame

	// nvmSlot is the NVM page slot backing this frame, or -1.
	nvmSlot int64

	// Swizzling back-pointers (§3.3): at most one of parent/rootHolder
	// is set while this page is swizzled. parentOff is the byte offset
	// of the reference word inside the parent page.
	parent           *Frame
	parentOff        int32
	rootHolder       *Ref
	swizzledChildren int32

	pins       int32
	referenced bool
}

// PID returns the identifier of the page held by the frame.
func (f *Frame) PID() PageID { return f.pid }

func (f *Frame) swizzled() bool { return f.parent != nil || f.rootHolder != nil }

// live returns the frame that holds the page's state: the full page a mini
// page was promoted into, or f itself.
func (f *Frame) live() *Frame {
	if f.promoted != nil {
		return f.promoted
	}
	return f
}

// getRef reads the page reference word at byte offset off of data.
func getRef(data []byte, off int) Ref {
	return Ref(binary.LittleEndian.Uint64(data[off:]))
}

// putRef writes a page reference word at byte offset off of data. Swizzle
// and unswizzle use it directly, bypassing dirty tracking: a swizzled word
// is a transient in-memory representation, never persisted, and restoring
// the page id on unswizzle returns the bytes to their persistent value.
func putRef(data []byte, off int, r Ref) {
	binary.LittleEndian.PutUint64(data[off:], uint64(r))
}

// lineSpan returns the first and last cache line covered by [off, off+n).
func lineSpan(off, n int) (first, last int) {
	return off / LineSize, (off + n - 1) / LineSize
}

// access is the one page access: it returns a slice covering [off, off+n)
// of the page, loading missing cache lines from NVM first (MakeResident,
// §3.2), and for a write marks the covered lines dirty — loaded first,
// since a partially overwritten line needs its old content. A direct frame
// charges a read to the NVM device in place. The returned slice is valid
// until the next access to the same page: a later load into a mini page
// may shift its data array. [0, PageSize) is the full-page path the paper
// uses for restructuring, which promotes a mini page.
func (h Handle) access(off, n int, write bool) []byte {
	f, m := h.f, h.m
	if off < 0 || n <= 0 || off+n > PageSize {
		panic(fmt.Sprintf("core: page access [%d, %d) outside page of %d bytes", off, off+n, PageSize))
	}
	switch {
	case f.kind == kindMini:
		return f.miniAccess(m, off, n, write)
	case f.kind == kindDirect:
		if !write {
			m.nvm.Touch(m.slotDataOff(f.nvmSlot)+int64(off), n)
		}
	case !f.fullyResident:
		a, b := lineSpan(off, n)
		f.makeResident(m, a, b)
	}
	if write {
		a, b := lineSpan(off, n)
		f.dirty.setRange(a, b)
		f.anyDirty = true
	}
	return f.data[off : off+n]
}

// makeResident is MakeResident (§3.2) for both DRAM frame kinds: it loads
// the cache lines of [a, b] the frame does not hold from its NVM backing,
// one device read per maximal run of missing lines, so a multi-line
// request pays latency + (n-1)·lineTransfer like a Touch on a direct
// frame. It returns the position of line a in f.data, counted in lines: a
// itself on a full frame, its slot on a mini page, where lines a..b then
// occupy consecutive slots. ok is false, and nothing was loaded, when a
// mini page cannot hold the missing lines and has to be promoted.
func (f *Frame) makeResident(m *Manager, a, b int) (pos int, ok bool) {
	if f.nvmSlot < 0 {
		// Pages without NVM backing are created fully resident; reaching
		// this point means frame state is corrupt.
		panic("core: partial page without NVM backing")
	}
	pos = a
	if f.kind == kindMini {
		// One pass over the sorted slots: where line a sits or belongs,
		// and how many lines of [a, b] follow it there.
		pos = 0
		for pos < int(f.count) && int(f.slots[pos]) < a {
			pos++
		}
		missing := b - a + 1
		for i := pos; i < int(f.count) && int(f.slots[i]) <= b; i++ {
			missing--
		}
		if missing == 0 {
			return pos, true
		}
		if int(f.count)+missing > MiniLines {
			return 0, false
		}
	}
	base := m.slotDataOff(f.nvmSlot)
	var t0 int64
	if m.rec != nil {
		t0 = m.clk.Ns()
	}
	loaded := 0
	// load reads the missing run [from, to] into f.data at line position at.
	load := func(at, from, to int) {
		n := to - from + 1
		m.nvm.ReadAt(f.data[at*LineSize:(at+n)*LineSize], base+int64(from)*LineSize)
		m.stats.LineLoadRequests++
		m.stats.LinesLoaded += int64(n)
		loaded += n
	}
	if f.kind == kindMini {
		for i, l := pos, a; l <= b; {
			if i < int(f.count) && int(f.slots[i]) == l {
				i, l = i+1, l+1
				continue
			}
			// Lines l..to are missing: the run ends before the next
			// resident line of the span, or with the span.
			to := b
			if i < int(f.count) && int(f.slots[i]) <= b {
				to = int(f.slots[i]) - 1
			}
			f.miniOpen(i, l, to)
			load(i, l, to)
			i, l = i+to-l+1, to+1
		}
	} else {
		f.resident.clearRuns(a, b, func(from, to int) {
			load(from, from, to)
			f.resident.setRange(from, to)
		})
		if f.resident.full() {
			f.fullyResident = true
		}
	}
	if m.rec != nil && loaded > 0 {
		m.rec.Latency(obs.OpNVMLineLoad, m.clk.Ns()-t0)
	}
	return pos, true
}

// forward promotes a mini page if necessary and returns the full page all
// further access goes to.
func (f *Frame) forward(m *Manager) *Frame {
	if f.promoted == nil {
		m.promoteMini(f)
	}
	return f.promoted
}

// miniAccess resolves a mini page's slot indirection for [off, off+n),
// promoting to a full page when the request does not fit.
func (f *Frame) miniAccess(m *Manager, off, n int, forWrite bool) []byte {
	if f.promoted == nil {
		a, b := lineSpan(off, n)
		if pos, ok := f.makeResident(m, a, b); ok {
			if forWrite {
				span := 1<<uint(b-a+1) - 1
				f.miniDirty |= uint16(span << uint(pos))
				f.anyDirty = true
			}
			start := pos*LineSize + off%LineSize
			return f.data[start : start+n]
		}
	}
	return Handle{f.forward(m), m}.access(off, n, forWrite)
}

// miniOpen inserts the physical lines [from, to] at slot pos with one shift
// of slots, data and the dirty mask; the caller fills the opened data.
// Slots stay sorted by physical id, which keeps physically consecutive
// lines consecutive in the data array: that is what lets a multi-line
// request return contiguous memory (§3.2).
func (f *Frame) miniOpen(pos, from, to int) {
	n, count := to-from+1, int(f.count)
	copy(f.slots[pos+n:count+n], f.slots[pos:count])
	copy(f.data[(pos+n)*LineSize:(count+n)*LineSize], f.data[pos*LineSize:count*LineSize])
	low := uint16(1)<<uint(pos) - 1
	f.miniDirty = (f.miniDirty & low) | (f.miniDirty&^low)<<uint(n)
	for i := 0; i < n; i++ {
		f.slots[pos+i] = uint8(from + i)
	}
	f.count += uint8(n)
}
