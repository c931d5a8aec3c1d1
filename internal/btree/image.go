package btree

import (
	"encoding/binary"
	"fmt"

	"nvmstore/internal/core"
)

// Snapshot-read support: scans against a stable stamp read leaves as
// immutable byte images — either a copy of the live page (when its
// version is old enough) or a copy-on-write image from the version store
// (core.Versions). Fetching an image follows the Manager's single-threaded
// contract (it runs under the engine's lock); the image accessors are pure
// functions over the copied bytes, so a snapshot scan decodes entries
// outside the lock.

// noteLeafWrite gives the version layer a chance to save a copy-on-write
// image of the leaf about to be modified, and bumps the leaf's version
// stamp. It must run before the first byte of any leaf mutation.
func (t *Tree) noteLeafWrite(h core.Handle) {
	t.m.Versions().WillModify(h.PID(), func() []byte { return h.ReadAll() })
}

// HeadLeaf returns the page id of the leftmost leaf — the head of the
// sibling chain. Splits keep the left page in place and leaves are never
// merged or freed, so the head is stable for the lifetime of the tree.
func (t *Tree) HeadLeaf() (core.PageID, error) {
	h, err := t.m.FixRoot(&t.root, t.modeFor(0, t.leafMode()))
	if err != nil {
		return core.InvalidPageID, err
	}
	for lvl := 0; lvl < t.height-1; lvl++ {
		child, err := t.m.FixChild(h, t.innerChildOff(0), t.modeFor(lvl+1, t.leafMode()))
		t.m.Unfix(h)
		if err != nil {
			return core.InvalidPageID, err
		}
		h = child
	}
	pid := h.PID()
	t.m.Unfix(h)
	return pid, nil
}

// LeafFor returns the page id of the leaf currently routing key. Because
// separators are only ever added, a leaf's routed range only narrows over
// time: if the leaf already existed at an earlier snapshot stamp, it
// covered key then too, which lets snapshot scans start mid-chain.
func (t *Tree) LeafFor(key uint64) (core.PageID, error) {
	h, err := t.findLeaf(key, t.leafMode())
	if err != nil {
		return core.InvalidPageID, err
	}
	pid := h.PID()
	t.m.Unfix(h)
	return pid, nil
}

// LeafImageAsOf returns an immutable image of the given leaf as of the
// snapshot stamp asOf, or false if the page did not exist at that stamp.
// When the live page's version is still <= asOf the live content is
// copied; otherwise the copy-on-write image is served from the version
// store. Must run under the engine's lock; the returned image may be read
// without it.
func (t *Tree) LeafImageAsOf(pid core.PageID, asOf uint64) ([]byte, bool, error) {
	v := t.m.Versions()
	if v.VerOf(pid) <= asOf {
		h, err := t.m.Fix(core.MakeRef(pid), core.ModeFull)
		if err != nil {
			return nil, false, err
		}
		img := append([]byte(nil), h.ReadAll()...)
		t.m.Unfix(h)
		v.NoteServed()
		return img, true, nil
	}
	if img, ok := v.ImageAsOf(pid, asOf); ok {
		return img, true, nil
	}
	return nil, false, nil
}

// ImageNext returns the right-sibling page id recorded in a leaf image.
func ImageNext(data []byte) core.PageID {
	return core.PageID(binary.LittleEndian.Uint64(data[offNext:]))
}

// ScanImage emits the entries with key >= from of one leaf image in key
// order, calling fn with each key and a read-only view of fieldLen
// payload bytes at fieldOff (sliced out of the image, valid as long as
// the image). It reports whether the scan should continue (false once fn
// returns false).
func (t *Tree) ScanImage(data []byte, from uint64, fieldOff, fieldLen int, fn func(key uint64, field []byte) bool) (bool, error) {
	if fieldOff < 0 || fieldLen < 0 || fieldOff+fieldLen > t.payload {
		return false, fmt.Errorf("btree: scan field [%d,%d) outside payload of %d bytes", fieldOff, fieldOff+fieldLen, t.payload)
	}
	// Like the live scan, dispatch on the tree's layout rather than the
	// page's type byte: leaves materialized by logical crash recovery are
	// rebuilt in place from zeroed images and never pass through initLeaf,
	// so a valid leaf may carry type 0. Only an inner node — a sign the
	// chain walk left the leaf level — is rejected.
	if data[offType] == nodeInner {
		return false, fmt.Errorf("btree: snapshot scan reached an inner-node page image")
	}
	switch {
	case t.layout != LayoutHash:
		count := nodeCountData(data)
		// Binary search for the first key >= from.
		lo, hi := 0, count
		for lo < hi {
			mid := (lo + hi) / 2
			if binary.LittleEndian.Uint64(data[t.leafKeyOff(mid):]) < from {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		for pos := lo; pos < count; pos++ {
			key := binary.LittleEndian.Uint64(data[t.leafKeyOff(pos):])
			var field []byte
			if fieldLen > 0 {
				off := t.leafPayOff(pos) + fieldOff
				field = data[off : off+fieldLen]
			}
			if !fn(key, field) {
				return false, nil
			}
		}
		return true, nil
	default:
		for _, e := range t.hashGatherData(data) {
			if e.key < from {
				continue
			}
			var field []byte
			if fieldLen > 0 {
				off := t.hashPayOff(e.slot) + fieldOff
				field = data[off : off+fieldLen]
			}
			if !fn(e.key, field) {
				return false, nil
			}
		}
		return true, nil
	}
}
