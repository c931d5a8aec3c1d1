package btree

import (
	"encoding/binary"
	"fmt"

	"nvmstore/internal/core"
)

// Snapshot-read support: scans against a stable stamp read each leaf in
// place — the fixed live page when its version is old enough, otherwise
// the copy-on-write image the version store (core.Versions) saved before
// the first later write. Both follow the Manager's single-threaded
// contract (they run under the engine's lock); the visitor copies out the
// entries it wants and nothing else leaves the lock.

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

// LeafFor returns the page id of the leaf currently routing key. Splits
// only add separators, so a leaf's routed range only narrows over time:
// if the leaf already existed at an earlier snapshot stamp, it covered key
// then too, which lets snapshot scans start mid-chain. The one exception
// is the rightmost leaf, whose range widens when a full left neighbour
// shifts entries into it (shiftToRightmost); the version store records
// that (core.Versions.WidenedAfter), and a snapshot scan that would start
// at a leaf widened after its stamp starts at the chain head instead.
func (t *Tree) LeafFor(key uint64) (core.PageID, error) {
	h, err := t.findLeaf(key, t.leafMode())
	if err != nil {
		return core.InvalidPageID, err
	}
	pid := h.PID()
	t.m.Unfix(h)
	return pid, nil
}

// VisitLeafAsOf reads one leaf in place as of the snapshot stamp asOf and
// calls fn, in key order, with each entry whose key is >= from: the key
// and a read-only view of fieldLen payload bytes at fieldOff, valid only
// during the call. It stops when fn returns false. The bytes read are the
// fixed live page, read in full, when its version is still <= asOf,
// otherwise the copy-on-write image the version store already holds — no
// copy of the leaf is made either way, and visitLeaf, the live scan's
// visitor, reads them in hand. It returns the leaf's as-of right sibling
// and whether the page existed at asOf (a leaf born later has no as-of
// content and fn is not called). Must run under the engine's lock, fn
// included.
func (t *Tree) VisitLeafAsOf(pid core.PageID, asOf, from uint64, fieldOff, fieldLen int, fn func(key uint64, field []byte) bool) (next core.PageID, existed bool, err error) {
	if err := t.checkField(fieldOff, fieldLen); err != nil {
		return core.InvalidPageID, false, err
	}
	var nd node
	if v := t.m.Versions(); v.VerOf(pid) <= asOf {
		h, err := t.m.Fix(core.MakeRef(pid), core.ModeFull)
		if err != nil {
			return core.InvalidPageID, false, err
		}
		defer t.m.Unfix(h)
		v.NoteServed()
		nd.data = h.ReadAll()
	} else if nd.data, existed = v.ImageAsOf(pid, asOf); !existed {
		return core.InvalidPageID, false, nil
	}
	// Like the live scan, dispatch on the tree's layout rather than the
	// page's type byte: leaves materialized by logical crash recovery are
	// rebuilt in place from zeroed images and never pass through initLeaf,
	// so a valid leaf may carry type 0. Only an inner node — a sign the
	// chain walk left the leaf level — is rejected.
	if nd.data[offType] == nodeInner {
		return core.InvalidPageID, false, fmt.Errorf("btree: snapshot scan reached an inner node")
	}
	t.visitLeaf(nd, from, true, fieldOff, fieldLen, fn)
	return core.PageID(binary.LittleEndian.Uint64(nd.read(offNext, 8))), true, nil
}
