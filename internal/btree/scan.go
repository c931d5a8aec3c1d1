package btree

import (
	"encoding/binary"

	"nvmstore/internal/core"
)

// Scan visits entries with key >= from in ascending key order, calling fn
// with each key and a read-only view of fieldLen payload bytes starting at
// fieldOff. It stops after limit entries (limit <= 0 means no limit) or
// when fn returns false. The field slice is only valid during the
// callback.
//
// Leaves are read through their handles, cache-line-grained — the
// configuration whose overhead §5.4.2 measures — loading each visited
// tuple's field individually; visitLeaf, the one leaf visitor, serves
// snapshot scans too.
func (t *Tree) Scan(from uint64, limit int, fieldOff, fieldLen int, fn func(key uint64, field []byte) bool) error {
	if err := t.checkField(fieldOff, fieldLen); err != nil {
		return err
	}
	if limit > 0 {
		emit, emitted := fn, 0
		fn = func(key uint64, field []byte) bool {
			emitted++
			return emit(key, field) && emitted < limit
		}
	}
	h, err := t.findLeaf(from, core.ModeCacheLine)
	if err != nil {
		return err
	}
	for first := true; ; first = false {
		next := core.InvalidPageID
		if !t.visitLeaf(node{h: h}, from, first, fieldOff, fieldLen, fn) {
			next = leafNext(h)
		}
		t.m.Unfix(h)
		if next == core.InvalidPageID {
			return nil
		}
		h, err = t.m.Fix(core.MakeRef(next), core.ModeCacheLine)
		if err != nil {
			return err
		}
	}
}

// visitLeaf is the one leaf visitor, of live and snapshot scans: it calls
// fn, in key order, with each entry of leaf nd whose key is >= from, and
// fieldLen payload bytes at fieldOff, and reports whether fn stopped it.
// A sorted leaf is searched for from when search is set and visited from
// its first entry otherwise; a hash leaf is read in full and sorted just
// in time, the scan overhead of the layout (§5.5), and its fields are
// read through nd like a sorted leaf's.
func (t *Tree) visitLeaf(nd node, from uint64, search bool, fieldOff, fieldLen int, fn func(key uint64, field []byte) bool) bool {
	field := func(off int) []byte {
		if fieldLen == 0 {
			return nil
		}
		return nd.read(off+fieldOff, fieldLen)[:fieldLen]
	}
	if t.layout == LayoutHash {
		data := nd.data
		if data == nil {
			data = nd.h.ReadAll()
		}
		for _, e := range t.hashGather(data, from) {
			if !fn(e.key, field(t.hashPayOff(e.slot))) {
				return true
			}
		}
		return false
	}
	pos := 0
	if search {
		pos, _ = t.leafSearch(nd, from)
	}
	for count := int(binary.LittleEndian.Uint16(nd.read(offCount, 2))); pos < count; pos++ {
		if !fn(binary.LittleEndian.Uint64(nd.read(t.leafKeyOff(pos), 8)), field(t.leafPayOff(pos))) {
			return true
		}
	}
	return false
}

// Count scans the whole tree and returns the number of entries; intended
// for tests and verification, not hot paths.
func (t *Tree) Count() (int, error) {
	n := 0
	err := t.Scan(0, 0, 0, 0, func(uint64, []byte) bool {
		n++
		return true
	})
	return n, err
}
