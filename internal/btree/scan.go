package btree

import (
	"encoding/binary"
	"fmt"

	"nvmstore/internal/core"
)

// Scan visits entries with key >= from in ascending key order, calling fn
// with each key and a read-only view of fieldLen payload bytes starting at
// fieldOff. It stops after limit entries (limit <= 0 means no limit) or
// when fn returns false. The field slice is only valid during the
// callback.
//
// Leaves are accessed cache-line-grained — the configuration whose
// overhead §5.4.2 measures — loading each visited tuple's field
// individually.
func (t *Tree) Scan(from uint64, limit int, fieldOff, fieldLen int, fn func(key uint64, field []byte) bool) error {
	if fieldOff < 0 || fieldLen < 0 || fieldOff+fieldLen > t.payload {
		return fmt.Errorf("btree: scan field [%d,%d) outside payload of %d bytes", fieldOff, fieldOff+fieldLen, t.payload)
	}
	h, err := t.findLeaf(from, core.ModeCacheLine)
	if err != nil {
		return err
	}
	emitted := 0
	firstLeaf := true
	for {
		var done bool
		if t.layout == LayoutHash {
			done = t.scanHashLeaf(h, from, firstLeaf, limit, &emitted, fieldOff, fieldLen, fn)
		} else {
			done = t.scanSortedLeaf(h, from, firstLeaf, limit, &emitted, fieldOff, fieldLen, fn)
		}
		if done {
			t.m.Unfix(h)
			return nil
		}
		next := leafNext(h)
		t.m.Unfix(h)
		if next == core.InvalidPageID {
			return nil
		}
		firstLeaf = false
		h, err = t.m.Fix(core.MakeRef(next), core.ModeCacheLine)
		if err != nil {
			return err
		}
	}
}

// scanSortedLeaf emits the qualifying entries of one sorted leaf and
// reports whether the scan is finished.
func (t *Tree) scanSortedLeaf(h core.Handle, from uint64, firstLeaf bool, limit int, emitted *int, fieldOff, fieldLen int, fn func(uint64, []byte) bool) bool {
	pos := 0
	if firstLeaf {
		pos, _ = t.leafSearch(h, from)
	}
	count := nodeCount(h)
	for ; pos < count; pos++ {
		if limit > 0 && *emitted >= limit {
			return true
		}
		key := binary.LittleEndian.Uint64(h.Read(t.leafKeyOff(pos), 8))
		var field []byte
		if fieldLen > 0 {
			field = h.Read(t.leafPayOff(pos)+fieldOff, fieldLen)
		}
		if !fn(key, field) {
			return true
		}
		*emitted++
	}
	return limit > 0 && *emitted >= limit
}

// scanHashLeaf emits the qualifying entries of one hash leaf in key order,
// sorting the leaf just in time — the scan overhead of the hash layout the
// paper points out in §5.5.
func (t *Tree) scanHashLeaf(h core.Handle, from uint64, firstLeaf bool, limit int, emitted *int, fieldOff, fieldLen int, fn func(uint64, []byte) bool) bool {
	for _, e := range t.hashGather(h) {
		if firstLeaf && e.key < from {
			continue
		}
		if limit > 0 && *emitted >= limit {
			return true
		}
		var field []byte
		if fieldLen > 0 {
			field = h.Read(t.hashPayOff(e.slot)+fieldOff, fieldLen)
		}
		if !fn(e.key, field) {
			return true
		}
		*emitted++
	}
	return limit > 0 && *emitted >= limit
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
