package btree

import (
	"encoding/binary"
	"fmt"
	"sort"

	"nvmstore/internal/core"
	"nvmstore/internal/shard"
)

// Hash-leaf slot states.
const (
	slotEmpty    byte = 0
	slotOccupied byte = 1
	slotTomb     byte = 2
)

// sortedInsert adds an entry to a sorted leaf with guaranteed room. The
// log record is appended before the page is modified (WAL rule).
func (t *Tree) sortedInsert(h core.Handle, key uint64, payload []byte) error {
	pos, found := t.leafSearch(node{h: h}, key)
	if found {
		return fmt.Errorf("btree: insert key %d: %w", key, ErrDuplicateKey)
	}
	if t.logger != nil {
		if err := t.logger.LogInsert(t.id, key, payload); err != nil {
			return err
		}
	}
	t.noteLeafWrite(h)
	count := nodeCount(h)
	if count > pos {
		// Shift the tails of both arrays up by one entry. Write returns
		// one contiguous resident region per array, so the shifts are
		// coalesced cache-line loads followed by in-place copies.
		kb := h.Write(t.leafKeyOff(pos), (count-pos+1)*8)
		copy(kb[8:], kb[:len(kb)-8])
		pb := h.Write(t.leafPayOff(pos), (count-pos+1)*t.payload)
		copy(pb[t.payload:], pb[:len(pb)-t.payload])
	}
	binary.LittleEndian.PutUint64(h.Write(t.leafKeyOff(pos), 8), key)
	copy(h.Write(t.leafPayOff(pos), t.payload), payload)
	setNodeCount(h, count+1)
	return nil
}

// sortedDelete removes an entry from a sorted leaf.
func (t *Tree) sortedDelete(h core.Handle, key uint64) (bool, error) {
	pos, found := t.leafSearch(node{h: h}, key)
	if !found {
		return false, nil
	}
	if t.logger != nil {
		old := h.Read(t.leafPayOff(pos), t.payload)
		if err := t.logger.LogDelete(t.id, key, old); err != nil {
			return false, err
		}
	}
	t.noteLeafWrite(h)
	count := nodeCount(h)
	if pos < count-1 {
		kb := h.Write(t.leafKeyOff(pos), (count-pos)*8)
		copy(kb, kb[8:])
		pb := h.Write(t.leafPayOff(pos), (count-pos)*t.payload)
		copy(pb, pb[t.payload:])
	}
	setNodeCount(h, count-1)
	return true, nil
}

// hashSearch probes the open-addressing table of a hash leaf. On average
// it touches around two cache lines per present key (the state byte and
// key usually share a probe locality), which is the point of the layout
// (§5.5).
func (t *Tree) hashSearch(nd node, key uint64) (int, bool) {
	i := int(shard.Mix(key) % uint64(t.hashCap))
	for probes := 0; probes < t.hashCap; probes++ {
		st := nd.read(t.hashStateOff(i), 1)[0]
		if st == slotEmpty {
			return 0, false
		}
		if st == slotOccupied && binary.LittleEndian.Uint64(nd.read(t.hashKeyOff(i), 8)) == key {
			return i, true
		}
		i++
		if i == t.hashCap {
			i = 0
		}
	}
	return 0, false
}

// hashInsert adds an entry to a hash leaf with guaranteed room.
func (t *Tree) hashInsert(h core.Handle, key uint64, payload []byte) error {
	i := int(shard.Mix(key) % uint64(t.hashCap))
	target := -1
	for probes := 0; probes < t.hashCap; probes++ {
		st := h.Read(t.hashStateOff(i), 1)[0]
		if st == slotEmpty {
			if target < 0 {
				target = i
			}
			break
		}
		if st == slotTomb {
			if target < 0 {
				target = i
			}
		} else {
			k := binary.LittleEndian.Uint64(h.Read(t.hashKeyOff(i), 8))
			if k == key {
				return fmt.Errorf("btree: insert key %d: %w", key, ErrDuplicateKey)
			}
		}
		i++
		if i == t.hashCap {
			i = 0
		}
	}
	if target < 0 {
		return fmt.Errorf("btree: hash leaf unexpectedly full at key %d", key)
	}
	if t.logger != nil {
		if err := t.logger.LogInsert(t.id, key, payload); err != nil {
			return err
		}
	}
	t.noteLeafWrite(h)
	wasEmpty := h.Read(t.hashStateOff(target), 1)[0] == slotEmpty
	h.Write(t.hashStateOff(target), 1)[0] = slotOccupied
	binary.LittleEndian.PutUint64(h.Write(t.hashKeyOff(target), 8), key)
	copy(h.Write(t.hashPayOff(target), t.payload), payload)
	setNodeCount(h, nodeCount(h)+1)
	if wasEmpty {
		setNodeUsed(h, nodeUsed(h)+1)
	}
	return nil
}

// hashDelete tombstones an entry in a hash leaf.
func (t *Tree) hashDelete(h core.Handle, key uint64) (bool, error) {
	pos, found := t.hashSearch(node{h: h}, key)
	if !found {
		return false, nil
	}
	if t.logger != nil {
		old := h.Read(t.hashPayOff(pos), t.payload)
		if err := t.logger.LogDelete(t.id, key, old); err != nil {
			return false, err
		}
	}
	t.noteLeafWrite(h)
	h.Write(t.hashStateOff(pos), 1)[0] = slotTomb
	setNodeCount(h, nodeCount(h)-1)
	return true, nil
}

// hashEntry pairs a key with its slot, for just-in-time sorting.
type hashEntry struct {
	key  uint64
	slot int
}

// hashGather collects, in key order, the occupied slots of a hash leaf's
// bytes whose key is >= from, so that a leaf below a scan's start sorts
// nothing. Scans over hash leaves pay this sorting cost, as the paper
// notes (§5.5).
func (t *Tree) hashGather(data []byte, from uint64) []hashEntry {
	entries := make([]hashEntry, 0, binary.LittleEndian.Uint16(data[offCount:]))
	for i := 0; i < t.hashCap; i++ {
		if data[t.hashStateOff(i)] != slotOccupied {
			continue
		}
		if key := binary.LittleEndian.Uint64(data[t.hashKeyOff(i):]); key >= from {
			entries = append(entries, hashEntry{key: key, slot: i})
		}
	}
	sort.Slice(entries, func(a, b int) bool { return entries[a].key < entries[b].key })
	return entries
}

// hashPlace inserts into raw leaf data during splits and bulk loads,
// assuming no duplicates and guaranteed room.
func (t *Tree) hashPlace(data []byte, key uint64, payload []byte) {
	i := int(shard.Mix(key) % uint64(t.hashCap))
	for data[t.hashStateOff(i)] == slotOccupied {
		i++
		if i == t.hashCap {
			i = 0
		}
	}
	data[t.hashStateOff(i)] = slotOccupied
	binary.LittleEndian.PutUint64(data[t.hashKeyOff(i):], key)
	copy(data[t.hashPayOff(i):t.hashPayOff(i)+t.payload], payload)
}

// splitHashLeaf partitions a hash leaf at its splitPoint-th key in key
// order: the entries from there on move into right, the ones below are
// re-hashed in place (clearing tombstones). Returns the separator.
func (t *Tree) splitHashLeaf(child, right core.Handle) uint64 {
	entries := t.hashGather(child.ReadAll(), 0)
	src := child.WriteAll()
	next := binary.LittleEndian.Uint64(src[offNext:])
	mid := splitPoint(len(entries), core.PageID(next) == core.InvalidPageID)
	sep := entries[mid].key

	// Copy all payload bytes aside before rebuilding the page in place.
	saved := make([]byte, len(entries)*t.payload)
	for i, e := range entries {
		copy(saved[i*t.payload:], src[t.hashPayOff(e.slot):t.hashPayOff(e.slot)+t.payload])
	}

	t.initLeaf(right)
	dst := right.WriteAll()
	for i := mid; i < len(entries); i++ {
		t.hashPlace(dst, entries[i].key, saved[i*t.payload:(i+1)*t.payload])
	}
	binary.LittleEndian.PutUint16(dst[offCount:], uint16(len(entries)-mid))
	binary.LittleEndian.PutUint16(dst[offUsed:], uint16(len(entries)-mid))

	// Rebuild the left page.
	for i := 0; i < t.hashCap; i++ {
		src[t.hashStateOff(i)] = slotEmpty
	}
	for i := 0; i < mid; i++ {
		t.hashPlace(src, entries[i].key, saved[i*t.payload:(i+1)*t.payload])
	}
	binary.LittleEndian.PutUint16(src[offCount:], uint16(mid))
	binary.LittleEndian.PutUint16(src[offUsed:], uint16(mid))

	binary.LittleEndian.PutUint64(dst[offNext:], next)
	binary.LittleEndian.PutUint64(src[offNext:], uint64(right.PID()))
	return sep
}
