package btree

import (
	"encoding/binary"
	"fmt"

	"nvmstore/internal/core"
)

// BulkLoad fills an empty tree bottom-up with n entries in ascending key
// order. keyAt(i) must be strictly increasing; payloadAt(i, dst) writes the
// i-th payload into dst (PayloadSize bytes). Leaves and inner nodes are
// filled to the given fill factor — the paper ingests benchmark data at a
// load factor of 0.66 (§5.1). Bulk loading bypasses the WAL; engines
// checkpoint after loading.
func (t *Tree) BulkLoad(n int, keyAt func(i int) uint64, payloadAt func(i int, dst []byte), fill float64) error {
	if t.height != 1 {
		return fmt.Errorf("btree: bulk load into non-empty tree of height %d", t.height)
	}
	if n <= 0 {
		return nil
	}
	if fill <= 0 || fill > 1 {
		fill = 1
	}
	perLeaf := int(fill * float64(t.LeafCapacity()))
	if perLeaf < 1 {
		perLeaf = 1
	}

	type entry struct {
		firstKey uint64
		pid      core.PageID
	}
	var level []entry

	// The root reference is reassigned at the end of the load.
	if err := t.detachRoot(); err != nil {
		return err
	}

	// Level 0: build the leaf chain, reusing the existing empty root as
	// the first leaf.
	var prev core.Handle
	for i := 0; i < n; {
		var h core.Handle
		var err error
		if len(level) == 0 {
			h, err = t.m.Fix(t.root, core.ModeFull)
			if err == nil && nodeCount(h) != 0 {
				t.m.Unfix(h)
				return fmt.Errorf("btree: bulk load into non-empty tree")
			}
		} else {
			h, err = t.m.Allocate()
			if err == nil {
				t.initLeaf(h)
			}
		}
		if err != nil {
			if prev.Valid() {
				t.m.Unfix(prev)
			}
			return fmt.Errorf("btree: bulk load leaf %d: %w", len(level), err)
		}
		batch := perLeaf
		if n-i < batch {
			batch = n - i
		}
		t.noteLeafWrite(h)
		data := h.WriteAll()
		if t.layout == LayoutHash {
			buf := make([]byte, t.payload)
			for j := 0; j < batch; j++ {
				payloadAt(i+j, buf)
				t.hashPlace(data, keyAt(i+j), buf)
			}
			binary.LittleEndian.PutUint16(data[offUsed:], uint16(batch))
		} else {
			for j := 0; j < batch; j++ {
				binary.LittleEndian.PutUint64(data[t.leafKeyOff(j):], keyAt(i+j))
				payloadAt(i+j, data[t.leafPayOff(j):t.leafPayOff(j)+t.payload])
			}
		}
		binary.LittleEndian.PutUint16(data[offCount:], uint16(batch))
		level = append(level, entry{firstKey: keyAt(i), pid: h.PID()})
		if prev.Valid() {
			setLeafNext(prev, h.PID())
			t.m.Unfix(prev)
		}
		prev = h
		i += batch
	}
	t.m.Unfix(prev)

	// Upper levels: pack children under inner nodes at the same fill
	// factor until a single root remains.
	perInner := int(fill * float64(t.innerCap+1))
	if perInner < 2 {
		perInner = 2
	}
	for len(level) > 1 {
		var up []entry
		for j := 0; j < len(level); j += perInner {
			end := j + perInner
			if end > len(level) {
				end = len(level)
			}
			// Avoid a trailing inner node with a single child: borrow
			// one from this node instead.
			if end < len(level) && len(level)-end == 1 {
				end--
			}
			h, err := t.m.Allocate()
			if err != nil {
				return fmt.Errorf("btree: bulk load inner: %w", err)
			}
			t.initInner(h)
			data := h.WriteAll()
			binary.LittleEndian.PutUint64(data[t.innerChildOff(0):], uint64(core.MakeRef(level[j].pid)))
			for k := j + 1; k < end; k++ {
				binary.LittleEndian.PutUint64(data[t.innerKeyOff(k-j-1):], level[k].firstKey)
				binary.LittleEndian.PutUint64(data[t.innerChildOff(k-j):], uint64(core.MakeRef(level[k].pid)))
			}
			binary.LittleEndian.PutUint16(data[offCount:], uint16(end-j-1))
			up = append(up, entry{firstKey: level[j].firstKey, pid: h.PID()})
			t.m.Unfix(h)
		}
		level = up
		t.height++
	}
	t.root = core.MakeRef(level[0].pid)
	if t.logger != nil {
		return t.logger.LogRoot(t.id, core.Handle{})
	}
	return nil
}
