// Package fptree reimplements the FPTree (Oukid et al., SIGMOD 2016), the
// hybrid DRAM-NVM B+-tree the paper compares against in §5.5 and §A.5.
//
// The FPTree places leaf nodes on NVM and keeps the inner search structure
// in DRAM: lookups descend DRAM-resident nodes for free and touch NVM only
// at the leaf, where one-byte fingerprints filter candidate slots so that a
// point lookup costs around two NVM cache-line accesses instead of the
// roughly eight a binary-searched sorted leaf needs. Durability comes from
// the NVM-resident leaves alone; after a restart the inner structure is
// rebuilt by scanning all leaves (§A.5 measures this ramp-up).
//
// As in the original paper's evaluation (and the reproduction's Figure 11),
// keys and values are 8-byte integers and leaves hold 56 entries. The
// DRAM-resident inner structure is a sorted (smallest key, leaf) directory
// searched by binary search; it has the same DRAM-only access profile as
// the original's inner nodes, which is the property the comparison
// exercises. Persistence ordering follows the original: an insert first
// persists the key/value slot, then atomically publishes it by persisting
// the fingerprint and bitmap word.
//
// Not safe for concurrent use (the reproduced evaluation is
// single-threaded).
package fptree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"nvmstore/internal/nvm"
	"nvmstore/internal/shard"
)

// LeafEntries is the number of entries per NVM leaf, as configured in the
// FPTree paper's evaluation (56 entries of 16 bytes).
const LeafEntries = 56

// Leaf NVM layout (1024 bytes, 16 cache lines):
//
//	off  0: bitmap  uint64 (bit i = slot i occupied)
//	off  8: next    int64  (NVM offset of the right sibling, 0 = none)
//	off 16: fingerprints [56]byte
//	off 80: entries [56]{key uint64, value uint64}
const (
	leafSize    = 1024
	offBitmap   = 0
	offNext     = 8
	offFPs      = 16
	offEntries  = 80
	metaSize    = 64         // region header: magic + head offset
	regionMagic = 0x46505452 // "FPTR"
)

// ErrFull is returned when the NVM region cannot hold another leaf.
var ErrFull = errors.New("fptree: NVM region full")

// dirEntry is one DRAM-resident directory entry: the smallest key stored
// in the leaf at off.
type dirEntry struct {
	minKey uint64
	off    int64
}

// Tree is an FPTree over a region of a simulated NVM device.
type Tree struct {
	dev  *nvm.Device
	off  int64
	size int64

	next int64 // bump allocator for leaves

	// dir is the DRAM-resident inner structure, sorted by minKey. The
	// first entry always has minKey 0 so every key routes somewhere.
	dir []dirEntry

	count int
}

// New creates an empty FPTree in [off, off+size) of dev.
func New(dev *nvm.Device, off, size int64) (*Tree, error) {
	if size < metaSize+2*leafSize {
		return nil, fmt.Errorf("fptree: region of %d bytes too small", size)
	}
	t := &Tree{dev: dev, off: off, size: size, next: metaSize}
	head, err := t.allocLeaf()
	if err != nil {
		return nil, err
	}
	t.writeMeta(head)
	t.dir = []dirEntry{{minKey: 0, off: head}}
	return t, nil
}

func (t *Tree) writeMeta(head int64) {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[0:], regionMagic)
	binary.LittleEndian.PutUint64(b[8:], uint64(head))
	t.dev.Persist(b[:], t.off)
}

func (t *Tree) allocLeaf() (int64, error) {
	if t.next+leafSize > t.size {
		return 0, ErrFull
	}
	off := t.next
	t.next += leafSize
	// A fresh leaf must have a zero bitmap; the region may be reused
	// memory, so clear and persist the header word.
	var zero [16]byte
	t.dev.Persist(zero[:], t.off+off)
	return off, nil
}

// Count returns the number of entries.
func (t *Tree) Count() int { return t.count }

// Leaves returns the number of allocated leaves.
func (t *Tree) Leaves() int { return len(t.dir) }

// fingerprint is the one-byte hash filtering leaf slots.
func fingerprint(key uint64) byte { return byte(shard.Mix(key)) }

// findLeaf locates the directory slot responsible for key. This is the
// DRAM-resident part of a lookup and charges no NVM time.
func (t *Tree) findLeaf(key uint64) int {
	i := sort.Search(len(t.dir), func(i int) bool { return t.dir[i].minKey > key })
	return i - 1
}

// Lookup returns the value stored under key. It reads the leaf's bitmap
// and fingerprint lines, then only the candidate entries whose fingerprint
// matches — around two NVM cache-line accesses for a present key.
func (t *Tree) Lookup(key uint64) (uint64, bool) {
	leaf := t.off + t.dir[t.findLeaf(key)].off
	var hdr [offEntries]byte
	t.dev.ReadAt(hdr[:], leaf)
	bitmap := binary.LittleEndian.Uint64(hdr[offBitmap:])
	fp := fingerprint(key)
	for i := 0; i < LeafEntries; i++ {
		if bitmap&(1<<uint(i)) == 0 || hdr[offFPs+i] != fp {
			continue
		}
		var kv [16]byte
		t.dev.ReadAt(kv[:], leaf+offEntries+int64(i)*16)
		if binary.LittleEndian.Uint64(kv[0:]) == key {
			return binary.LittleEndian.Uint64(kv[8:]), true
		}
	}
	return 0, false
}

// Insert stores key -> value, overwriting an existing entry. Persistence
// order follows the FPTree protocol: the 16-byte entry is persisted first,
// then the fingerprint and bitmap publish it; a crash in between leaves an
// unpublished slot that the bitmap ignores.
func (t *Tree) Insert(key, value uint64) error {
	di := t.findLeaf(key)
	leaf := t.off + t.dir[di].off
	var hdr [offEntries]byte
	t.dev.ReadAt(hdr[:], leaf)
	bitmap := binary.LittleEndian.Uint64(hdr[offBitmap:])
	fp := fingerprint(key)

	// Overwrite when present.
	for i := 0; i < LeafEntries; i++ {
		if bitmap&(1<<uint(i)) == 0 || hdr[offFPs+i] != fp {
			continue
		}
		var kv [16]byte
		t.dev.ReadAt(kv[:], leaf+offEntries+int64(i)*16)
		if binary.LittleEndian.Uint64(kv[0:]) == key {
			binary.LittleEndian.PutUint64(kv[8:], value)
			t.dev.Persist(kv[:], leaf+offEntries+int64(i)*16)
			return nil
		}
	}

	// Split if full.
	if popcount(bitmap) == LeafEntries {
		if err := t.splitLeaf(di); err != nil {
			return err
		}
		return t.Insert(key, value)
	}

	// Claim the first free slot.
	slot := 0
	for ; slot < LeafEntries; slot++ {
		if bitmap&(1<<uint(slot)) == 0 {
			break
		}
	}
	var kv [16]byte
	binary.LittleEndian.PutUint64(kv[0:], key)
	binary.LittleEndian.PutUint64(kv[8:], value)
	t.dev.Persist(kv[:], leaf+offEntries+int64(slot)*16)

	// Publish: fingerprint first (same flush covers both header lines).
	t.dev.WriteAt([]byte{fp}, leaf+offFPs+int64(slot))
	var bm [8]byte
	binary.LittleEndian.PutUint64(bm[:], bitmap|1<<uint(slot))
	t.dev.WriteAt(bm[:], leaf+offBitmap)
	t.dev.Flush(leaf+offBitmap, offFPs+LeafEntries)
	t.count++
	return nil
}

// Delete removes key, returning whether it was present. Clearing the
// bitmap bit unpublishes the slot with a single persisted word.
func (t *Tree) Delete(key uint64) (bool, error) {
	leaf := t.off + t.dir[t.findLeaf(key)].off
	var hdr [offEntries]byte
	t.dev.ReadAt(hdr[:], leaf)
	bitmap := binary.LittleEndian.Uint64(hdr[offBitmap:])
	fp := fingerprint(key)
	for i := 0; i < LeafEntries; i++ {
		if bitmap&(1<<uint(i)) == 0 || hdr[offFPs+i] != fp {
			continue
		}
		var kv [16]byte
		t.dev.ReadAt(kv[:], leaf+offEntries+int64(i)*16)
		if binary.LittleEndian.Uint64(kv[0:]) == key {
			var bm [8]byte
			binary.LittleEndian.PutUint64(bm[:], bitmap&^(1<<uint(i)))
			t.dev.Persist(bm[:], leaf+offBitmap)
			t.count--
			return true, nil
		}
	}
	return false, nil
}

// splitLeaf splits the leaf at directory index di at its median key.
func (t *Tree) splitLeaf(di int) error {
	leafOff := t.dir[di].off
	leaf := t.off + leafOff
	buf := make([]byte, leafSize)
	t.dev.ReadAt(buf, leaf)
	bitmap := binary.LittleEndian.Uint64(buf[offBitmap:])

	type ent struct {
		key  uint64
		slot int
	}
	entries := make([]ent, 0, LeafEntries)
	for i := 0; i < LeafEntries; i++ {
		if bitmap&(1<<uint(i)) != 0 {
			entries = append(entries, ent{binary.LittleEndian.Uint64(buf[offEntries+i*16:]), i})
		}
	}
	sort.Slice(entries, func(a, b int) bool { return entries[a].key < entries[b].key })
	mid := len(entries) / 2
	sep := entries[mid].key

	newOff, err := t.allocLeaf()
	if err != nil {
		return err
	}
	newLeaf := t.off + newOff

	// Build and persist the new right leaf: upper-half entries packed
	// into the low slots.
	nbuf := make([]byte, leafSize)
	var nbitmap uint64
	for j, e := range entries[mid:] {
		copy(nbuf[offEntries+j*16:], buf[offEntries+e.slot*16:offEntries+e.slot*16+16])
		nbuf[offFPs+j] = buf[offFPs+e.slot]
		nbitmap |= 1 << uint(j)
	}
	binary.LittleEndian.PutUint64(nbuf[offBitmap:], nbitmap)
	copy(nbuf[offNext:], buf[offNext:offNext+8]) // inherit sibling
	t.dev.Persist(nbuf, newLeaf)

	// Commit the split on the old leaf: drop the moved entries from the
	// bitmap and point next at the new leaf. Both words share the first
	// cache line, so one flush publishes the split atomically.
	var oldBitmap uint64
	for _, e := range entries[:mid] {
		oldBitmap |= 1 << uint(e.slot)
	}
	var word [16]byte
	binary.LittleEndian.PutUint64(word[0:], oldBitmap)
	binary.LittleEndian.PutUint64(word[8:], uint64(newOff))
	t.dev.Persist(word[:], leaf+offBitmap)

	// DRAM directory update.
	t.dir = append(t.dir, dirEntry{})
	copy(t.dir[di+2:], t.dir[di+1:])
	t.dir[di+1] = dirEntry{minKey: sep, off: newOff}
	return nil
}

// BulkLoad fills an empty tree with n entries in strictly ascending key
// order at the given leaf fill factor. It writes leaves directly,
// bypassing the insert protocol, like an offline load.
func (t *Tree) BulkLoad(n int, keyAt func(i int) uint64, valAt func(i int) uint64, fill float64) error {
	if t.count != 0 || len(t.dir) != 1 {
		return fmt.Errorf("fptree: bulk load into non-empty tree")
	}
	if n <= 0 {
		return nil
	}
	if fill <= 0 || fill > 1 {
		fill = 1
	}
	per := int(fill * LeafEntries)
	if per < 1 {
		per = 1
	}
	t.dir = t.dir[:0]
	buf := make([]byte, leafSize)
	var prevOff int64 = -1
	for i := 0; i < n; {
		batch := per
		if n-i < batch {
			batch = n - i
		}
		off := t.next // allocate without the header round-trip; we write the whole leaf
		if off+leafSize > t.size {
			return ErrFull
		}
		t.next += leafSize
		for j := range buf {
			buf[j] = 0
		}
		var bitmap uint64
		for j := 0; j < batch; j++ {
			k := keyAt(i + j)
			binary.LittleEndian.PutUint64(buf[offEntries+j*16:], k)
			binary.LittleEndian.PutUint64(buf[offEntries+j*16+8:], valAt(i+j))
			buf[offFPs+j] = fingerprint(k)
			bitmap |= 1 << uint(j)
		}
		binary.LittleEndian.PutUint64(buf[offBitmap:], bitmap)
		t.dev.Persist(buf, t.off+off)
		if prevOff >= 0 {
			var nxt [8]byte
			binary.LittleEndian.PutUint64(nxt[:], uint64(off))
			t.dev.Persist(nxt[:], t.off+prevOff+offNext)
		} else {
			t.writeMeta(off)
		}
		minKey := keyAt(i)
		if len(t.dir) == 0 {
			minKey = 0
		}
		t.dir = append(t.dir, dirEntry{minKey: minKey, off: off})
		prevOff = off
		i += batch
	}
	t.count = n
	return nil
}

// Rebuild reconstructs the DRAM-resident inner structure by walking the
// persistent leaf chain, reading every leaf's header and keys from NVM.
// This is the restart cost Figure 17 measures for the FPTree (§A.5).
func (t *Tree) Rebuild() error {
	var meta [16]byte
	t.dev.ReadAt(meta[:], t.off)
	if binary.LittleEndian.Uint64(meta[0:]) != regionMagic {
		return fmt.Errorf("fptree: bad region magic")
	}
	head := int64(binary.LittleEndian.Uint64(meta[8:]))

	t.dir = t.dir[:0]
	t.count = 0
	maxOff := head
	off := head
	first := true
	for {
		leaf := t.off + off
		buf := make([]byte, leafSize)
		t.dev.ReadAt(buf, leaf)
		bitmap := binary.LittleEndian.Uint64(buf[offBitmap:])
		minKey := ^uint64(0)
		for i := 0; i < LeafEntries; i++ {
			if bitmap&(1<<uint(i)) != 0 {
				k := binary.LittleEndian.Uint64(buf[offEntries+i*16:])
				if k < minKey {
					minKey = k
				}
				t.count++
			}
		}
		if first {
			minKey = 0
			first = false
		}
		t.dir = append(t.dir, dirEntry{minKey: minKey, off: off})
		if off > maxOff {
			maxOff = off
		}
		next := int64(binary.LittleEndian.Uint64(buf[offNext:]))
		if next == 0 {
			break
		}
		off = next
	}
	t.next = maxOff + leafSize
	sort.Slice(t.dir, func(a, b int) bool { return t.dir[a].minKey < t.dir[b].minKey })
	return nil
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}
