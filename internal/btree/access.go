package btree

import (
	"fmt"

	"nvmstore/internal/core"
)

// Row gives field-level access to one entry while its leaf stays fixed,
// so a transaction can read and update several fields of a row with a
// single tree descent. Obtain one through Access; it is only valid inside
// the callback. Its Update is the tree's one field write.
type Row struct {
	t       *Tree
	h       core.Handle
	key     uint64
	payBase int
}

// Read returns a read-only view of n payload bytes at off. The slice is
// valid until the next Read or Update on the same row: loading further
// cache lines may relocate a mini page's data. Copy fields out before
// updating.
func (r Row) Read(off, n int) []byte {
	if off < 0 || n <= 0 || off+n > r.t.payload {
		panic(fmt.Sprintf("btree: row access [%d,%d) outside payload of %d bytes", off, off+n, r.t.payload))
	}
	return r.h.Read(r.payBase+off, n)
}

// Get copies n payload bytes at off into dst.
func (r Row) Get(off, n int, dst []byte) {
	copy(dst, r.Read(off, n))
}

// U16 reads a little-endian uint16 field.
func (r Row) U16(off int) uint16 {
	b := r.Read(off, 2)
	return uint16(b[0]) | uint16(b[1])<<8
}

// U32 reads a little-endian uint32 field.
func (r Row) U32(off int) uint32 {
	b := r.Read(off, 4)
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// I64 reads a little-endian int64 field.
func (r Row) I64(off int) int64 {
	b := r.Read(off, 8)
	v := uint64(0)
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return int64(v)
}

// Update overwrites len(val) payload bytes at off: the tree's one field
// write, which UpdateField and Put of a present key go through too. An
// open snapshot keeps the leaf's image from before it (noteLeafWrite), and
// the before and after images go to the Logger.
func (r Row) Update(off int, val []byte) error {
	if err := r.t.checkField(off, len(val)); err != nil {
		return err
	}
	r.t.noteLeafWrite(r.h)
	if r.t.logger == nil {
		copy(r.h.Write(r.payBase+off, len(val)), val)
		return nil
	}
	// The after-image logged here is all that changes on the page, so the
	// leaf's write-back needs no undo journal (core.Handle.Overwrite).
	dst := r.h.Overwrite(r.payBase+off, len(val))
	if err := r.t.logger.LogUpdate(r.t.id, r.key, off, dst, val); err != nil {
		return err
	}
	copy(dst, val)
	return nil
}

// Access locates key and, if present, calls fn with a Row for it; the
// leaf stays fixed for the duration of fn. It reports whether the key was
// found. Every keyed read and field write of the tree goes through it:
// Lookup, LookupField, UpdateField, Put, and the one-descent
// read-modify-write path transactions use.
func (t *Tree) Access(key uint64, fn func(r Row) error) (bool, error) {
	h, err := t.findLeaf(key, t.leafMode())
	if err != nil {
		return false, err
	}
	defer t.m.Unfix(h)
	search, payOff := t.leafSearch, t.leafPayOff
	if t.layout == LayoutHash {
		search, payOff = t.hashSearch, t.hashPayOff
	}
	i, found := search(node{h: h}, key)
	if !found {
		return false, nil
	}
	return true, fn(Row{t: t, h: h, key: key, payBase: payOff(i)})
}
