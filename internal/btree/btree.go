// Package btree implements the B+-tree used by every storage engine in the
// reproduction.
//
// Following the paper's evaluation setup (§5.1), each table is a B+-tree
// with 16 kB pages; leaves store keys and fixed-size payloads in separate
// arrays sorted by key, and lookups use binary search. The tree runs on
// top of internal/core's buffer manager and therefore works unchanged
// across all five storage architectures.
//
// Cache-line-grained accesses are applied exactly where the paper applies
// them (§3.1): point operations (lookup, insert, delete, field update) fix
// leaves in core.ModeCacheLine and touch individual cache lines through
// the MakeResident-style Handle API, while inner-node traversal and
// restructuring use the full-page path. Scans are cache-line-grained too:
// that is what the overhead analysis of §5.4.2 measures.
//
// Two leaf layouts are provided: the default sorted layout, and an
// open-addressing hash layout ("3 Tier BM with hashing", §5.5) that
// reduces the number of NVM accesses per point lookup at the price of
// just-in-time sorting during scans.
//
// Trees are not safe for concurrent use (single-threaded evaluation,
// paper Appendix A.1).
package btree

import (
	"encoding/binary"
	"errors"
	"fmt"

	"nvmstore/internal/core"
)

// LeafLayout selects how leaf pages organize their entries.
type LeafLayout uint8

const (
	// LayoutSorted stores keys and payloads in sorted parallel arrays
	// and looks keys up by binary search (the paper's default).
	LayoutSorted LeafLayout = iota
	// LayoutHash stores entries in an open-addressing hash table,
	// touching ~2 NVM cache lines per point lookup instead of ~8 (§5.5).
	LayoutHash
)

// Node type tags (first byte of the node header).
const (
	nodeInner      byte = 1
	nodeLeafSorted byte = 2
	nodeLeafHash   byte = 3
)

// Node header layout. The header occupies the first cache line of the
// page; the paper's residency/dirty masks live out-of-band in the frame.
const (
	headerSize = core.LineSize
	offType    = 0
	offCount   = 2 // uint16
	offUsed    = 4 // uint16: occupied+tombstones (hash leaves)
	offNext    = 8 // uint64: right-sibling page id (leaves)
)

// Errors returned by tree operations.
var (
	// ErrDuplicateKey is returned by Insert when the key already exists.
	ErrDuplicateKey = errors.New("btree: duplicate key")
	// ErrPayloadSize is returned when a payload does not match the
	// tree's fixed payload size.
	ErrPayloadSize = errors.New("btree: wrong payload size")
)

// Logger receives every tree modification, with its redo and undo images,
// before the page changes, and every structural change once it is made.
// A field write reaches it as LogUpdate from Row.Update, the one field
// write (UpdateField and Put of a present key included); a new entry as
// LogInsert from Insert (and Put of an absent key).
// The engine binds it to the current transaction's WAL and decides how a
// structural change becomes durable; the tree keeps no durability state.
// A nil Logger logs nothing and makes nothing durable.
type Logger interface {
	LogInsert(treeID, key uint64, payload []byte) error
	LogDelete(treeID, key uint64, old []byte) error
	LogUpdate(treeID, key uint64, off int, before, after []byte) error
	// LogStructure reports one structural change, made on the fixed pages
	// it names in order: child, right and parent for a split, the changed
	// pages for a shift into the rightmost leaf. The change stays when
	// the surrounding transaction rolls back, like an ARIES nested top
	// action.
	LogStructure(pages ...core.Handle) error
	// LogRoot reports that tree treeID has a new root: root, fixed, where
	// a split grows the tree by a level, reported before the old root
	// splits; no handle where a bulk load replaced the root.
	LogRoot(treeID uint64, root core.Handle) error
}

// Tree is a B+-tree over fixed-size payloads keyed by uint64.
type Tree struct {
	m  *core.Manager
	id uint64

	root   core.Ref
	height int

	payload  int
	layout   LeafLayout
	leafCap  int
	hashCap  int
	hashMax  int // split threshold for hash leaves
	innerCap int

	logger Logger
	// perProbeInner makes inner-node searches read individual keys
	// instead of the whole page. The NVM Direct architecture works in
	// place and never loads pages, so charging it a full-page read for
	// an inner node would be wrong.
	perProbeInner bool
}

// Create allocates an empty tree (a single empty leaf) in m.
func Create(m *core.Manager, id uint64, payloadSize int, layout LeafLayout) (*Tree, error) {
	t, err := newTree(m, id, payloadSize, layout)
	if err != nil {
		return nil, err
	}
	h, err := m.Allocate()
	if err != nil {
		return nil, fmt.Errorf("btree: allocate root: %w", err)
	}
	t.initLeaf(h)
	t.root = core.MakeRef(h.PID())
	t.height = 1
	m.Unfix(h)
	return t, nil
}

// Load reopens a tree from its persisted root and height (as recorded in
// an engine catalog).
func Load(m *core.Manager, id uint64, payloadSize int, layout LeafLayout, root core.PageID, height int) (*Tree, error) {
	t, err := newTree(m, id, payloadSize, layout)
	if err != nil {
		return nil, err
	}
	if err := t.SetRoot(root, height); err != nil {
		return nil, err
	}
	return t, nil
}

func newTree(m *core.Manager, id uint64, payloadSize int, layout LeafLayout) (*Tree, error) {
	if payloadSize <= 0 || payloadSize > core.PageSize/2 {
		return nil, fmt.Errorf("btree: payload size %d out of range", payloadSize)
	}
	t := &Tree{
		m:       m,
		id:      id,
		payload: payloadSize,
		layout:  layout,
	}
	t.leafCap = (core.PageSize - headerSize) / (8 + payloadSize)
	t.hashCap = (core.PageSize - headerSize) / (1 + 8 + payloadSize)
	t.hashMax = t.hashCap * 8 / 10 // split at 80% occupancy
	t.innerCap = (core.PageSize - headerSize - 8) / 16
	if t.leafCap < 1 || t.hashCap < 2 {
		return nil, fmt.Errorf("btree: payload size %d leaves no room for entries", payloadSize)
	}
	t.perProbeInner = m.Config().Topology == core.DirectNVM
	return t, nil
}

// ID returns the tree identifier used in log records.
func (t *Tree) ID() uint64 { return t.id }

// Height returns the current tree height (1 = a single leaf).
func (t *Tree) Height() int { return t.height }

// PayloadSize returns the fixed payload size.
func (t *Tree) PayloadSize() int { return t.payload }

// Layout returns the tree's leaf layout.
func (t *Tree) Layout() LeafLayout { return t.layout }

// LeafCapacity returns the maximum number of entries per leaf.
func (t *Tree) LeafCapacity() int {
	if t.layout == LayoutHash {
		return t.hashMax
	}
	return t.leafCap
}

// RootPID returns the page id of the root, resolving a swizzled root
// reference. Engines persist it in their catalog.
func (t *Tree) RootPID() core.PageID {
	if t.root.Swizzled() {
		h, err := t.m.Fix(t.root, core.ModeFull)
		if err != nil {
			panic(fmt.Sprintf("btree: swizzled root unfixable: %v", err))
		}
		pid := h.PID()
		t.m.Unfix(h)
		return pid
	}
	return t.root.PageID()
}

// SetRoot makes root, a tree of the given height, the tree's root, as
// Load and the redo of an engine's root record do.
func (t *Tree) SetRoot(root core.PageID, height int) error {
	if root == core.InvalidPageID || height < 1 {
		return fmt.Errorf("btree: invalid root %d of height %d", root, height)
	}
	if err := t.detachRoot(); err != nil {
		return err
	}
	t.root = core.MakeRef(root)
	t.height = height
	return nil
}

// detachRoot unswizzles the root reference, so that no frame keeps a
// back-pointer into it before it is reassigned.
func (t *Tree) detachRoot() error {
	if !t.root.Swizzled() {
		return nil
	}
	h, err := t.m.Fix(t.root, core.ModeFull)
	if err != nil {
		return err
	}
	t.m.Unswizzle(h)
	t.m.Unfix(h)
	return nil
}

// SetLogger installs the WAL adapter for subsequent modifications.
func (t *Tree) SetLogger(l Logger) { t.logger = l }

// Offset helpers.

func (t *Tree) leafKeyOff(i int) int { return headerSize + i*8 }
func (t *Tree) leafPayOff(i int) int { return headerSize + t.leafCap*8 + i*t.payload }

func (t *Tree) hashStateOff(i int) int { return headerSize + i }
func (t *Tree) hashKeyOff(i int) int   { return headerSize + t.hashCap + i*8 }
func (t *Tree) hashPayOff(i int) int   { return headerSize + t.hashCap*(1+8) + i*t.payload }

func (t *Tree) innerKeyOff(i int) int   { return headerSize + i*8 }
func (t *Tree) innerChildOff(i int) int { return headerSize + t.innerCap*8 + i*8 }

// node is a node to read: a fixed page, read through its handle span by
// span (cache-line-grained), or, when data is set, the page's bytes
// already in hand — a node read in full, or a saved snapshot image.
type node struct {
	h    core.Handle
	data []byte
}

// read returns the node's bytes from off, of which the caller uses the
// first n: exactly [off, off+n) read through the handle, or, in hand,
// everything from off to the page's end. It inlines, so a probe through
// a handle is one call, the handle's access.
func (nd *node) read(off, n int) []byte {
	if nd.data == nil {
		return nd.h.Read(off, n)
	}
	return nd.data[off:]
}

// Small header accessors. Point operations read them cache-line-grained;
// the header shares the leaf's first line with nothing else.

func nodeCount(h core.Handle) int {
	return int(binary.LittleEndian.Uint16(h.Read(offCount, 2)))
}

func setNodeCount(h core.Handle, n int) {
	binary.LittleEndian.PutUint16(h.Write(offCount, 2), uint16(n))
}

func nodeUsed(h core.Handle) int {
	return int(binary.LittleEndian.Uint16(h.Read(offUsed, 2)))
}

func setNodeUsed(h core.Handle, n int) {
	binary.LittleEndian.PutUint16(h.Write(offUsed, 2), uint16(n))
}

func nodeType(h core.Handle) byte { return h.Read(offType, 1)[0] }

func leafNext(h core.Handle) core.PageID {
	return core.PageID(binary.LittleEndian.Uint64(h.Read(offNext, 8)))
}

func setLeafNext(h core.Handle, pid core.PageID) {
	binary.LittleEndian.PutUint64(h.Write(offNext, 8), uint64(pid))
}

func (t *Tree) initLeaf(h core.Handle) {
	data := h.WriteAll()
	for i := range data[:headerSize] {
		data[i] = 0
	}
	if t.layout == LayoutHash {
		data[offType] = nodeLeafHash
		// Hash leaves need their state bytes zeroed; fresh pages are
		// zero already, but splits reuse scratch-built pages.
		for i := 0; i < t.hashCap; i++ {
			data[t.hashStateOff(i)] = slotEmpty
		}
	} else {
		data[offType] = nodeLeafSorted
	}
}

func (t *Tree) initInner(h core.Handle) {
	data := h.WriteAll()
	for i := range data[:headerSize] {
		data[i] = 0
	}
	data[offType] = nodeInner
}

// leafMode returns the access mode for leaves on point operations.
func (t *Tree) leafMode() core.AccessMode { return core.ModeCacheLine }

// modeFor returns the fix mode for a node at the given level during a
// point operation: inner nodes always load fully (the paper's hint that
// inner traversal should not be cache-line-grained), leaves load
// cache-line-grained.
func (t *Tree) modeFor(level int, leafMode core.AccessMode) core.AccessMode {
	if level == t.height-1 {
		return leafMode
	}
	return core.ModeFull
}

// innerSearch returns the child index to follow for key. Inner nodes are
// fixed with ModeFull, so the whole page is in hand, free of residency
// checks; on the in-place NVM Direct architecture each probe reads only
// its key word.
func (t *Tree) innerSearch(h core.Handle, key uint64) int {
	nd := node{h: h}
	if !t.perProbeInner {
		nd.data = h.ReadAll()
	}
	lo, hi := 0, int(binary.LittleEndian.Uint16(nd.read(offCount, 2)))
	for lo < hi {
		mid := (lo + hi) / 2
		if binary.LittleEndian.Uint64(nd.read(t.innerKeyOff(mid), 8)) <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// leafSearch is the one search of a sorted leaf: a binary search that,
// through a handle, makes one 8-byte key resident per probe. It returns
// the position of the first key >= key and whether that key is key.
func (t *Tree) leafSearch(nd node, key uint64) (int, bool) {
	count := int(binary.LittleEndian.Uint16(nd.read(offCount, 2)))
	lo, hi := 0, count
	for lo < hi {
		mid := (lo + hi) / 2
		if binary.LittleEndian.Uint64(nd.read(t.leafKeyOff(mid), 8)) < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < count && binary.LittleEndian.Uint64(nd.read(t.leafKeyOff(lo), 8)) == key
}

// findLeaf descends to the leaf covering key, fixing it with leafMode and
// unfixing all inner nodes on the way.
func (t *Tree) findLeaf(key uint64, leafMode core.AccessMode) (core.Handle, error) {
	h, err := t.m.FixRoot(&t.root, t.modeFor(0, leafMode))
	if err != nil {
		return core.Handle{}, err
	}
	for lvl := 0; lvl < t.height-1; lvl++ {
		idx := t.innerSearch(h, key)
		child, err := t.m.FixChild(h, t.innerChildOff(idx), t.modeFor(lvl+1, leafMode))
		t.m.Unfix(h)
		if err != nil {
			return core.Handle{}, err
		}
		h = child
	}
	return h, nil
}

// Lookup copies the payload of key into buf (which must be PayloadSize
// bytes) and reports whether the key was found.
func (t *Tree) Lookup(key uint64, buf []byte) (bool, error) {
	return t.lookupField(key, 0, t.payload, buf)
}

// LookupField copies n bytes at byte offset off of key's payload into buf.
// This is the cache-line-grained fast path: only the probed keys and the
// requested field become resident.
func (t *Tree) LookupField(key uint64, off, n int, buf []byte) (bool, error) {
	return t.lookupField(key, off, n, buf)
}

func (t *Tree) lookupField(key uint64, off, n int, buf []byte) (bool, error) {
	if err := t.checkField(off, n); err != nil {
		return false, err
	}
	if len(buf) < n {
		return false, fmt.Errorf("btree: buffer of %d bytes for field of %d", len(buf), n)
	}
	return t.Access(key, func(r Row) error {
		copy(buf, r.h.Read(r.payBase+off, n))
		return nil
	})
}

// UpdateField overwrites len(val) bytes at byte offset off of key's
// payload (Row.Update) and reports whether the key was found.
func (t *Tree) UpdateField(key uint64, off int, val []byte) (bool, error) {
	if err := t.checkField(off, len(val)); err != nil {
		return false, err
	}
	return t.Access(key, func(r Row) error { return r.Update(off, val) })
}

// checkField rejects a field [off, off+n) that is not inside the payload.
func (t *Tree) checkField(off, n int) error {
	if off < 0 || n < 0 || off+n > t.payload {
		return fmt.Errorf("btree: field [%d,%d) outside payload of %d bytes", off, off+n, t.payload)
	}
	return nil
}

// Put is the tree's one upsert. If key is present it overwrites the
// leading len(row) bytes of its payload, like UpdateField, and splits
// nothing; otherwise it inserts row, zero-padded to the payload size. A
// row longer than the payload fails.
// Recovery's redo and undo and the engine's Rollback use it too: redoing
// an insert against a page that already saw it overwrites in place.
func (t *Tree) Put(key uint64, row []byte) error {
	found, err := t.UpdateField(key, 0, row)
	if err != nil || found {
		return err
	}
	if len(row) < t.payload {
		row = append(row[:len(row):len(row)], make([]byte, t.payload-len(row))...)
	}
	return t.Insert(key, row)
}

// Insert adds key with the given payload. It fails with ErrDuplicateKey if
// the key exists. Splits encountered on the way down are performed
// preemptively (top-down splitting), so a parent always has room for a
// separator from a splitting child.
func (t *Tree) Insert(key uint64, payload []byte) error {
	if len(payload) != t.payload {
		return fmt.Errorf("btree: payload of %d bytes, tree holds %d: %w", len(payload), t.payload, ErrPayloadSize)
	}
	h, err := t.m.FixRoot(&t.root, t.modeFor(0, t.leafMode()))
	if err != nil {
		return err
	}
	// Preemptive root split.
	if t.nodeFull(h) {
		h, err = t.splitRoot(h)
		if err != nil {
			return err
		}
	}
	// rightmost tracks whether h is the last node of its level, so that its
	// last child is too.
	rightmost := true
	for lvl := 0; lvl < t.height-1; lvl++ {
		idx := t.innerSearch(h, key)
		child, err := t.m.FixChild(h, t.innerChildOff(idx), t.modeFor(lvl+1, t.leafMode()))
		if err != nil {
			t.m.Unfix(h)
			return err
		}
		if t.nodeFull(child) {
			// Make room in the child using h as the (non-full) parent:
			// shift its upper entries into the rightmost leaf if that is
			// its right sibling, else split it. Then re-route to the
			// correct side.
			var sep uint64
			shifted := false
			if rightmost && lvl == t.height-2 && idx == nodeCount(h)-1 && t.layout == LayoutSorted {
				sep, shifted, err = t.shiftToRightmost(h, child, idx, key)
			}
			if err == nil && !shifted {
				sep, err = t.splitChild(h, child, idx)
			}
			if err != nil {
				t.m.Unfix(child)
				t.m.Unfix(h)
				return err
			}
			t.m.Unfix(child)
			if key >= sep {
				idx++
			}
			child, err = t.m.FixChild(h, t.innerChildOff(idx), t.modeFor(lvl+1, t.leafMode()))
			if err != nil {
				t.m.Unfix(h)
				return err
			}
		}
		rightmost = rightmost && idx == nodeCount(h)
		t.m.Unfix(h)
		h = child
	}
	defer t.m.Unfix(h)
	if t.layout == LayoutHash {
		return t.hashInsert(h, key, payload)
	}
	return t.sortedInsert(h, key, payload)
}

// Delete removes key and reports whether it was present. Leaves are never
// merged; an empty leaf simply stays in place, as is common in research
// prototypes (deletes are rare in the evaluated workloads).
func (t *Tree) Delete(key uint64) (bool, error) {
	h, err := t.findLeaf(key, t.leafMode())
	if err != nil {
		return false, err
	}
	defer t.m.Unfix(h)
	if t.layout == LayoutHash {
		return t.hashDelete(h, key)
	}
	return t.sortedDelete(h, key)
}

// nodeFull reports whether a node must be split before inserting into it.
func (t *Tree) nodeFull(h core.Handle) bool {
	switch nodeType(h) {
	case nodeInner:
		return nodeCount(h) >= t.innerCap
	case nodeLeafHash:
		return nodeUsed(h) >= t.hashMax
	default:
		return nodeCount(h) >= t.leafCap
	}
}

// splitRoot grows the tree by one level: a fresh inner root adopts the old
// root as its only child and is reported to the Logger before the old root
// is split as its child, so a crash between the two leaves a tree one
// level taller that still holds every key. Returns the new root, fixed.
func (t *Tree) splitRoot(oldRoot core.Handle) (core.Handle, error) {
	t.m.Unswizzle(oldRoot) // detach the old root from the root holder
	newRoot, err := t.m.Allocate()
	if err != nil {
		t.m.Unfix(oldRoot)
		return core.Handle{}, fmt.Errorf("btree: allocate new root: %w", err)
	}
	t.initInner(newRoot)
	data := newRoot.WriteAll()
	binary.LittleEndian.PutUint64(data[t.innerChildOff(0):], uint64(core.MakeRef(oldRoot.PID())))
	t.root = core.MakeRef(newRoot.PID())
	t.height++
	if t.logger != nil {
		err = t.logger.LogRoot(t.id, newRoot)
	}
	if err == nil {
		_, err = t.splitChild(newRoot, oldRoot, 0)
	}
	t.m.Unfix(oldRoot)
	if err != nil {
		t.m.Unfix(newRoot)
		return core.Handle{}, err
	}
	return newRoot, nil
}

// splitChild splits child (the idx-th child of parent, which must not be
// full), inserts the separator into parent and reports the three pages to
// the Logger, which makes the split durable. It returns the separator key.
func (t *Tree) splitChild(parent, child core.Handle, idx int) (uint64, error) {
	right, err := t.m.Allocate()
	if err != nil {
		return 0, fmt.Errorf("btree: allocate split page: %w", err)
	}
	var sep uint64
	switch nodeType(child) {
	case nodeInner:
		sep = t.splitInner(child, right)
	case nodeLeafHash:
		t.noteLeafWrite(child)
		t.m.Versions().NoteNewPage(right.PID())
		sep = t.splitHashLeaf(child, right)
	default:
		t.noteLeafWrite(child)
		t.m.Versions().NoteNewPage(right.PID())
		sep = t.splitSortedLeaf(child, right)
	}
	t.innerInsertSep(parent, idx, sep, right.PID())
	if t.logger != nil {
		err = t.logger.LogStructure(child, right, parent)
	}
	t.m.Unfix(right)
	return sep, err
}

// shiftToRightmost makes room in child, a full sorted leaf whose right
// sibling under parent is the rightmost leaf, by moving its entries >= key
// to the front of that sibling instead of splitting: a slower writer's
// late keys fill the left page of the last rightmost split, and a 1:1
// split of it would leave two half-empty leaves behind an ascending load.
// It changes nothing and reports false unless the sibling is the
// rightmost leaf, at most half of child's entries move, and the sibling
// has room for them and key. Otherwise it lowers the parent's separator to
// the first moved key, or to key itself when nothing moves, and returns
// it. The sibling's routed range widens, which the version store records
// for snapshot scans (core.Versions.NoteWidened). Like splitChild, it
// reports the changed pages to the Logger; it allocates nothing.
func (t *Tree) shiftToRightmost(parent, child core.Handle, idx int, key uint64) (uint64, bool, error) {
	sib, err := t.m.FixChild(parent, t.innerChildOff(idx+1), t.leafMode())
	if err != nil {
		return 0, false, err
	}
	defer t.m.Unfix(sib)
	if leafNext(sib) != core.InvalidPageID {
		return 0, false, nil
	}
	count, sibCount := nodeCount(child), nodeCount(sib)
	pos, _ := t.leafSearch(node{h: child}, key)
	moved := count - pos
	if 2*moved > count || sibCount+moved+1 > t.leafCap {
		return 0, false, nil
	}
	sep := key
	changed := []core.Handle{parent}
	if moved > 0 {
		t.noteLeafWrite(child)
		t.noteLeafWrite(sib)
		n := sibCount + moved
		kb := sib.Write(t.leafKeyOff(0), n*8)
		copy(kb[moved*8:], kb[:sibCount*8])
		copy(kb, child.Read(t.leafKeyOff(pos), moved*8))
		pb := sib.Write(t.leafPayOff(0), n*t.payload)
		copy(pb[moved*t.payload:], pb[:sibCount*t.payload])
		copy(pb, child.Read(t.leafPayOff(pos), moved*t.payload))
		setNodeCount(sib, n)
		setNodeCount(child, pos)
		sep = binary.LittleEndian.Uint64(sib.Read(t.leafKeyOff(0), 8))
		changed = []core.Handle{child, sib, parent}
	}
	t.m.Versions().NoteWidened(sib.PID())
	binary.LittleEndian.PutUint64(parent.Write(t.innerKeyOff(idx), 8), sep)
	if t.logger != nil {
		if err := t.logger.LogStructure(changed...); err != nil {
			return 0, false, err
		}
	}
	return sep, true, nil
}

// rightmostFillTenths is how full, in tenths, a split leaves the left
// page of a leaf that has no right sibling. An insert that lands there
// lies beyond every key in the tree, as auto-increment ids and timestamps
// do, and an ascending load that split such a leaf 1:1 would leave every
// page it passes half empty. Nine tenths rather than all but one entry:
// keys that arrive slightly out of order (several pipelined writers) still
// land in the left page, and a full left page would then split 1:1.
// PostgreSQL's nbtree splits its rightmost page the same way.
const rightmostFillTenths = 9

// splitPoint returns how many of a splitting leaf's count entries stay in
// the left page: half of them, or, for the rightmost leaf,
// rightmostFillTenths of them. From two entries on, that is at least half
// and never all (1 of 2, 2 of 3, 14 of 16), so neither page is left empty.
func splitPoint(count int, rightmost bool) int {
	if rightmost {
		return rightmostFillTenths * count / 10
	}
	return count / 2
}

// splitSortedLeaf moves the entries past splitPoint from child into right
// and links the sibling chain. Returns the separator (first key of right).
func (t *Tree) splitSortedLeaf(child, right core.Handle) uint64 {
	t.initLeaf(right)
	src := child.WriteAll()
	dst := right.WriteAll()
	count := int(binary.LittleEndian.Uint16(src[offCount:]))
	next := core.PageID(binary.LittleEndian.Uint64(src[offNext:]))
	mid := splitPoint(count, next == core.InvalidPageID)
	moved := count - mid
	copy(dst[t.leafKeyOff(0):], src[t.leafKeyOff(mid):t.leafKeyOff(count)])
	copy(dst[t.leafPayOff(0):], src[t.leafPayOff(mid):t.leafPayOff(count)])
	binary.LittleEndian.PutUint16(src[offCount:], uint16(mid))
	binary.LittleEndian.PutUint16(dst[offCount:], uint16(moved))
	// Sibling chain: right inherits child's next, child points to right.
	copy(dst[offNext:offNext+8], src[offNext:offNext+8])
	binary.LittleEndian.PutUint64(src[offNext:], uint64(right.PID()))
	return binary.LittleEndian.Uint64(dst[t.leafKeyOff(0):])
}

// splitInner moves the upper half of child into right, promoting the
// middle separator. Child references move, so both nodes' swizzled
// children are unswizzled first.
func (t *Tree) splitInner(child, right core.Handle) uint64 {
	t.m.UnswizzleChildren(child)
	t.initInner(right)
	src := child.WriteAll()
	dst := right.WriteAll()
	count := int(binary.LittleEndian.Uint16(src[offCount:]))
	mid := count / 2
	sep := binary.LittleEndian.Uint64(src[t.innerKeyOff(mid):])
	moved := count - mid - 1
	copy(dst[t.innerKeyOff(0):], src[t.innerKeyOff(mid+1):t.innerKeyOff(count)])
	copy(dst[t.innerChildOff(0):], src[t.innerChildOff(mid+1):t.innerChildOff(count+1)])
	binary.LittleEndian.PutUint16(src[offCount:], uint16(mid))
	binary.LittleEndian.PutUint16(dst[offCount:], uint16(moved))
	return sep
}

// innerInsertSep inserts separator sep with right child pid at position
// idx of parent, which must have room. Child references shift, so
// swizzled children are unswizzled first.
func (t *Tree) innerInsertSep(parent core.Handle, idx int, sep uint64, rightPID core.PageID) {
	t.m.UnswizzleChildren(parent)
	data := parent.WriteAll()
	count := int(binary.LittleEndian.Uint16(data[offCount:]))
	copy(data[t.innerKeyOff(idx+1):t.innerKeyOff(count+1)], data[t.innerKeyOff(idx):t.innerKeyOff(count)])
	copy(data[t.innerChildOff(idx+2):t.innerChildOff(count+2)], data[t.innerChildOff(idx+1):t.innerChildOff(count+1)])
	binary.LittleEndian.PutUint64(data[t.innerKeyOff(idx):], sep)
	binary.LittleEndian.PutUint64(data[t.innerChildOff(idx+1):], uint64(core.MakeRef(rightPID)))
	binary.LittleEndian.PutUint16(data[offCount:], uint16(count+1))
}
