package core

import (
	"encoding/binary"
	"fmt"
	"strings"

	"nvmstore/internal/nvm"
	"nvmstore/internal/obs"
	"nvmstore/internal/simclock"
	"nvmstore/internal/ssd"
)

// Topology selects which of the paper's five storage architectures a
// Manager implements.
type Topology uint8

const (
	// MemOnly keeps every page in DRAM ("Main Memory" in the paper).
	// Capacity is limited by Config.DRAMBytes; there is no page-based
	// persistence, only the WAL.
	MemOnly Topology = iota
	// DRAMSSD is a traditional buffer manager: DRAM cache over SSD
	// ("SSD BM").
	DRAMSSD
	// DRAMNVM stores all pages on NVM and caches them in DRAM
	// ("Basic NVM BM" when page-grained; the drill-down experiment of
	// §5.4.1 enables the optimizations on this topology one by one).
	DRAMNVM
	// ThreeTier uses DRAM and NVM as caches over SSD — the paper's
	// contribution.
	ThreeTier
	// DirectNVM works on NVM in place with no DRAM buffering
	// ("NVM Direct").
	DirectNVM
)

// String implements fmt.Stringer using the paper's system names.
func (t Topology) String() string {
	switch t {
	case MemOnly:
		return "Main Memory"
	case DRAMSSD:
		return "SSD BM"
	case DRAMNVM:
		return "Basic NVM BM"
	case ThreeTier:
		return "3 Tier BM"
	case DirectNVM:
		return "NVM Direct"
	default:
		return fmt.Sprintf("Topology(%d)", uint8(t))
	}
}

// topologyNames holds each topology's short name, the value the
// commands' -arch flags take, in the order `nvmstore archs` lists them.
var topologyNames = []struct {
	name string
	t    Topology
}{
	{"3tier", ThreeTier},
	{"mem", MemOnly},
	{"direct", DirectNVM},
	{"basic", DRAMNVM},
	{"ssd", DRAMSSD},
}

// Topologies returns every topology in the order `nvmstore archs` lists
// them.
func Topologies() []Topology {
	out := make([]Topology, len(topologyNames))
	for i, n := range topologyNames {
		out[i] = n.t
	}
	return out
}

// Name returns the topology's short name, the value -arch takes.
func (t Topology) Name() string {
	for _, n := range topologyNames {
		if n.t == t {
			return n.name
		}
	}
	return t.String()
}

// ParseTopology returns the topology whose short name is name.
func ParseTopology(name string) (Topology, error) {
	names := make([]string, len(topologyNames))
	for i, n := range topologyNames {
		if n.name == name {
			return n.t, nil
		}
		names[i] = n.name
	}
	return 0, fmt.Errorf("unknown architecture %q (have %s)", name, strings.Join(names, ", "))
}

// NVM device layout: a WAL region, one superblock page, the write-back
// undo journal, a table of one header line per page slot, then the slots'
// data, PageSize bytes each from a PageSize boundary on. Aligned, the
// unused tail of a partly filled page covers whole host pages, which the
// NVM device then leaves unmapped (nvm.Device.WriteAt). slotSize is what
// one slot takes of Config.NVMBytes: its header line and its data.
const (
	superSize     = 4096
	slotSize      = LineSize + PageSize
	userMetaMax   = 1024
	superMagic    = 0x4e564d53544f5245 // "NVMSTORE"
	slotMagic     = 0x50414745         // "PAGE"
	slotFlagDirty = 1 << 0             // NVM copy is newer than the SSD copy

	// The undo journal (see journalArm) holds one header line, a line-
	// index array, and up to a full page of saved cache lines.
	journalMagic      = 0x4a524e4c // "JRNL"
	journalIndexLines = (LinesPerPage*2 + LineSize - 1) / LineSize
	journalSize       = (1+journalIndexLines)*LineSize + PageSize

	// nvmAgeEvery × the NVM slot count is how many page loads halve every
	// load count (noteLoad): what the admission duel remembers. A
	// constant, chosen by the sweep in EXPERIMENTS.md "Ablation".
	nvmAgeEvery = 16
)

// Config describes a Manager. The zero value is not valid; at minimum
// Topology and the capacities the topology needs must be set.
type Config struct {
	Topology Topology

	// DRAMBytes bounds the DRAM buffer pool (page data plus the paper's
	// per-page header sizes). Zero means unlimited, which is the normal
	// setting for MemOnly.
	DRAMBytes int64
	// NVMBytes is the NVM capacity available for page slots. The WAL
	// region and superblock are reserved on top of it.
	NVMBytes int64
	// SSDBytes is the SSD capacity.
	SSDBytes int64
	// WALBytes is the size of the NVM log region (default 16 MB).
	WALBytes int64

	// CacheLineGrained enables loading NVM-backed pages one cache line
	// at a time (§3.1). Without it the manager is page-grained.
	CacheLineGrained bool
	// MiniPages enables 1 KB mini pages (§3.2); requires
	// CacheLineGrained.
	MiniPages bool
	// Swizzling enables pointer swizzling (§3.3).
	Swizzling bool

	// AlwaysAdmit turns the NVM admission duel (§4.2, see nvmSlotFor) off:
	// every page evicted from DRAM enters NVM, evicting a slot if it must.
	AlwaysAdmit bool

	// CPUCacheBytes sizes the simulated CPU cache in front of NVM. Zero
	// keeps nvm.DefaultConfig's; negative disables it. Every other device
	// setting is nvm.DefaultConfig's or ssd.DefaultConfig's.
	CPUCacheBytes int64

	// StrictPersistence makes unflushed NVM writes vanish on Crash
	// (see internal/nvm); used by recovery tests.
	StrictPersistence bool

	// DebugChecks enables the §A.6 debugging mode: freshly allocated
	// frames are poisoned, and on eviction every resident-but-clean
	// cache line is verified against its NVM backing.
	DebugChecks bool

	// Recorder, when non-nil, receives latency samples at every tier
	// boundary (see internal/obs). It is also installed on the manager's
	// NVM and SSD devices. Nil disables all recording at the cost of one
	// nil check per boundary.
	Recorder *obs.Collector
}

func (c *Config) applyDefaults() {
	if c.WALBytes == 0 {
		c.WALBytes = 16 << 20
	}
	// The log must hold the page images of the largest transaction's
	// structural changes.
	if c.WALBytes < 1<<20 {
		c.WALBytes = 1 << 20
	}
}

func (c *Config) validate() error {
	switch c.Topology {
	case MemOnly:
	case DRAMSSD:
		if c.SSDBytes <= 0 {
			return fmt.Errorf("core: topology %v requires SSDBytes", c.Topology)
		}
	case DRAMNVM, DirectNVM:
		if c.NVMBytes <= 0 {
			return fmt.Errorf("core: topology %v requires NVMBytes", c.Topology)
		}
	case ThreeTier:
		if c.NVMBytes <= 0 || c.SSDBytes <= 0 {
			return fmt.Errorf("core: topology %v requires NVMBytes and SSDBytes", c.Topology)
		}
	default:
		return fmt.Errorf("core: unknown topology %d", c.Topology)
	}
	if c.Topology != MemOnly && c.Topology != DirectNVM {
		if c.DRAMBytes > 0 && c.DRAMBytes < 4*fullFrameBytes {
			return fmt.Errorf("core: DRAMBytes %d below minimum of %d", c.DRAMBytes, 4*fullFrameBytes)
		}
	}
	if c.MiniPages && !c.CacheLineGrained {
		return fmt.Errorf("core: MiniPages requires CacheLineGrained")
	}
	return nil
}

// WriteCause names why the buffer manager wrote to a device. Every line it
// flushes to NVM and every page it writes to SSD is charged to exactly one
// cause (Stats.NVMLinesWrittenBy, Stats.SSDPagesWrittenBy); what the NVM
// device counts beyond their sum is the write-ahead log, which shares the
// device but not this package.
type WriteCause uint8

const (
	causeDRAMEvict  WriteCause = iota // a frame's content, written back on DRAM eviction
	causeCkpt                         // the same, by a checkpoint walk (FlushSome, FlushAll)
	causeSplitForce                   // the same, by ForceWrite (no production path forces a buffered frame)
	causeInPlace                      // dirty lines of an in-place (NVM Direct) page
	causeNVMAdmit                     // the page copy that admits a frame to an NVM slot
	CauseJournal                      // the write-back undo journal: saved lines, arm, disarm, replay
	causeSlotMeta                     // slot headers and the superblock
	causeNVMEvict                     // an NVM slot's page going to SSD on NVM eviction
	numWriteCauses
)

var writeCauseNames = [numWriteCauses]string{"dram-evict", "ckpt", "split-force", "in-place",
	"nvm-admit", "journal", "slot-meta", "nvm-evict"}

// String returns the short name used in experiment notes.
func (c WriteCause) String() string { return writeCauseNames[c] }

// Stats counts buffer-manager events since the last ResetStats.
type Stats struct {
	Fixes            int64 // page fixes of any kind
	SwizzleHits      int64 // fixes resolved through a swizzled reference
	TableHits        int64 // fixes resolved to a DRAM frame via the table
	Swizzles         int64 // references turned into swizzled pointers
	SSDLoads         int64 // pages read from SSD into DRAM
	NVMPageLoads     int64 // whole pages read from NVM (page-grained mode)
	LinesLoaded      int64 // cache lines read from NVM (cache-line mode)
	LineLoadRequests int64 // device reads that fetched LinesLoaded, one per run of missing lines
	MiniAllocs       int64 // mini pages allocated
	FullAllocs       int64 // full pages allocated
	MiniPromotions   int64 // mini pages promoted to full pages
	DRAMEvictions    int64 // frames evicted from DRAM
	NVMAdmissions    int64 // pages admitted to the NVM cache
	NVMDenials       int64 // pages denied NVM admission
	NVMEvictions     int64 // pages evicted from the NVM cache
	DirectFixes      int64 // in-place fixes (DirectNVM topology)
	JournalUndos     int64 // interrupted write-backs undone at restart

	// NVMLinesWrittenBy and SSDPagesWrittenBy split the manager's device
	// writes by WriteCause (index with the cause, name with its String).
	NVMLinesWrittenBy [numWriteCauses]int64
	SSDPagesWrittenBy [numWriteCauses]int64
}

// Add folds other into s, for aggregating per-shard counters.
func (s *Stats) Add(other Stats) {
	s.Fixes += other.Fixes
	s.SwizzleHits += other.SwizzleHits
	s.TableHits += other.TableHits
	s.Swizzles += other.Swizzles
	s.SSDLoads += other.SSDLoads
	s.NVMPageLoads += other.NVMPageLoads
	s.LinesLoaded += other.LinesLoaded
	s.LineLoadRequests += other.LineLoadRequests
	s.MiniAllocs += other.MiniAllocs
	s.FullAllocs += other.FullAllocs
	s.MiniPromotions += other.MiniPromotions
	s.DRAMEvictions += other.DRAMEvictions
	s.NVMAdmissions += other.NVMAdmissions
	s.NVMDenials += other.NVMDenials
	s.NVMEvictions += other.NVMEvictions
	s.DirectFixes += other.DirectFixes
	s.JournalUndos += other.JournalUndos
	for c := range s.NVMLinesWrittenBy {
		s.NVMLinesWrittenBy[c] += other.NVMLinesWrittenBy[c]
		s.SSDPagesWrittenBy[c] += other.SSDPagesWrittenBy[c]
	}
}

// nvmSlotMeta is the in-DRAM directory entry for one NVM page slot
// (ThreeTier only).
type nvmSlotMeta struct {
	pid         PageID // 0 = free
	referenced  bool
	dirtyWrtSSD bool
}

// Manager is the storage engine's buffer manager. See the package comment
// for the design. Create one with New; the zero value is not usable.
type Manager struct {
	cfg Config
	clk *simclock.Clock
	nvm *nvm.Device
	ssd *ssd.Device

	// Combined page table (§4.3): pid -> DRAM frame or NVM slot.
	table map[PageID]location

	// Frame table: stable indices so swizzled references stay valid.
	frames     []*Frame
	freeFrames []int32
	clockHand  int
	dramUsed   int64
	dramCap    int64 // 0 = unlimited

	fullPool [][]byte
	miniPool [][]byte
	// spareFrames holds dropped Frame structs for newFrame to reuse, as
	// the pools above hold their data, so that a page entering DRAM
	// allocates nothing. Unused under DebugChecks: there a dropped frame
	// stays dead, and a stale Handle to it fails on its nil data instead of
	// reaching whichever page the struct would have been reused for.
	spareFrames []*Frame

	// NVM page-slot bookkeeping: headersOff is the slot header table,
	// slotsOff the first slot's data.
	nvmSlots   int64
	headersOff int64
	slotsOff   int64
	journalOff int64
	journalBuf []byte
	nvmDir     []nvmSlotMeta // ThreeTier only
	freeSlots  []int64       // ThreeTier only; the lowest slot is last
	nvmHand    int64

	// loads[pid] counts how often the page entered DRAM (install), the
	// evidence the admission duel compares (ThreeTier only); see noteLoad.
	loads      []uint8
	loadsSince int64 // loads since every count was last halved

	nextPID  PageID
	ssdPages int64

	stats   Stats
	scratch []byte
	rec     *obs.Collector
	obsHits int64 // DRAM hits batched for the recorder, see recordHit

	// vers is the multi-version read-path state (per-page version
	// counters and the copy-on-write version store); see versions.go.
	vers *Versions

	// writeBarrier, when set, runs before any dirty page content reaches
	// persistent storage. Engines install one that appends the undo of
	// the running transaction's changes and flushes the WAL, so the
	// write-ahead rule holds under page steal: no modified page is ever
	// persisted before the log records that redo or undo the modification.
	writeBarrier func()
}

// SetWriteBarrier installs fn to run before dirty page content is written
// to NVM or SSD (eviction, admission, or ForceWrite). See the field
// comment.
func (m *Manager) SetWriteBarrier(fn func()) { m.writeBarrier = fn }

// New creates a Manager and its simulated devices.
func New(cfg Config) (*Manager, error) {
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m := &Manager{
		cfg:     cfg,
		clk:     &simclock.Clock{},
		table:   make(map[PageID]location),
		dramCap: cfg.DRAMBytes,
		nextPID: 1,
		scratch: make([]byte, PageSize),
		rec:     cfg.Recorder,
		vers:    newVersions(),
	}
	m.nvmSlots = cfg.NVMBytes / slotSize
	m.journalOff = cfg.WALBytes + superSize
	m.headersOff = m.journalOff + journalSize
	m.slotsOff = (m.headersOff + m.nvmSlots*LineSize + PageSize - 1) / PageSize * PageSize
	m.journalBuf = make([]byte, journalIndexLines*LineSize+PageSize)
	nvmCfg := nvm.DefaultConfig(m.slotsOff + m.nvmSlots*PageSize)
	nvmCfg.StrictPersistence = cfg.StrictPersistence
	if cfg.CPUCacheBytes != 0 {
		nvmCfg.CPUCacheBytes = max(cfg.CPUCacheBytes, 0)
	}
	m.nvm = nvm.New(nvmCfg, m.clk)
	m.nvm.SetRecorder(m.rec)
	if cfg.SSDBytes > 0 {
		m.ssdPages = cfg.SSDBytes / PageSize
		m.ssd = ssd.New(ssd.DefaultConfig(PageSize, m.ssdPages), m.clk)
		m.ssd.SetRecorder(m.rec)
	}
	if cfg.Topology == ThreeTier {
		// Every slot starts free, pushed in rebuildFromNVM's order: the
		// lowest slot is handed out first.
		m.nvmDir = make([]nvmSlotMeta, m.nvmSlots)
		m.freeSlots = make([]int64, 0, m.nvmSlots)
		for slot := m.nvmSlots - 1; slot >= 0; slot-- {
			m.freeSlots = append(m.freeSlots, slot)
		}
	}
	m.persistSuper()
	return m, nil
}

// Clock returns the virtual clock accumulating simulated device time.
func (m *Manager) Clock() *simclock.Clock { return m.clk }

// NVM returns the simulated NVM device (for WAL placement and
// experiment instrumentation such as wear counters).
func (m *Manager) NVM() *nvm.Device { return m.nvm }

// SSD returns the simulated SSD device, or nil if the topology has none.
func (m *Manager) SSD() *ssd.Device { return m.ssd }

// Config returns the manager's configuration with defaults applied.
func (m *Manager) Config() Config { return m.cfg }

// WALRegion returns the offset and size of the NVM region reserved for the
// write-ahead log.
func (m *Manager) WALRegion() (off, size int64) { return 0, m.cfg.WALBytes }

// Stats returns a snapshot of the event counters.
//
// Synchronization contract: a Manager is single-threaded, and Stats (like
// every other method) must only be called while no operation is running on
// the owning engine. Under the sharded driver that means holding the
// shard's lock — the counters are plain int64 fields, and reading them
// concurrently with an operation on another goroutine is a data race, not
// just a torn snapshot. ShardedStore.Metrics takes the shard locks for
// exactly this reason.
func (m *Manager) Stats() Stats { return m.stats }

// ResetStats zeroes the event counters. The same synchronization contract
// as Stats applies.
func (m *Manager) ResetStats() { m.stats = Stats{} }

// recordHit counts one DRAM hit for the dram.hit histogram. Hits are
// the hottest instrumented path — one per fix — and always cost zero
// simulated time, so they batch in a plain counter and flush in bulk
// instead of paying an atomic per fix. Callers hold the m.rec != nil
// guard.
func (m *Manager) recordHit() {
	m.obsHits++
	if m.obsHits >= obs.ZeroFlush {
		m.rec.LatencyZeros(obs.OpDRAMHit, m.obsHits)
		m.obsHits = 0
	}
}

// SyncObs flushes batched observability counters (the manager's DRAM
// hits and the NVM device's CPU-cached reads) into the recorder so a
// snapshot taken now is complete. Same contract as Stats: call only
// while the manager is idle.
func (m *Manager) SyncObs() {
	if m.rec == nil {
		return
	}
	if m.obsHits > 0 {
		m.rec.LatencyZeros(obs.OpDRAMHit, m.obsHits)
		m.obsHits = 0
	}
	if m.nvm != nil {
		m.nvm.SyncObs()
	}
}

func (m *Manager) slotHeaderOff(slot int64) int64 { return m.headersOff + slot*LineSize }
func (m *Manager) slotDataOff(slot int64) int64   { return m.slotsOff + slot*PageSize }

// Handle is a pinned page. The zero Handle is invalid. Handles are values;
// copy them freely, but every Fix must be matched by exactly one Unfix.
//
// The slices Read, ReadAll, Write, WriteAll and Overwrite return are frame
// buffers or, on a direct frame, views of the NVM medium. A view is memory
// off the Go heap that is unmapped once the device is unreachable, when
// reading it faults, so no such slice may outlive the Manager: code that
// hands page bytes to a caller outside the engine copies them (lookups,
// the sharded scan's cursors, log records, version images) or lends them
// only for the length of a callback made while the caller holds the store
// (Table.Scan).
type Handle struct {
	f *Frame
	m *Manager
}

// Valid reports whether h refers to a fixed page.
func (h Handle) Valid() bool { return h.f != nil }

// PID returns the page identifier.
func (h Handle) PID() PageID { return h.f.pid }

// Read returns the page bytes [off, off+n), loading missing cache lines
// from NVM first; Read, Write, Overwrite, ReadAll and WriteAll are all the
// frame's one access over their span. The slice is valid until the next
// access to this page or its Unfix, and must not be modified.
func (h Handle) Read(off, n int) []byte { return h.access(off, n, false) }

// Write returns a writable slice of the page bytes [off, off+n), marking
// the covered cache lines dirty. The same validity rule as Read applies.
// The page's next write-back runs under the undo journal.
func (h Handle) Write(off, n int) []byte {
	b := h.access(off, n, true)
	h.f.live().needsJournal = true
	return b
}

// Overwrite is Write for a store that WAL redo repeats by itself: the
// caller logs the after-image of exactly these bytes, durable before any
// write-back (the write barrier), and moves nothing else on the page. A
// write-back whose dirty lines hold only such stores skips the undo
// journal — a torn one leaves every line old or new, differing only in
// logged bytes, and redo rewrites them (DESIGN.md §9.4). Any other store
// must use Write.
func (h Handle) Overwrite(off, n int) []byte { return h.access(off, n, true) }

// ReadAll is Read of the whole page, [0, PageSize): it loads the page
// completely — the paper's full-page path, which then avoids per-access
// residency checks. A mini page is promoted.
func (h Handle) ReadAll() []byte { return h.access(0, PageSize, false) }

// WriteAll returns the entire page writable with every line marked dirty.
// Like Write, it arms the undo journal for the next write-back.
func (h Handle) WriteAll() []byte {
	b := h.access(0, PageSize, true)
	h.f.live().needsJournal = true
	return b
}

// Ref returns the current reference for storing in a parent page: swizzled
// if the page is swizzled, the plain page id otherwise.
func (h Handle) Ref() Ref {
	f := h.f.live()
	if f.swizzled() {
		return swizzledRef(f.idx)
	}
	return MakeRef(f.pid)
}

// Allocate creates a new page and returns it fixed. The page content is
// zeroed and the caller is expected to initialize it before unfixing.
func (m *Manager) Allocate() (Handle, error) {
	pid, err := m.takePID()
	if err != nil {
		return Handle{}, err
	}
	if m.cfg.Topology == DirectNVM {
		slot := int64(pid - 1)
		m.writeSlotHeader(slot, pid, false)
		f := m.directFrame(pid, slot)
		m.stats.DirectFixes++
		return Handle{f, m}, nil
	}
	slot := int64(-1) // MemOnly, DRAMSSD and ThreeTier pages start without NVM backing
	if m.cfg.Topology == DRAMNVM {
		slot = int64(pid - 1)
		m.writeSlotHeader(slot, pid, false)
	}
	f, err := m.newFrame(kindFull, pid)
	if err != nil {
		return Handle{}, err
	}
	zeroBytes(f.data)
	m.install(f, slot, true)
	f.dirty.setRange(0, LinesPerPage-1)
	f.anyDirty = true
	f.needsJournal = true
	return Handle{f, m}, nil
}

// install registers a freshly allocated or loaded frame: backed by NVM slot
// (-1 for none), pinned once and mapped in the page table. resident says
// f.data already holds the whole page.
func (m *Manager) install(f *Frame, slot int64, resident bool) {
	f.nvmSlot = slot
	if resident {
		f.resident.setRange(0, LinesPerPage-1)
		f.fullyResident = true
	}
	f.pins = 1
	f.referenced = true
	m.table[f.pid] = dramLoc(f.idx)
	if m.nvmDir != nil {
		m.noteLoad(f.pid)
	}
}

// noteLoad counts one entry of the page into DRAM — from NVM, from SSD or
// by Allocate — in a saturating 8-bit counter, and halves every counter
// once per nvmAgeEvery × nvmSlots loads, so a page that stopped coming back
// loses its standing within a few NVM-cache turnovers.
func (m *Manager) noteLoad(pid PageID) {
	if n := int(pid) + 1 - len(m.loads); n > 0 {
		m.loads = append(m.loads, make([]uint8, n)...)
	}
	if m.loads[pid] < 255 {
		m.loads[pid]++
	}
	if m.loadsSince++; m.loadsSince >= nvmAgeEvery*m.nvmSlots {
		for i, c := range m.loads {
			m.loads[i] = c / 2
		}
		m.loadsSince = 0
	}
}

// takePID hands out the next page identifier, enforcing the topology's
// hard capacity limit, and persists the allocation watermark.
func (m *Manager) takePID() (PageID, error) {
	pid := m.nextPID
	switch m.cfg.Topology {
	case DirectNVM, DRAMNVM:
		if int64(pid-1) >= m.nvmSlots {
			return 0, fmt.Errorf("core: %v full at %d pages: %w", m.cfg.Topology, m.nvmSlots, ErrCapacity)
		}
	case DRAMSSD, ThreeTier:
		if int64(pid-1) >= m.ssdPages {
			return 0, fmt.Errorf("core: SSD full at %d pages: %w", m.ssdPages, ErrCapacity)
		}
	}
	m.nextPID++
	m.persistNextPID()
	return pid, nil
}

// Fix pins the page identified by ref without swizzling bookkeeping. Use
// FixChild or FixRoot to let hot references be swizzled.
func (m *Manager) Fix(ref Ref, mode AccessMode) (Handle, error) {
	return m.fix(ref, nil, 0, nil, mode)
}

// FixChild reads the child reference stored at byte offset wordOff of
// parent, pins the child, and — when swizzling is enabled — replaces the
// stored reference with a direct frame pointer.
func (m *Manager) FixChild(parent Handle, wordOff int, mode AccessMode) (Handle, error) {
	ref := Ref(binary.LittleEndian.Uint64(parent.Read(wordOff, 8)))
	return m.fix(ref, parent.f.live(), wordOff, nil, mode)
}

// FixRoot pins the page referenced by *holder, typically a tree's root
// reference. When swizzling is enabled the holder is updated to a direct
// frame pointer, and restored to a plain page id when the root is evicted.
func (m *Manager) FixRoot(holder *Ref, mode AccessMode) (Handle, error) {
	return m.fix(*holder, nil, 0, holder, mode)
}

func (m *Manager) fix(ref Ref, parent *Frame, wordOff int, holder *Ref, mode AccessMode) (Handle, error) {
	m.stats.Fixes++
	if ref.Swizzled() {
		idx := ref.frameIndex()
		f := m.frames[idx]
		if f == nil {
			panic(fmt.Sprintf("core: dangling swizzled reference to frame %d", idx))
		}
		f.pins++
		f.referenced = true
		m.stats.SwizzleHits++
		if m.rec != nil {
			m.recordHit()
		}
		return Handle{f, m}, nil
	}
	pid := ref.PageID()
	if pid == InvalidPageID || pid >= m.nextPID {
		return Handle{}, fmt.Errorf("core: fix page %d: %w", pid, ErrPageNotFound)
	}
	if m.cfg.Topology == DirectNVM {
		f := m.directFrame(pid, int64(pid-1))
		m.stats.DirectFixes++
		return Handle{f, m}, nil
	}
	if loc, ok := m.table[pid]; ok {
		if loc.inDRAM() {
			f := m.frames[loc.frame()]
			f.pins++
			f.referenced = true
			m.stats.TableHits++
			if m.rec != nil {
				m.recordHit()
			}
			m.maybeSwizzle(f, parent, wordOff, holder)
			return Handle{f, m}, nil
		}
		// ThreeTier: the page is cached on NVM.
		f, err := m.loadFromNVM(pid, loc.nvmSlot(), mode)
		if err != nil {
			return Handle{}, err
		}
		m.maybeSwizzle(f, parent, wordOff, holder)
		return Handle{f, m}, nil
	}
	var f *Frame
	var err error
	switch m.cfg.Topology {
	case MemOnly:
		return Handle{}, fmt.Errorf("core: fix page %d: %w", pid, ErrPageNotFound)
	case DRAMNVM:
		f, err = m.loadFromNVM(pid, int64(pid-1), mode)
	default: // DRAMSSD, ThreeTier: page only on SSD
		f, err = m.loadFromSSD(pid)
	}
	if err != nil {
		return Handle{}, err
	}
	m.maybeSwizzle(f, parent, wordOff, holder)
	return Handle{f, m}, nil
}

// directFrame builds an in-place frame over the page's NVM slot.
func (m *Manager) directFrame(pid PageID, slot int64) *Frame {
	return &Frame{
		kind:    kindDirect,
		pid:     pid,
		idx:     -1,
		nvmSlot: slot,
		data:    m.nvm.View(m.slotDataOff(slot), PageSize),
		pins:    1,
	}
}

// loadFromNVM caches an NVM-resident page in DRAM: as a mini page or lazy
// cache-line-grained full page when enabled, or by reading the whole page
// in page-grained mode.
func (m *Manager) loadFromNVM(pid PageID, slot int64, mode AccessMode) (*Frame, error) {
	if m.nvmDir != nil {
		m.nvmDir[slot].referenced = true
	}
	kind := kindFull
	if m.cfg.CacheLineGrained && m.cfg.MiniPages && mode == ModeCacheLine {
		kind = kindMini
	}
	f, err := m.newFrame(kind, pid)
	if err != nil {
		return nil, err
	}
	pageGrained := !m.cfg.CacheLineGrained
	if pageGrained {
		t0 := m.clk.Ns()
		m.nvm.ReadAt(f.data, m.slotDataOff(slot))
		m.stats.NVMPageLoads++
		if m.rec != nil {
			m.rec.Latency(obs.OpNVMPageLoad, m.clk.Ns()-t0)
		}
	}
	m.install(f, slot, pageGrained)
	return f, nil
}

// loadFromSSD reads a page from SSD into a fresh, fully resident DRAM
// frame. Per §4.2 the page is not put into NVM on the way in; it becomes a
// candidate for NVM admission only when evicted from DRAM.
func (m *Manager) loadFromSSD(pid PageID) (*Frame, error) {
	f, err := m.newFrame(kindFull, pid)
	if err != nil {
		return nil, err
	}
	m.ssd.ReadPage(int64(pid-1), f.data)
	m.install(f, -1, true)
	m.stats.SSDLoads++
	return f, nil
}

func (m *Manager) maybeSwizzle(f *Frame, parent *Frame, wordOff int, holder *Ref) {
	if !m.cfg.Swizzling || f.swizzled() {
		return
	}
	switch {
	case parent != nil:
		putRef(parent.data, wordOff, swizzledRef(f.idx))
		parent.swizzledChildren++
		f.parent = parent
		f.parentOff = int32(wordOff)
		m.stats.Swizzles++
	case holder != nil:
		*holder = swizzledRef(f.idx)
		f.rootHolder = holder
		m.stats.Swizzles++
	}
}

func (m *Manager) unswizzle(f *Frame) {
	switch {
	case f.parent != nil:
		if got := getRef(f.parent.data, int(f.parentOff)); !got.Swizzled() || got.frameIndex() != f.idx {
			panic(fmt.Sprintf("core: unswizzle page %d frame %d: parent page %d word at %d holds %#x, not this frame", f.pid, f.idx, f.parent.pid, f.parentOff, uint64(got)))
		}
		putRef(f.parent.data, int(f.parentOff), MakeRef(f.pid))
		f.parent.swizzledChildren--
		f.parent = nil
	case f.rootHolder != nil:
		if got := *f.rootHolder; !got.Swizzled() || got.frameIndex() != f.idx {
			panic(fmt.Sprintf("core: unswizzle page %d frame %d: root holder holds %#x, not this frame", f.pid, f.idx, uint64(got)))
		}
		*f.rootHolder = MakeRef(f.pid)
		f.rootHolder = nil
	}
}

// Unfix releases a pinned page. For in-place (DirectNVM) pages the dirty
// cache lines are flushed to NVM, mirroring the paper's clwb of updated
// tuples. For a mini page that was promoted while fixed, the wrapper is
// released once its last pin drops (§3.2).
func (m *Manager) Unfix(h Handle) {
	f := h.f
	if f == nil {
		panic("core: unfix of invalid handle")
	}
	if f.pins <= 0 {
		panic(fmt.Sprintf("core: unfix of unpinned page %d", f.pid))
	}
	if f.kind == kindDirect {
		f.pins--
		m.writeBack(f, causeInPlace)
		return
	}
	if f.promoted != nil {
		f.pins--
		p := f.promoted
		if p.pins <= 0 {
			panic(fmt.Sprintf("core: promoted page %d lost its pin", p.pid))
		}
		p.pins--
		if f.pins == 0 {
			// Last reference through the wrapper: release the mini frame.
			m.dropFrame(f)
		}
		return
	}
	f.pins--
}

// ForceWrite persists the page's dirty content to its home (NVM slot or
// SSD) without evicting it, clearing the dirty state. The engine's one
// structural-durability decision (engine.Engine.makeDurable) calls it on
// NVM Direct, whose splits and shifts reach NVM in place, to flush their
// pages in order; the buffered topologies log page images instead. On a
// MemOnly topology it is a no-op: that architecture has no page-based
// persistence.
func (m *Manager) ForceWrite(h Handle) {
	f := h.f.live()
	cause := causeSplitForce
	if f.kind == kindDirect {
		cause = causeInPlace
	}
	m.writeBack(f, cause)
}

// writeBack is the one way page content leaves a frame for persistent
// storage: eviction, the checkpoint walk, ForceWrite and the unfix of an
// in-place page all end here. It runs the write barrier, writes the dirty
// cache-line runs (or the whole page) to the frame's home — its NVM slot,
// else SSD — under the undo journal when a store other than Overwrite
// dirtied the frame, marks a ThreeTier slot dirty with respect to SSD, and
// clears the frame's dirty state. The device writes are charged to cause.
// A clean frame has nothing to persist; only when it is being evicted does
// it still compete for an NVM slot (§4.2).
func (m *Manager) writeBack(f *Frame, cause WriteCause) {
	dirty := f.anyDirty
	if !dirty && cause != causeDRAMEvict {
		return
	}
	if dirty {
		// Swizzled child references are transient in-memory state and
		// must never reach persistent storage; they re-swizzle on the
		// next fix.
		m.unswizzleChildrenOf(f)
		if m.writeBarrier != nil {
			m.writeBarrier()
		}
	}
	if m.cfg.Topology == MemOnly {
		return // no persistent home: the page stays dirty in DRAM
	}
	admit := false
	if m.cfg.Topology == ThreeTier && f.nvmSlot < 0 {
		if f.nvmSlot, admit = m.nvmSlotFor(f, cause); admit {
			cause = causeNVMAdmit // the copy below is the admission, dirty or not
		}
	}
	switch {
	case f.nvmSlot < 0 && dirty:
		mk := m.written()
		m.ssd.WritePage(int64(f.pid-1), f.data)
		m.charge(cause, mk)
	case f.nvmSlot >= 0 && (dirty || admit):
		var t0 int64
		if admit {
			if !f.fullyResident {
				panic(fmt.Sprintf("core: admitting partially resident page %d", f.pid))
			}
			if m.rec != nil {
				t0 = m.clk.Ns()
			}
		}
		// A slot that held no page needs no undo image, in-place stores
		// cannot be undone (they are on the device already), and logged
		// field overwrites need none: redo rewrites them (Overwrite).
		journal := !admit && f.kind != kindDirect && f.needsJournal && m.journalArm(f)
		base := m.slotDataOff(f.nvmSlot)
		mk := m.written()
		m.dirtyRuns(f, admit, func(line int, data []byte) {
			off := base + int64(line)*LineSize
			if f.kind != kindDirect {
				m.nvm.WriteAt(data, off)
			}
			m.nvm.Flush(off, len(data))
		})
		m.charge(cause, mk)
		if journal {
			m.journalDisarm()
		}
		if m.nvmDir != nil {
			// The slot's header and directory entry say whether the NVM
			// copy is newer than the SSD copy (§4.4).
			e := &m.nvmDir[f.nvmSlot]
			if admit {
				*e = nvmSlotMeta{pid: f.pid, referenced: true}
				m.stats.NVMAdmissions++
			}
			if admit || !e.dirtyWrtSSD {
				e.dirtyWrtSSD = dirty
				m.writeSlotHeader(f.nvmSlot, f.pid, dirty)
				if dirty {
					// The persisted header names the NVM copy as the
					// page's current one: the SSD copy is dead until an
					// NVM eviction writes the page back. A crash before
					// the header leaves the SSD copy, one after it the
					// NVM copy.
					m.ssd.Trim(int64(f.pid - 1))
				}
			}
		}
		if admit && m.rec != nil {
			m.rec.Latency(obs.OpNVMAdmit, m.clk.Ns()-t0)
		}
	}
	f.dirty.reset()
	f.miniDirty = 0
	f.anyDirty = false
	f.needsJournal = false
}

// nvmSlotFor is the one policy difference between write-back's callers: the
// NVM slot, if any, for a ThreeTier frame that has none. A free slot is
// taken at once. Past that, eviction is the admission decision of §4.2,
// made as a duel: the NVM clock names its victim, and the page moves in
// (transition 6 evicts the victim) only if it has come back through DRAM
// more often than the victim has — a tie keeps the victim, and the hand has
// moved past it either way. The paper asks only "was this page denied
// recently?", which a cold page passes by chance often enough to turn the
// whole NVM cache over, cold page for cold page (DESIGN.md §9.4). A forced
// write stages the page on NVM only while a slot is free — it is persisted
// because it matters (checkpoints, structural changes), but it evicts
// nothing.
func (m *Manager) nvmSlotFor(f *Frame, cause WriteCause) (int64, bool) {
	if slot, ok := m.freeNVMSlot(); ok {
		return slot, true
	}
	if cause != causeDRAMEvict {
		return -1, false
	}
	// This fails with NVM completely pinned by cached pages.
	slot, ok := m.pickNVMVictim()
	if !ok || !m.cfg.AlwaysAdmit && m.loads[f.pid] <= m.loads[m.nvmDir[slot].pid] {
		return -1, false
	}
	m.evictNVMSlot(slot)
	return slot, true
}

// dirtyRuns calls fn for every maximal run of cache lines that writing f
// back has to write, in ascending order: the first line's number on the
// page and the run's bytes in f.data. That is the whole page when whole is
// set or the manager is page-grained, a mini page's dirty slots, and
// otherwise the runs of the dirty bitmask — writing only those is the
// source of the endurance advantage measured in Figure 16.
func (m *Manager) dirtyRuns(f *Frame, whole bool, fn func(line int, data []byte)) {
	switch {
	case whole || f.kind == kindFull && !m.cfg.CacheLineGrained:
		fn(0, f.data)
	case f.kind == kindMini:
		for i := 0; i < int(f.count); i++ {
			if f.miniDirty&(1<<uint(i)) == 0 {
				continue
			}
			j := i
			for j+1 < int(f.count) && f.miniDirty&(1<<uint(j+1)) != 0 && f.slots[j+1] == f.slots[j]+1 {
				j++
			}
			fn(int(f.slots[i]), f.data[i*LineSize:(j+1)*LineSize])
			i = j
		}
	default:
		f.dirty.setRuns(0, LinesPerPage-1, func(from, to int) {
			fn(from, f.data[from*LineSize:(to+1)*LineSize])
		})
	}
}

// written and charge attribute device writes: charge adds what the devices
// have absorbed since the mark to cause.
type writeMark struct{ lines, pages int64 }

func (m *Manager) written() (mk writeMark) {
	mk.lines = m.nvm.Stats().LinesFlushed
	if m.ssd != nil {
		mk.pages = m.ssd.Stats().PagesWritten
	}
	return mk
}

func (m *Manager) charge(cause WriteCause, since writeMark) {
	now := m.written()
	m.stats.NVMLinesWrittenBy[cause] += now.lines - since.lines
	m.stats.SSDPagesWrittenBy[cause] += now.pages - since.pages
}

// persist is nvm.Persist charged to cause; every store outside page data
// (slot headers, superblock, journal) goes through it.
func (m *Manager) persist(cause WriteCause, p []byte, off int64) {
	mk := m.written()
	m.nvm.Persist(p, off)
	m.charge(cause, mk)
}

// needsWriteBack reports whether the frame holds modifications a checkpoint
// has to persist. A promoted mini page's state lives in its full page.
func (f *Frame) needsWriteBack() bool {
	return f != nil && f.anyDirty && f.promoted == nil
}

// FlushAll writes back every dirty page in the buffer pool without
// evicting anything. Together with truncating the WAL this forms a
// checkpoint.
func (m *Manager) FlushAll() {
	m.FlushSome(0, len(m.frames))
}

// FlushSome writes back up to max dirty pages, resuming the frame walk
// at cursor (the value a previous call returned; start at 0). It returns
// the cursor for the next round and how many pages it wrote back. The
// walk wraps once past the end of the frame table, so repeated rounds
// visit every dirty frame even as the cursor starts mid-table — the
// bounded write-back unit of an incremental (fuzzy) checkpoint: the
// caller interleaves rounds with foreground work instead of stalling on
// FlushAll. Pages dirtied behind the cursor during a round are picked up
// by a later round; DirtyFrames reports whether any remain.
func (m *Manager) FlushSome(cursor, max int) (next, written int) {
	n := len(m.frames)
	if n == 0 || max <= 0 {
		return 0, 0
	}
	if cursor < 0 || cursor >= n {
		cursor = 0
	}
	for scanned := 0; scanned < n && written < max; scanned++ {
		if f := m.frames[cursor]; f.needsWriteBack() {
			m.writeBack(f, causeCkpt)
			written++
		}
		cursor++
		if cursor == n {
			cursor = 0
		}
	}
	return cursor, written
}

// DirtyFrames counts buffer-pool pages with unwritten modifications —
// the remaining work of an incremental checkpoint. Zero means every
// logged change is persisted in its home location and the WAL can be
// truncated. Same synchronization contract as Stats: call only while no
// operation runs on this manager.
func (m *Manager) DirtyFrames() int {
	n := 0
	for _, f := range m.frames {
		if f.needsWriteBack() {
			n++
		}
	}
	return n
}

// UnswizzleChildren converts every swizzled child reference of the given
// page back to a plain page identifier. Callers that restructure a page
// (shifting or moving reference words, as a B-tree split does) must call
// this first: a swizzled child's back-pointer records the byte offset of
// its reference word, which restructuring would invalidate.
func (m *Manager) UnswizzleChildren(parent Handle) {
	m.unswizzleChildrenOf(parent.f.live())
}

func (m *Manager) unswizzleChildrenOf(pf *Frame) {
	if pf.swizzledChildren == 0 {
		return
	}
	for _, f := range m.frames {
		if f != nil && f.parent == pf {
			m.unswizzle(f)
			if pf.swizzledChildren == 0 {
				return
			}
		}
	}
}

// Unswizzle converts the reference pointing at this page (in its parent or
// root holder) back to a plain page identifier. B-tree root splits use it
// before re-homing the old root under a new parent.
func (m *Manager) Unswizzle(h Handle) {
	m.unswizzle(h.f.live())
}

// newFrame allocates a DRAM frame, evicting pages as needed to stay within
// the DRAM budget, and registers it in the frame table.
func (m *Manager) newFrame(kind frameKind, pid PageID) (*Frame, error) {
	need := int64(fullFrameBytes)
	if kind == kindMini {
		need = miniFrameBytes
	}
	if err := m.ensureDRAM(need); err != nil {
		return nil, err
	}
	var f *Frame
	if n := len(m.spareFrames); n > 0 {
		f = m.spareFrames[n-1]
		m.spareFrames = m.spareFrames[:n-1]
		*f = Frame{kind: kind, pid: pid, nvmSlot: -1}
	} else {
		f = &Frame{kind: kind, pid: pid, nvmSlot: -1}
	}
	if kind == kindMini {
		if n := len(m.miniPool); n > 0 {
			f.data = m.miniPool[n-1]
			m.miniPool = m.miniPool[:n-1]
		} else {
			f.data = make([]byte, MiniDataSize)
		}
		m.stats.MiniAllocs++
	} else {
		if n := len(m.fullPool); n > 0 {
			f.data = m.fullPool[n-1]
			m.fullPool = m.fullPool[:n-1]
		} else {
			f.data = make([]byte, PageSize)
		}
		m.stats.FullAllocs++
		if m.cfg.DebugChecks {
			poison(f.data)
		}
	}
	if n := len(m.freeFrames); n > 0 {
		f.idx = m.freeFrames[n-1]
		m.freeFrames = m.freeFrames[:n-1]
		m.frames[f.idx] = f
	} else {
		f.idx = int32(len(m.frames))
		m.frames = append(m.frames, f)
	}
	m.dramUsed += need
	return f, nil
}

// dropFrame releases a frame's memory without writing anything back.
func (m *Manager) dropFrame(f *Frame) {
	if f.kind == kindMini {
		m.miniPool = append(m.miniPool, f.data)
		m.dramUsed -= miniFrameBytes
	} else {
		m.fullPool = append(m.fullPool, f.data)
		m.dramUsed -= fullFrameBytes
	}
	m.frames[f.idx] = nil
	m.freeFrames = append(m.freeFrames, f.idx)
	f.data = nil
	if !m.cfg.DebugChecks {
		m.spareFrames = append(m.spareFrames, f)
	}
}

// ensureDRAM evicts frames until need bytes fit in the DRAM budget.
func (m *Manager) ensureDRAM(need int64) error {
	if m.dramCap <= 0 {
		return nil
	}
	for m.dramUsed+need > m.dramCap {
		if err := m.evictOne(); err != nil {
			return err
		}
	}
	return nil
}

// evictOne runs the DRAM clock (second chance, §4.2) and evicts one frame.
func (m *Manager) evictOne() error {
	if m.cfg.Topology == MemOnly {
		return fmt.Errorf("core: main-memory topology out of DRAM: %w", ErrCapacity)
	}
	n := len(m.frames)
	for scanned := 0; scanned < 2*n+1; scanned++ {
		if m.clockHand >= len(m.frames) {
			m.clockHand = 0
		}
		f := m.frames[m.clockHand]
		m.clockHand++
		if f == nil || f.pins > 0 || f.swizzledChildren > 0 {
			continue
		}
		if f.referenced {
			f.referenced = false
			continue
		}
		m.evictFrame(f)
		return nil
	}
	return ErrNoEvictable
}

// evictFrame writes a frame back and releases it. For a ThreeTier frame
// without NVM backing writeBack makes the paper's admission decision: the
// page either moves into the NVM cache or, denied, goes back to SSD.
func (m *Manager) evictFrame(f *Frame) {
	var t0 int64
	if m.rec != nil {
		t0 = m.clk.Ns()
	}
	m.unswizzle(f)
	if m.cfg.DebugChecks {
		m.verifyCleanLines(f)
	}
	m.stats.DRAMEvictions++
	m.writeBack(f, causeDRAMEvict)
	if m.cfg.Topology == ThreeTier && f.nvmSlot >= 0 {
		m.table[f.pid] = nvmLoc(f.nvmSlot)
	} else {
		delete(m.table, f.pid)
		if m.cfg.Topology == ThreeTier {
			m.stats.NVMDenials++
		}
	}
	m.dropFrame(f)
	if m.rec != nil {
		m.rec.Latency(obs.OpDRAMEvict, m.clk.Ns()-t0)
	}
}

// journalArm makes the upcoming in-place write-back atomic with respect
// to a crash. Write-back overwrites a valid slot's cache lines with a
// sequence of flushes; a crash (or a torn flush) mid-sequence leaves
// the slot with lines from two page generations. The logical WAL cannot
// repair that: rows that merely moved inside the page (shifted by a
// neighboring, logged insert) are not themselves logged, and for a
// dirty-with-respect-to-SSD slot the NVM copy is the only durable one,
// so falling back to the SSD image would lose checkpointed data. A frame
// dirtied only through Overwrite has no such bytes, and writeBack does
// not arm the journal for it.
//
// The journal therefore saves the pre-write-back durable content of
// every line about to be overwritten, then arms a header naming the
// slot. Arming is a single-line persist, so the journal itself cannot
// be torn into a valid-but-partial state: either the header is durable
// (and index and data, flushed before it, are too) or the journal is
// invisible. Recovery (replayJournal) restores the saved lines, rolling
// the slot back to its consistent pre-write-back image, and WAL replay
// rebuilds forward from there. journalDisarm retires the journal after
// the write-back's last flush.
func (m *Manager) journalArm(f *Frame) bool {
	idxBytes := journalIndexLines * LineSize
	idx := m.journalBuf[:idxBytes]
	data := m.journalBuf[idxBytes:]
	base := m.slotDataOff(f.nvmSlot)
	n := 0
	m.dirtyRuns(f, false, func(line int, run []byte) {
		for end := line + len(run)/LineSize; line < end; line++ {
			binary.LittleEndian.PutUint16(idx[n*2:], uint16(line))
			m.nvm.ReadAt(data[n*LineSize:(n+1)*LineSize], base+int64(line)*LineSize)
			n++
		}
	})
	if n == 0 {
		return false
	}
	idxUsed := (n*2 + LineSize - 1) / LineSize * LineSize
	m.persist(CauseJournal, idx[:idxUsed], m.journalOff+LineSize)
	m.persist(CauseJournal, data[:n*LineSize], m.journalOff+int64(1+journalIndexLines)*LineSize)
	var h [16]byte
	binary.LittleEndian.PutUint32(h[0:], journalMagic)
	binary.LittleEndian.PutUint32(h[4:], uint32(n))
	binary.LittleEndian.PutUint64(h[8:], uint64(f.nvmSlot))
	m.persist(CauseJournal, h[:], m.journalOff)
	return true
}

func (m *Manager) journalDisarm() {
	var z [16]byte
	m.persist(CauseJournal, z[:], m.journalOff)
}

// replayJournal undoes a write-back that a crash interrupted: if the
// journal header is armed, the saved pre-write-back lines are copied
// back into their slot, restoring the page image that was current
// before the interrupted flush sequence began. See journalArm.
func (m *Manager) replayJournal() {
	var h [16]byte
	m.nvm.ReadAt(h[:], m.journalOff)
	if binary.LittleEndian.Uint32(h[0:]) != journalMagic {
		return
	}
	n := int(binary.LittleEndian.Uint32(h[4:]))
	slot := int64(binary.LittleEndian.Uint64(h[8:]))
	if n > 0 && n <= LinesPerPage && slot >= 0 && slot < m.nvmSlots {
		idxBytes := journalIndexLines * LineSize
		idx := m.journalBuf[:idxBytes]
		data := m.journalBuf[idxBytes:]
		m.nvm.ReadAt(idx, m.journalOff+LineSize)
		m.nvm.ReadAt(data[:n*LineSize], m.journalOff+int64(1+journalIndexLines)*LineSize)
		base := m.slotDataOff(slot)
		for i := 0; i < n; i++ {
			ln := int(binary.LittleEndian.Uint16(idx[i*2:]))
			if ln < LinesPerPage {
				m.persist(CauseJournal, data[i*LineSize:(i+1)*LineSize], base+int64(ln)*LineSize)
			}
		}
		m.stats.JournalUndos++
	}
	m.journalDisarm()
}

// freeNVMSlot returns an NVM page slot only if one is free, never
// evicting.
func (m *Manager) freeNVMSlot() (int64, bool) {
	if n := len(m.freeSlots); n > 0 {
		slot := m.freeSlots[n-1]
		m.freeSlots = m.freeSlots[:n-1]
		return slot, true
	}
	return 0, false
}

// pickNVMVictim runs the NVM clock (second chance) and returns the slot it
// would evict, leaving the hand past it.
func (m *Manager) pickNVMVictim() (int64, bool) {
	n := m.nvmSlots
	for scanned := int64(0); scanned < 2*n+1; scanned++ {
		slot := m.nvmHand
		m.nvmHand++
		if m.nvmHand >= n {
			m.nvmHand = 0
		}
		e := &m.nvmDir[slot]
		if e.pid == 0 {
			continue
		}
		if loc, ok := m.table[e.pid]; ok && loc.inDRAM() {
			// The page is cached in DRAM and this slot is its backing;
			// evicting it would orphan the DRAM frame.
			continue
		}
		if e.referenced {
			e.referenced = false
			continue
		}
		return slot, true
	}
	return 0, false
}

// evictNVMSlot evicts the slot's page from the NVM cache, writing it to SSD
// when the NVM copy is newer.
func (m *Manager) evictNVMSlot(slot int64) {
	e := &m.nvmDir[slot]
	var t0 int64
	if m.rec != nil {
		t0 = m.clk.Ns()
	}
	if e.dirtyWrtSSD {
		m.nvm.ReadAt(m.scratch, m.slotDataOff(slot))
		mk := m.written()
		m.ssd.WritePage(int64(e.pid-1), m.scratch)
		m.charge(causeNVMEvict, mk)
	}
	delete(m.table, e.pid)
	m.clearSlotHeader(slot)
	*e = nvmSlotMeta{}
	m.stats.NVMEvictions++
	if m.rec != nil {
		m.rec.Latency(obs.OpNVMEvict, m.clk.Ns()-t0)
	}
}

// promoteMini promotes a mini page to a full page (§3.2): the resident
// lines, masks, backing, and swizzling state move to a freshly allocated
// full frame; the mini page becomes a forwarding wrapper until unfixed.
func (m *Manager) promoteMini(f *Frame) {
	var t0 int64
	if m.rec != nil {
		t0 = m.clk.Ns()
	}
	full, err := m.newFrame(kindFull, f.pid)
	if err != nil {
		// Promotion happens mid-access where no error can be returned;
		// failing here means DRAM cannot hold even the pages pinned by a
		// single operation, which is a configuration error.
		panic(fmt.Sprintf("core: mini-page promotion of page %d failed: %v", f.pid, err))
	}
	full.nvmSlot = f.nvmSlot
	full.needsJournal = f.needsJournal
	for i := 0; i < int(f.count); i++ {
		line := int(f.slots[i])
		copy(full.data[line*LineSize:(line+1)*LineSize], f.data[i*LineSize:(i+1)*LineSize])
		full.resident.set(line)
		if f.miniDirty&(1<<uint(i)) != 0 {
			full.dirty.set(line)
			full.anyDirty = true
		}
	}
	// Transfer swizzling state: the reference that pointed at the mini
	// frame now points at the full frame.
	full.parent, full.parentOff, full.rootHolder = f.parent, f.parentOff, f.rootHolder
	if full.parent != nil {
		putRef(full.parent.data, int(full.parentOff), swizzledRef(full.idx))
	} else if full.rootHolder != nil && full.rootHolder.Swizzled() {
		*full.rootHolder = swizzledRef(full.idx)
	}
	f.parent, f.rootHolder = nil, nil
	full.pins = f.pins
	full.referenced = true
	m.table[f.pid] = dramLoc(full.idx)
	f.promoted = full
	m.stats.MiniPromotions++
	if m.rec != nil {
		m.rec.Latency(obs.OpMiniPromote, m.clk.Ns()-t0)
	}
}

// Slot header helpers. Each NVM page slot's header is one cache line of
// the header table, and is what the restart scan of §4.4 reads.

func (m *Manager) writeSlotHeader(slot int64, pid PageID, dirty bool) {
	var h [16]byte
	binary.LittleEndian.PutUint32(h[0:], slotMagic)
	flags := uint32(0)
	if dirty {
		flags |= slotFlagDirty
	}
	binary.LittleEndian.PutUint32(h[4:], flags)
	binary.LittleEndian.PutUint64(h[8:], uint64(pid))
	m.persist(causeSlotMeta, h[:], m.slotHeaderOff(slot))
}

func (m *Manager) clearSlotHeader(slot int64) {
	var h [16]byte
	m.persist(causeSlotMeta, h[:], m.slotHeaderOff(slot))
}

func (m *Manager) readSlotHeader(slot int64) (pid PageID, dirty bool, ok bool) {
	var h [16]byte
	m.nvm.ReadAt(h[:], m.slotHeaderOff(slot))
	if binary.LittleEndian.Uint32(h[0:]) != slotMagic {
		return 0, false, false
	}
	flags := binary.LittleEndian.Uint32(h[4:])
	pid = PageID(binary.LittleEndian.Uint64(h[8:]))
	return pid, flags&slotFlagDirty != 0, pid != 0
}

func zeroBytes(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

const poisonByte = 0xAB

func poison(b []byte) {
	for i := range b {
		b[i] = poisonByte
	}
}

// verifyCleanLines implements the §A.6 debugging check on eviction: every
// resident cache line that is not marked dirty must match its NVM backing.
// A mismatch means some code modified page memory without marking it dirty.
func (m *Manager) verifyCleanLines(f *Frame) {
	if f.nvmSlot < 0 {
		return
	}
	base := m.slotDataOff(f.nvmSlot)
	var line [LineSize]byte
	check := func(physLine int, data []byte) {
		m.nvm.ReadAt(line[:], base+int64(physLine)*LineSize)
		for i := range line {
			if line[i] != data[i] {
				panic(fmt.Sprintf("core: page %d line %d modified without dirty mark", f.pid, physLine))
			}
		}
	}
	if f.kind == kindMini {
		for i := 0; i < int(f.count); i++ {
			if f.miniDirty&(1<<uint(i)) == 0 {
				check(int(f.slots[i]), f.data[i*LineSize:(i+1)*LineSize])
			}
		}
		return
	}
	for l := 0; l < LinesPerPage; l++ {
		if f.resident.get(l) && !f.dirty.get(l) {
			check(l, f.data[l*LineSize:(l+1)*LineSize])
		}
	}
}
