// Package obs is the engine's observability layer: latency histograms at
// every tier boundary of the storage hierarchy, a structured trace of
// page-lifecycle events, and the diagnostics HTTP endpoints (JSON metrics,
// Prometheus text, pprof) of the long-running commands.
//
// The paper's evaluation (§5) explains *why* the three-tier buffer manager
// wins — which tier absorbed each access, when cache-line-grained loads
// beat full-page loads, when mini pages promoted — and flat event counters
// cannot answer those questions. Following the NVM evaluation literature,
// the layer records distributions (p50/p90/p99/max), not averages, and
// per-decision traces, not aggregates.
//
// Everything funnels through the Recorder interface. Components hold a
// Recorder and skip all work when it is nil (the default), so the
// instrumentation costs one nil check per boundary when disabled. The
// concrete Collector implementation records into lock-free histograms
// (atomic adds, mergeable snapshots) and an optional fixed-size event ring,
// so a /metrics endpoint can snapshot a running engine without
// stopping it.
package obs

// Op identifies one instrumented operation of the storage hierarchy. Each
// Op has its own latency histogram in a Collector. Latencies are simulated
// device nanoseconds (the engine's virtual clock), so distributions are
// deterministic; operations that charge no device time (DRAM hits, WAL
// appends into the CPU cache) record zero and contribute counts.
type Op uint8

const (
	// OpDRAMHit is a page fix resolved entirely in DRAM (swizzled
	// reference or mapping-table hit). No device time is charged.
	OpDRAMHit Op = iota
	// OpNVMLineLoad is one page access that loaded cache lines from NVM
	// into a full or mini page frame (§3.1, §3.2): all the device reads of
	// that access, one per contiguous run of missing lines.
	OpNVMLineLoad
	// OpNVMPageLoad is a whole page read from NVM in page-grained mode.
	OpNVMPageLoad
	// OpNVMRead is a device-level NVM read (every ReadAt/Touch,
	// including CPU-cache hits, which record zero).
	OpNVMRead
	// OpNVMFlush is a device-level NVM flush (clwb + sfence).
	OpNVMFlush
	// OpSSDRead is an SSD page read.
	OpSSDRead
	// OpSSDWrite is an SSD page write.
	OpSSDWrite
	// OpWALAppend is a log-record append (buffered; no device time).
	OpWALAppend
	// OpWALFlush is a log-tail flush — the commit-path durability point.
	OpWALFlush
	// OpMiniPromote is a mini-page promotion to a full page (§3.2).
	OpMiniPromote
	// OpDRAMEvict is one DRAM frame eviction, including its write-back.
	OpDRAMEvict
	// OpNVMAdmit is a page admission into the NVM cache (§4.2).
	OpNVMAdmit
	// OpNVMEvict is one NVM slot eviction, including its SSD write-back.
	OpNVMEvict
	// OpWALBatch records, at each log-tail flush that makes at least one
	// commit durable, how many commits that flush covered. The "latency"
	// value is a count, not nanoseconds: the histogram is the
	// ops-per-flush distribution of group commit.
	OpWALBatch

	// NumOps is the number of instrumented operations.
	NumOps
)

var opNames = [NumOps]string{
	"dram.hit",
	"nvm.lineload",
	"nvm.pageload",
	"nvm.read",
	"nvm.flush",
	"ssd.read",
	"ssd.write",
	"wal.append",
	"wal.flush",
	"mini.promote",
	"dram.evict",
	"nvm.admit",
	"nvm.evict",
	"wal.batch",
}

// String returns the operation's table/JSON name, e.g. "nvm.lineload".
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "op?"
}

// Tier identifies a level of the storage hierarchy in trace events.
type Tier uint8

// The tiers, in hierarchy order.
const (
	TierDRAM Tier = iota
	TierNVM
	TierSSD
)

var tierNames = [...]string{"dram", "nvm", "ssd"}

// String returns the tier's name.
func (t Tier) String() string {
	if int(t) < len(tierNames) {
		return tierNames[t]
	}
	return "tier?"
}

// EventKind identifies a page-lifecycle event.
type EventKind uint8

const (
	// EvAlloc: a page was allocated (Tier: where it was created).
	EvAlloc EventKind = iota
	// EvFree: a page was deallocated.
	EvFree
	// EvLoad: a page was loaded into DRAM (Tier: where it came from;
	// Detail: 1 when it was materialized as a mini page).
	EvLoad
	// EvLineLoad: a page access loaded cache lines from the page's NVM
	// backing (Detail: number of lines that access loaded).
	EvLineLoad
	// EvPromote: a mini page was promoted to a full page.
	EvPromote
	// EvSwizzle: the page's reference was swizzled to a frame pointer.
	EvSwizzle
	// EvUnswizzle: the swizzled reference was restored to a page id.
	EvUnswizzle
	// EvWriteback: dirty content was written back (Tier: destination).
	EvWriteback
	// EvAdmit: the page was admitted to the NVM cache (§4.2).
	EvAdmit
	// EvDeny: the page was denied NVM admission and went to SSD.
	EvDeny
	// EvEvict: the page was evicted (Tier: the tier it left).
	EvEvict
)

var eventNames = [...]string{
	"alloc", "free", "load", "lineload", "promote", "swizzle",
	"unswizzle", "writeback", "admit", "deny", "evict",
}

// String returns the event kind's name.
func (k EventKind) String() string {
	if int(k) < len(eventNames) {
		return eventNames[k]
	}
	return "event?"
}

// Event is one structured page-lifecycle event. The encoding is a plain
// value copy into a preallocated ring: recording allocates nothing.
type Event struct {
	// SimNs is the engine's simulated device time when the event fired.
	SimNs int64
	// PID is the page the event concerns (0 when not page-specific).
	PID uint64
	// Frame is the DRAM frame index involved, or -1.
	Frame int32
	// Kind is what happened.
	Kind EventKind
	// Tier is the storage tier the event concerns (see each Kind).
	Tier Tier
	// Detail is Kind-specific (line counts, mini flags, ...).
	Detail uint32
}

// Recorder receives latency samples and lifecycle events. Implementations
// must tolerate concurrent Latency calls (engines run one per shard, but a
// live metrics reader snapshots concurrently); Event streams are
// single-writer per Recorder. Components treat a nil Recorder as "off".
type Recorder interface {
	// Latency records that op took ns simulated nanoseconds.
	Latency(op Op, ns int64)
	// LatencyZeros bulk-records n zero-cost samples of op. Hit-heavy
	// paths (DRAM hits, CPU-cached NVM reads) batch their zeros in a
	// plain counter and flush every ZeroFlush samples, keeping the hot
	// path free of atomics; see Manager.SyncObs for the flush contract.
	LatencyZeros(op Op, n int64)
	// Event records a page-lifecycle event.
	Event(e Event)
}

// ZeroFlush is how many batched zero-cost samples a component
// accumulates before flushing them via LatencyZeros. It bounds how
// stale a mid-run snapshot's hit counts can be.
const ZeroFlush = 4096

// nop is the no-op default Recorder.
type nop struct{}

func (nop) Latency(Op, int64)      {}
func (nop) LatencyZeros(Op, int64) {}
func (nop) Event(Event)            {}

// Nop is a Recorder that discards everything. Components usually prefer a
// nil Recorder plus a nil check (cheaper); Nop exists for call sites that
// need a non-nil value.
var Nop Recorder = nop{}
