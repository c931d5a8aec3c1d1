// Package obs is the engine's observability layer: latency histograms at
// every tier boundary of the storage hierarchy, request spans, and the
// diagnostics HTTP endpoints (JSON metrics, Prometheus text, pprof) of the
// long-running commands.
//
// The paper's evaluation (§5) explains *why* the three-tier buffer manager
// wins — which tier absorbed each access, when cache-line-grained loads
// beat full-page loads, when mini pages promoted. The buffer manager's
// per-cause counters (core.Stats) count those decisions; following the NVM
// evaluation literature, this layer records what they cost as
// distributions (p50/p90/p99/max), not averages.
//
// Everything funnels through a *Collector. Components hold one and skip
// all work when it is nil (the default), so the instrumentation costs one
// nil check per boundary when disabled. A Collector records into
// lock-free histograms (atomic adds, mergeable snapshots), so a /metrics
// endpoint can snapshot a running engine without stopping it.
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

// ZeroFlush is how many batched zero-cost samples a component
// accumulates before flushing them via Collector.LatencyZeros. It bounds
// how stale a mid-run snapshot's hit counts can be.
const ZeroFlush = 4096
