package obs

import (
	"fmt"
	"sort"
	"strings"
)

// Stage identifies one segment of a request's server-side timeline. The
// stages are consecutive: a request leaves one stage exactly as it
// enters the next, so the stage durations of a finished Timeline sum to
// its total (up to the final response write completing).
type Stage uint8

const (
	// StageEnqueue is the reader goroutine's decode and dispatch work, up
	// to the request joining its shard's group of the burst.
	StageEnqueue Stage = iota
	// StageQueue is burst assembly plus waiting for the shard: the lock
	// and the group peers executed before this request.
	StageQueue
	// StageExec is this request's own execution under the shard lock.
	StageExec
	// StageFlush is the wait for the group's WAL flush, the rest of the
	// burst and any replica acks, including group peers executed later.
	StageFlush
	// StageWrite is the response's time between its encoding and the
	// return of the socket write that carried it.
	StageWrite

	// NumStages is the number of timeline stages.
	NumStages
)

var stageNames = [NumStages]string{"enqueue", "queue", "exec", "flush", "write"}

// String returns the stage's report/JSON name, e.g. "flush".
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "stage?"
}

// TierDeltas counts the engine-side storage-hierarchy work one operation
// performed, derived by differencing the engine's cumulative counters
// around the operation's execution.
type TierDeltas struct {
	// DRAMHits is page fixes resolved entirely in DRAM.
	DRAMHits int64 `json:"dram_hits"`
	// NVMLineLoads is cache-line-grained loads from NVM (§3.1).
	NVMLineLoads int64 `json:"nvm_line_loads"`
	// NVMPageLoads is whole-page loads from NVM.
	NVMPageLoads int64 `json:"nvm_page_loads"`
	// SSDReads is page reads that went all the way to SSD.
	SSDReads int64 `json:"ssd_reads"`
	// JournalUndos is mini-journal undo applications during the op.
	JournalUndos int64 `json:"journal_undos"`
}

// Sub returns d - prev, the work performed between two counter
// snapshots.
func (d TierDeltas) Sub(prev TierDeltas) TierDeltas {
	return TierDeltas{
		DRAMHits:     d.DRAMHits - prev.DRAMHits,
		NVMLineLoads: d.NVMLineLoads - prev.NVMLineLoads,
		NVMPageLoads: d.NVMPageLoads - prev.NVMPageLoads,
		SSDReads:     d.SSDReads - prev.SSDReads,
		JournalUndos: d.JournalUndos - prev.JournalUndos,
	}
}

// Timeline is one traced request's span record: a fixed-size struct the
// server stamps as the request moves through the pipeline stages, plus
// the engine-side tier work its execution performed. Recording into a
// Timeline is field assignment only — no allocation, no locks.
//
// A Timeline handed to a FlightRecorder must not be modified afterwards;
// the recorder publishes the pointer to concurrent readers.
type Timeline struct {
	// TraceID is the client-stamped 8-byte trace id (nonzero).
	TraceID uint64 `json:"trace_id"`
	// Op is the wire operation name ("get", "put", "delete").
	Op string `json:"op"`
	// Shard is the shard that executed the request.
	Shard int32 `json:"shard"`
	// StartUnixNs is the wall-clock start (request decoded), UnixNano.
	StartUnixNs int64 `json:"start_unix_ns"`
	// Stages holds wall-clock nanoseconds spent in each Stage.
	Stages [NumStages]int64 `json:"stages_ns"`
	// SimNs is the simulated device time the execution charged.
	SimNs int64 `json:"sim_ns"`
	// Tiers is the storage-hierarchy work the execution performed.
	Tiers TierDeltas `json:"tiers"`
	// TotalNs is the wall-clock total from decode to response written.
	TotalNs int64 `json:"total_ns"`

	lastNs int64 // wall clock at the previous Mark (internal cursor)
}

// Begin initializes the record at wall-clock time nowNs (UnixNano).
func (tl *Timeline) Begin(traceID uint64, op string, nowNs int64) {
	*tl = Timeline{TraceID: traceID, Op: op, Shard: -1, StartUnixNs: nowNs, lastNs: nowNs}
}

// Mark ends stage st at wall-clock time nowNs, charging it the time
// since the previous mark (or Begin). Marking the same stage again
// accumulates, which lets a stage be charged in several slices.
func (tl *Timeline) Mark(st Stage, nowNs int64) {
	tl.Stages[st] += nowNs - tl.lastNs
	tl.lastNs = nowNs
}

// Finish closes the record at wall-clock time nowNs, charging the
// remainder to StageWrite and fixing TotalNs.
func (tl *Timeline) Finish(nowNs int64) {
	tl.Mark(StageWrite, nowNs)
	tl.TotalNs = nowNs - tl.StartUnixNs
}

// Attribution is a tail-latency decomposition: at the chosen quantile of
// traced-request totals, how the latency splits across pipeline stages.
// It is computed from the flight recorder's uniform sample — the tail
// spans (requests at or above the quantile) are averaged per stage and
// normalized so the stages sum exactly to TotalNs.
type Attribution struct {
	// Quantile is the quantile attributed (e.g. 0.99).
	Quantile float64 `json:"quantile"`
	// Count is how many sampled spans the attribution was computed from.
	Count int `json:"count"`
	// TailCount is how many of them sit at or above the quantile.
	TailCount int `json:"tail_count"`
	// TotalNs is the exact quantile of sampled span totals.
	TotalNs int64 `json:"total_ns"`
	// Stages decomposes TotalNs across the pipeline stages; the entries
	// sum exactly to TotalNs.
	Stages [NumStages]int64 `json:"stages_ns"`
}

// Attribute computes the q-quantile decomposition of spans (0 < q < 1).
// Returns a zero Attribution when spans is empty.
func Attribute(spans []Timeline, q float64) Attribution {
	a := Attribution{Quantile: q, Count: len(spans)}
	if len(spans) == 0 {
		return a
	}
	totals := make([]int64, len(spans))
	for i := range spans {
		totals[i] = spans[i].TotalNs
	}
	sort.Slice(totals, func(i, j int) bool { return totals[i] < totals[j] })
	// Exact empirical quantile: the smallest total with at least a q
	// fraction of samples at or below it.
	idx := int(q * float64(len(totals)))
	if idx >= len(totals) {
		idx = len(totals) - 1
	}
	a.TotalNs = totals[idx]

	// Average the per-stage split over the tail spans, then scale so the
	// stages sum to the quantile total exactly.
	var stageSum [NumStages]int64
	var tailTotal int64
	for i := range spans {
		if spans[i].TotalNs < a.TotalNs {
			continue
		}
		a.TailCount++
		tailTotal += spans[i].TotalNs
		for st := range stageSum {
			stageSum[st] += spans[i].Stages[st]
		}
	}
	if tailTotal <= 0 {
		// Degenerate (all-zero totals): put everything in exec.
		a.Stages[StageExec] = a.TotalNs
		return a
	}
	var acc, maxSt int64
	maxIdx := 0
	for st := range a.Stages {
		v := stageSum[st] * a.TotalNs / tailTotal
		if v < 0 {
			v = 0
		}
		a.Stages[st] = v
		acc += v
		if v > maxSt {
			maxSt, maxIdx = v, st
		}
	}
	// Rounding remainder goes to the largest stage so the sum is exact.
	a.Stages[maxIdx] += a.TotalNs - acc
	return a
}

// SumNs returns the sum of the stage decomposition (equals TotalNs for
// any Attribution produced by Attribute on nonempty input).
func (a Attribution) SumNs() int64 {
	var s int64
	for _, v := range a.Stages {
		s += v
	}
	return s
}

// Format renders the decomposition as a one-line report, largest stage
// first, e.g. "p99 3.2ms = 62% flush, 21% queue, 9% exec, 5% write, 3% enqueue".
func (a Attribution) Format() string {
	if a.Count == 0 || a.TotalNs <= 0 {
		return fmt.Sprintf("p%g: no samples", a.Quantile*100)
	}
	type part struct {
		st Stage
		ns int64
	}
	parts := make([]part, 0, NumStages)
	for st := Stage(0); st < NumStages; st++ {
		parts = append(parts, part{st, a.Stages[st]})
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i].ns > parts[j].ns })
	var b strings.Builder
	fmt.Fprintf(&b, "p%g %.3fms =", a.Quantile*100, float64(a.TotalNs)/1e6)
	for i, p := range parts {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, " %.0f%% %s", 100*float64(p.ns)/float64(a.TotalNs), p.st)
	}
	return b.String()
}
