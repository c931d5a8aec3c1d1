package obs

// Collector receives latency samples into one lock-free histogram per Op.
// One Collector serves one engine (shard); per-shard Collectors are
// aggregated by merging snapshots. Its methods tolerate concurrent calls:
// a live metrics reader snapshots while the engine records. Components
// treat a nil *Collector as "off".
type Collector struct {
	hist [NumOps]Histogram
}

// NewCollector returns an empty Collector.
func NewCollector() *Collector { return &Collector{} }

// Latency records that op took ns simulated nanoseconds.
func (c *Collector) Latency(op Op, ns int64) {
	c.hist[op].Record(ns)
}

// LatencyZeros bulk-records n zero-cost samples of op. Hit-heavy paths
// (DRAM hits, CPU-cached NVM reads) batch their zeros in a plain counter
// and flush every ZeroFlush samples, keeping the hot path free of atomics;
// see Manager.SyncObs for the flush contract.
func (c *Collector) LatencyZeros(op Op, n int64) {
	c.hist[op].RecordZeros(n)
}

// Snapshot copies every histogram. Safe to call while the engine records.
func (c *Collector) Snapshot() *Snapshot {
	s := &Snapshot{}
	for op := range c.hist {
		s.Ops[op] = c.hist[op].Snapshot()
	}
	return s
}

// Snapshot is a point-in-time copy of a Collector's histograms, mergeable
// across shards.
type Snapshot struct {
	Ops [NumOps]HistSnapshot `json:"-"`
}

// Merge folds other into s.
func (s *Snapshot) Merge(other *Snapshot) {
	if other == nil {
		return
	}
	for op := range s.Ops {
		s.Ops[op].Merge(other.Ops[op])
	}
}

// Row is one operation's latency summary, in simulated nanoseconds.
type Row struct {
	Op    string `json:"op"`
	Count int64  `json:"count"`
	P50   int64  `json:"p50_ns"`
	P90   int64  `json:"p90_ns"`
	P99   int64  `json:"p99_ns"`
	Max   int64  `json:"max_ns"`
	Mean  int64  `json:"mean_ns"`
}

// Row summarizes the histogram under the given operation name. An empty
// histogram gives a Row with Count 0, which callers leave out.
func (s *HistSnapshot) Row(name string) Row {
	return Row{
		Op:    name,
		Count: s.Count(),
		P50:   s.Quantile(0.50),
		P90:   s.Quantile(0.90),
		P99:   s.Quantile(0.99),
		Max:   s.Max,
		Mean:  s.Mean(),
	}
}

// Rows summarizes every operation that recorded at least one sample, in
// Op declaration order (storage hierarchy top to bottom).
func (s *Snapshot) Rows() []Row {
	var rows []Row
	for op := Op(0); op < NumOps; op++ {
		if r := s.Ops[op].Row(op.String()); r.Count > 0 {
			rows = append(rows, r)
		}
	}
	return rows
}
