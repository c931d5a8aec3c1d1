package obs

import (
	"sort"
	"sync"
	"sync/atomic"

	"nvmstore/internal/shard"
)

// FlightRecorder retains a bounded view of traced-request timelines: a
// uniform random sample of everything recorded (reservoir sampling, so
// the sample stays representative of the whole run, not just the recent
// past) plus the N slowest requests seen. Record is lock-free on its
// common paths: the reservoir is a ring of atomic pointers, and the
// slowest set is guarded by a mutex that is only taken when a timeline
// actually beats the current cut-off (an atomic fast path skips it
// otherwise).
//
// Timelines handed to Record are published by pointer and must not be
// modified afterwards.
type FlightRecorder struct {
	ring []atomic.Pointer[Timeline]
	n    atomic.Int64 // total timelines ever recorded

	slowN   int
	slowMin atomic.Int64 // smallest TotalNs in the full slow set, else -1
	mu      sync.Mutex
	slow    []*Timeline
}

// NewFlightRecorder returns a recorder keeping a sampleCap-sized uniform
// sample and the slowN slowest timelines (minimums of 1 each).
func NewFlightRecorder(sampleCap, slowN int) *FlightRecorder {
	if sampleCap < 1 {
		sampleCap = 1
	}
	if slowN < 1 {
		slowN = 1
	}
	f := &FlightRecorder{
		ring:  make([]atomic.Pointer[Timeline], sampleCap),
		slowN: slowN,
		slow:  make([]*Timeline, 0, slowN),
	}
	f.slowMin.Store(-1) // slow set not full yet: everything qualifies
	return f
}

// Record offers one finished timeline to the recorder. tl must not be
// modified after the call.
func (f *FlightRecorder) Record(tl *Timeline) {
	i := f.n.Add(1) // 1-based count including this record
	cap64 := int64(len(f.ring))
	if i <= cap64 {
		f.ring[i-1].Store(tl)
	} else {
		// Algorithm R: keep with probability cap/i, evicting a uniform
		// victim, so every record is retained with equal probability.
		j := int64(shard.Mix(uint64(i)) % uint64(i))
		if j < cap64 {
			f.ring[j].Store(tl)
		}
	}

	if min := f.slowMin.Load(); min >= 0 && tl.TotalNs <= min {
		return // doesn't beat the slowest-set cut-off
	}
	f.mu.Lock()
	if len(f.slow) < f.slowN {
		f.slow = append(f.slow, tl)
	} else {
		minIdx := 0
		for k := 1; k < len(f.slow); k++ {
			if f.slow[k].TotalNs < f.slow[minIdx].TotalNs {
				minIdx = k
			}
		}
		if tl.TotalNs > f.slow[minIdx].TotalNs {
			f.slow[minIdx] = tl
		}
	}
	if len(f.slow) == f.slowN {
		min := f.slow[0].TotalNs
		for k := 1; k < len(f.slow); k++ {
			if f.slow[k].TotalNs < min {
				min = f.slow[k].TotalNs
			}
		}
		f.slowMin.Store(min)
	}
	f.mu.Unlock()
}

// Sampled returns how many timelines were ever recorded.
func (f *FlightRecorder) Sampled() int64 { return f.n.Load() }

// FlightSnapshot is a point-in-time copy of a FlightRecorder: the
// uniform sample, the slowest requests (slowest first), and the p99
// attribution computed over the sample.
type FlightSnapshot struct {
	// Sampled is how many timelines were ever recorded.
	Sampled int64 `json:"sampled"`
	// P99 is the tail-latency decomposition over Sample.
	P99 Attribution `json:"p99"`
	// Slowest holds the slowest retained timelines, slowest first.
	Slowest []Timeline `json:"slowest,omitempty"`
	// Sample is the uniform reservoir sample (unordered).
	Sample []Timeline `json:"sample,omitempty"`
}

// Snapshot copies the recorder's current state. Safe to call while
// Record runs; each returned Timeline is an immutable value copy.
func (f *FlightRecorder) Snapshot() FlightSnapshot {
	s := FlightSnapshot{Sampled: f.n.Load()}
	for i := range f.ring {
		if tl := f.ring[i].Load(); tl != nil {
			s.Sample = append(s.Sample, *tl)
		}
	}
	f.mu.Lock()
	for _, tl := range f.slow {
		s.Slowest = append(s.Slowest, *tl)
	}
	f.mu.Unlock()
	sort.Slice(s.Slowest, func(i, j int) bool { return s.Slowest[i].TotalNs > s.Slowest[j].TotalNs })
	s.P99 = Attribute(s.Sample, 0.99)
	return s
}
