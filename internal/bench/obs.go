package bench

import (
	"sync"

	"nvmstore/internal/obs"
)

// ObsSink aggregates observability data across every engine an
// experiment builds. Experiments construct engines freely — one per
// shard, one per sweep point — so the sink hands each engine its own
// collector and merges them on demand. Install one via Options.Obs;
// leave it nil for clean performance runs.
type ObsSink struct {
	mu         sync.Mutex
	collectors []*obs.Collector
}

// newCollector registers a fresh per-engine collector. Safe to call
// from the concurrent engine builders.
func (s *ObsSink) newCollector() *obs.Collector {
	c := obs.NewCollector()
	s.mu.Lock()
	s.collectors = append(s.collectors, c)
	s.mu.Unlock()
	return c
}

// Snapshot merges the latency histograms of every engine registered so
// far. Histogram counters are atomic, so this is safe to call while a
// run is still in flight (the live /metrics refresher does).
func (s *ObsSink) Snapshot() *obs.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := &obs.Snapshot{}
	for _, c := range s.collectors {
		total.Merge(c.Snapshot())
	}
	return total
}

// Rows returns the merged per-operation latency table.
func (s *ObsSink) Rows() []obs.Row { return s.Snapshot().Rows() }

// Reset drops every registered collector, starting a fresh phase.
func (s *ObsSink) Reset() {
	s.mu.Lock()
	s.collectors = nil
	s.mu.Unlock()
}
