package nvmstore

import (
	"sync"
	"sync/atomic"
	"time"
)

// maintainer is one shard's background maintenance loop: it performs
// incremental (fuzzy) checkpoints — bounded write-back rounds under
// short shard-lock acquisitions, then a WAL truncation once the dirty
// set is drained — and paces dirty write-back off the commit path, so
// no writer ever stalls on a full FlushAll.
//
// Two thresholds drive it (see MaintenanceOptions): past SoftFill the
// maintainer runs rounds until the log is truncated; past HardFill the
// write path additionally blocks new writers (PaceWriter) until a
// truncation lands, so appends can never reach wal.ErrLogFull. Writers
// only ever *set* the throttle (under the shard lock, where the fill
// reading is exact); only the maintainer clears it, after observing the
// fill back under the hard threshold.
type maintainer struct {
	s *ShardedStore
	i int

	mu sync.Mutex
	// cond signals throttled writers; broadcast when the throttle
	// clears or the store shuts down.
	cond *sync.Cond
	// throttled marks that the shard's log passed the hard-fill
	// threshold; PaceWriter blocks while it is set.
	throttled bool
	// stopped marks shutdown: PaceWriter returns immediately and the
	// loop exits.
	stopped bool

	// kick nudges the loop out of its tick wait when the write path
	// observes the soft threshold crossed (capacity 1; duplicate nudges
	// coalesce).
	kick chan struct{}
	stop chan struct{}
	done chan struct{}

	// throttles counts writers that blocked in PaceWriter at least
	// once — the backpressure events surfaced in Metrics.
	throttles atomic.Int64

	stopOnce sync.Once
}

func newMaintainer(s *ShardedStore, i int) *maintainer {
	mt := &maintainer{
		s:    s,
		i:    i,
		kick: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	mt.cond = sync.NewCond(&mt.mu)
	return mt
}

// run is the maintenance goroutine: wake on the configured interval or
// on a nudge from the write path, then sweep the shard.
func (mt *maintainer) run() {
	defer close(mt.done)
	ticker := time.NewTicker(mt.s.shards[mt.i].e.Maintenance().Interval)
	defer ticker.Stop()
	for {
		select {
		case <-mt.stop:
			return
		case <-mt.kick:
		case <-ticker.C:
		}
		mt.sweep()
	}
}

// sweep runs checkpoint rounds while the shard needs them, one
// shard-lock acquisition per round so foreground operations interleave
// between rounds. It clears the writer throttle as soon as the fill is
// back under the hard threshold, and returns once the fill is under the
// soft threshold (usually via a truncation) or no further progress is
// possible.
func (mt *maintainer) sweep() {
	for {
		select {
		case <-mt.stop:
			return
		default:
		}
		var needed, over bool
		var pages int
		var truncated bool
		// Take the slot lock directly rather than via WithShard: the
		// maintainer decides the throttle from its own post-round
		// readings, and must not trip the write path's noteShard hook
		// (which would nudge-kick this loop into a spin when a
		// replication retention watermark refuses truncation).
		slot := &mt.s.slots[mt.i]
		slot.mu.Lock()
		st := mt.s.shards[mt.i]
		// Reclaim copy-on-write page versions no open snapshot can read
		// anymore; cheap when the version store is empty.
		st.e.Versions().Reclaim()
		var err error
		if st.e.NeedsMaintenance() {
			needed = true
			pages, truncated, err = st.e.CheckpointRound(0)
			over = st.e.OverHardFill()
		}
		slot.mu.Unlock()
		if !needed || err != nil {
			mt.setThrottle(false)
			return
		}
		mt.setThrottle(over)
		if !truncated && pages == 0 {
			// Clean pool but the truncation was refused (replication
			// retention watermark): more rounds cannot shrink the log.
			// Keep any throttle — the next sweep retries once the
			// watermark advances.
			return
		}
	}
}

// setThrottle engages or clears the writer throttle, waking blocked
// writers on clear.
func (mt *maintainer) setThrottle(on bool) {
	mt.mu.Lock()
	if mt.throttled != on {
		mt.throttled = on
		if !on {
			mt.cond.Broadcast()
		}
	}
	mt.mu.Unlock()
}

// engage sets the throttle without clearing it (the write path's side;
// only the maintainer clears), nudging the loop on the idle→throttled
// transition.
func (mt *maintainer) engage() {
	mt.mu.Lock()
	if mt.throttled {
		mt.mu.Unlock()
		return
	}
	mt.throttled = true
	mt.mu.Unlock()
	mt.nudge()
}

// nudge wakes the maintenance loop without blocking.
func (mt *maintainer) nudge() {
	select {
	case mt.kick <- struct{}{}:
	default:
	}
}

// pace blocks the calling writer while the throttle is engaged,
// counting the wait once per call. Must not be called with the shard
// lock held — the maintainer needs that lock to make the progress the
// writer is waiting for.
func (mt *maintainer) pace() {
	mt.mu.Lock()
	waited := false
	for mt.throttled && !mt.stopped {
		if !waited {
			waited = true
			mt.throttles.Add(1)
			mt.nudge()
		}
		mt.cond.Wait()
	}
	mt.mu.Unlock()
}

// shutdown stops the loop and releases any throttled writers. Safe to
// call more than once.
func (mt *maintainer) shutdown() {
	mt.stopOnce.Do(func() {
		close(mt.stop)
		mt.mu.Lock()
		mt.stopped = true
		mt.cond.Broadcast()
		mt.mu.Unlock()
		<-mt.done
	})
}

// startMaintenance launches one maintainer per shard and switches the
// engines to background mode (no inline checkpoint rounds on the commit
// path). NVMDirect needs none: it persists tuples in place and
// truncates the log per commit.
func (s *ShardedStore) startMaintenance() {
	s.maint = make([]*maintainer, len(s.shards))
	for i := range s.shards {
		s.shards[i].e.SetBackgroundMaintenance(true)
		mt := newMaintainer(s, i)
		s.maint[i] = mt
		go mt.run()
	}
}

// stopMaintenance stops every maintainer and releases throttled
// writers; idempotent.
func (s *ShardedStore) stopMaintenance() {
	for _, mt := range s.maint {
		mt.shutdown()
	}
}

// noteShard inspects shard i's log fill while its lock is held (every
// locked shard access funnels through here on unlock): past the hard
// threshold the writer throttle engages, past the soft threshold the
// maintainer gets a nudge. Without maintenance it is a no-op.
func (s *ShardedStore) noteShard(i int) {
	if s.maint == nil {
		return
	}
	mt := s.maint[i]
	e := s.shards[i].e
	if e.OverHardFill() {
		mt.engage()
	} else if e.NeedsMaintenance() {
		mt.nudge()
	}
}

// PaceWriter blocks while shard i's write-ahead log sits past the
// hard-fill threshold, returning once background maintenance has
// truncated it (or the store is closing) — backpressure instead of
// wal.ErrLogFull. Batch calls it before taking the shard lock; a caller
// driving writes through WithShard directly should do the same before
// each write batch. It must not be called while holding
// the shard's lock, and it returns immediately when background
// maintenance is disabled.
func (s *ShardedStore) PaceWriter(i int) {
	if s.maint != nil {
		s.maint[i].pace()
	}
}

// WriterThrottles returns how many writers have been blocked at the
// hard log-fill threshold across all shards — the backpressure counter
// surfaced as nvmstore_ckpt_writer_throttles_total.
func (s *ShardedStore) WriterThrottles() int64 {
	var total int64
	for _, mt := range s.maint {
		total += mt.throttles.Load()
	}
	return total
}
