package bench

import (
	"fmt"
	"sort"
	"time"

	"nvmstore"
)

// Checkpoint-stall experiment fixtures. The WAL is left at the device
// floor (1 MiB per shard) — the opposite of every throughput figure's
// 96 MB log — and the soft threshold sits low, so checkpoint cycles
// recur every few dozen transactions and their cost lands *inside* the
// measurement window; the cost distribution across commits is the
// experiment.
const (
	ckptStallShards   = 2
	ckptStallRowSize  = 256
	ckptStallTxRows   = 4
	ckptStallBatch    = 8
	ckptStallSoftFill = 0.04
	ckptStallHardFill = 0.5
)

// CkptStall measures why checkpoint rounds are bounded. Uniform
// multi-row update transactions run against a two-shard store whose tiny
// log forces a checkpoint cycle every few dozen commits, under two
// regimes, both on the commit path:
//
//   - "inline full checkpoint": the pre-maintenance behavior — the
//     commit that finds the log past the threshold synchronously
//     flushes the whole dirty set and truncates (Checkpoint), all on
//     its own latency.
//   - "inline paced rounds": what the engine does — the same write-back
//     split into bounded CheckpointRound batches, one round per commit
//     from the soft threshold, so the cost is amortized across the
//     writers that generate the dirt.
//
// Each series is one regime; X is the latency percentile over every
// measured commit, Y the latency in nanoseconds. Per-commit latency is
// wall time plus the simulated device time the commit consumed under
// the shard lock, write-back included: every device nanosecond is
// charged to the commit that caused it. The notes report each regime's
// write-back totals to show the same maintenance work happened in both.
//
// The expected shape: medians match (most commits do no write-back in
// either regime); the inline-full tail carries whole-dirty-set stalls,
// which paced rounds shrink to one bounded batch.
func CkptStall(o Options) (Result, error) {
	o.applyDefaults()
	res := Result{
		ID: "ckptstall",
		Title: fmt.Sprintf("commit latency vs checkpoint granularity (%d-row uniform update txs, %d shards, write-back batch %d)",
			ckptStallTxRows, ckptStallShards, ckptStallBatch),
		XLabel: "percentile",
		YLabel: "commit latency (ns)",
	}
	percentiles := []float64{50, 90, 99, 99.9, 100}
	modes := []struct {
		name  string
		maint nvmstore.MaintenanceOptions
		full  bool // emulate the old inline Checkpoint at the threshold
	}{
		{"inline full checkpoint",
			// Thresholds pinned high so the engine's own pacing never
			// fires; the driver checkpoints at ckptStallSoftFill itself.
			nvmstore.MaintenanceOptions{SoftFill: 0.95, HardFill: 0.95}, true},
		{"inline paced rounds",
			nvmstore.MaintenanceOptions{Batch: ckptStallBatch,
				SoftFill: ckptStallSoftFill, HardFill: ckptStallHardFill}, false},
	}
	rows := int(o.Scale >> 10) // data = Scale/4 bytes at 256 B/row: DRAM-resident
	for _, mode := range modes {
		lat, notes, err := ckptStallRun(o, mode.maint, mode.full, rows)
		if err != nil {
			return res, fmt.Errorf("ckptstall %s: %w", mode.name, err)
		}
		s := Series{Name: mode.name}
		for _, p := range percentiles {
			s.X = append(s.X, p)
			s.Y = append(s.Y, float64(quantile(lat, p/100)))
		}
		res.Series = append(res.Series, s)
		res.Notes = append(res.Notes, fmt.Sprintf("%s: %s", mode.name, notes))
	}
	return res, nil
}

// ckptStallRun measures one regime: preload, warm up, then time every
// update transaction individually.
func ckptStallRun(o Options, maint nvmstore.MaintenanceOptions, full bool, rows int) ([]int64, string, error) {
	s, err := nvmstore.OpenSharded(ckptStallShards, nvmstore.Options{
		Architecture: nvmstore.ThreeTier,
		DRAMBytes:    2 * o.Scale,
		NVMBytes:     10 * o.Scale,
		SSDBytes:     50 * o.Scale,
		WALBytes:     ckptStallShards << 20, // the 1 MiB per-shard floor
		Maintenance:  maint,
	})
	if err != nil {
		return nil, "", err
	}
	defer s.Close()
	table, err := s.CreateTable(1, ckptStallRowSize)
	if err != nil {
		return nil, "", err
	}
	// Preload in batches (one flush per shard per batch), then group the
	// keys by owning shard so each transaction stays on one shard.
	row := make([]byte, ckptStallRowSize)
	const chunk = 512
	keys := make([]uint64, 0, chunk)
	rws := make([][]byte, 0, chunk)
	for k := 0; k < rows; k += chunk {
		keys, rws = keys[:0], rws[:0]
		for j := k; j < k+chunk && j < rows; j++ {
			for i := range row {
				row[i] = byte(j) + byte(i)
			}
			keys = append(keys, uint64(j))
			rws = append(rws, append([]byte(nil), row...))
		}
		if err := table.PutBatch(keys, rws); err != nil {
			return nil, "", err
		}
		// The paced regime keeps the preload's log fill in check itself;
		// the full regime has its thresholds pinned high, so drain between
		// chunks the way its measured phase does.
		if full {
			for sh := 0; sh < ckptStallShards; sh++ {
				if err := s.WithShard(sh, func(st *nvmstore.Store) error {
					if st.LogFill() >= ckptStallHardFill {
						return st.Checkpoint()
					}
					return nil
				}); err != nil {
					return nil, "", err
				}
			}
		}
	}
	byShard := make([][]uint64, ckptStallShards)
	for k := 0; k < rows; k++ {
		sh := s.ShardFor(uint64(k))
		byShard[sh] = append(byShard[sh], uint64(k))
	}

	seed := o.Seed
	if seed == 0 {
		seed = 1
	}
	rng := seed*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	next := func() uint64 {
		rng += 0x9e3779b97f4a7c15
		x := rng
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		return x ^ (x >> 31)
	}

	var op, fullCkpts int
	val := make([]byte, 8)
	// tx runs one uniform multi-row update transaction on shard sh and
	// returns the simulated device time it consumed under the lock. In
	// the full regime the threshold checkpoint runs inside the same
	// lock hold, on the committing operation's latency — the old
	// behavior being measured against.
	tx := func(sh int) (simNs int64, err error) {
		pool := byShard[sh]
		err = s.WithShard(sh, func(st *nvmstore.Store) error {
			sim0 := st.SimulatedTime()
			uerr := st.Update(func() error {
				tab := st.Table(1)
				for r := 0; r < ckptStallTxRows; r++ {
					key := pool[next()%uint64(len(pool))]
					for i := range val {
						val[i] = byte(op) + byte(i) + byte(key)
					}
					if _, ferr := tab.UpdateField(key, int(next()%uint64(ckptStallRowSize-8)), val); ferr != nil {
						return ferr
					}
				}
				return nil
			})
			if uerr == nil && full && st.LogFill() >= ckptStallSoftFill {
				uerr = st.Checkpoint()
				fullCkpts++
			}
			simNs = (st.SimulatedTime() - sim0).Nanoseconds()
			return uerr
		})
		op++
		return simNs, err
	}

	for i := 0; i < o.Warmup/2; i++ {
		if _, err := tx(i % ckptStallShards); err != nil {
			return nil, "", err
		}
	}
	lat := make([]int64, 0, o.Ops)
	for i := 0; i < o.Ops; i++ {
		wall0 := time.Now()
		simNs, err := tx(i % ckptStallShards)
		if err != nil {
			return nil, "", err
		}
		lat = append(lat, time.Since(wall0).Nanoseconds()+simNs)
	}
	m := s.Metrics()
	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
	notes := fmt.Sprintf(
		"p50=%dns p99=%dns p999=%dns max=%dns; %d rounds (%d pages), %d truncations, %d full checkpoints",
		quantile(lat, 0.50), quantile(lat, 0.99), quantile(lat, 0.999), quantile(lat, 1.0),
		m.Ckpt.Rounds, m.Ckpt.Pages, m.Ckpt.Truncations, fullCkpts)
	return lat, notes, nil
}

// quantile returns the q-th quantile of sorted latencies.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}
