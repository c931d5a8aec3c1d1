package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"nvmstore"
)

// driver is a loaded store plus the means to send it a workload's
// operations: embedded (direct calls) or wired (through the server).
type driver interface {
	workers() int
	// segment runs one throughput segment, worker g executing ops[g] and
	// appending one latency sample per operation to samples[g]. It
	// returns the host wall time and the simulated device time it took.
	segment(ops [][]op, samples [][]uint32) (wall, sim time.Duration, failed int64)
	// latSegment runs ops one at a time on one connection (wire only).
	latSegment(ops []op, lat *[numKinds][]uint32) (failed int64)
	counters() *counters
	checkpoint() error
	wearMax() float64
	traceMetrics(v values)
	// watch starts whatever sampling the traced run wants during a
	// measured phase and returns the function that stops it.
	watch() (stop func())
	close() error

	// The ladder's hooks; see ladder.go.
	callRungs() []callRung
	onStores(ops []op, fn func(st *nvmstore.Store, tab *nvmstore.Table, ops []op))
	tableOp(tab *nvmstore.Table, o op, val, row []byte) (bool, error)
}

// run is what one invocation measures with: the workload, its seed, and
// how long or how much.
type run struct {
	sp      *spec
	z       *zipfParams
	seed    uint64
	seconds float64 // 0: fixed operation counts
	quick   bool    // fixed counts divided by 20: smoke only
	// outDir is where the traced run writes its spans; empty keeps them
	// in memory only.
	outDir string
}

func newRun(sp *spec, seed uint64, seconds float64, quick bool) *run {
	r := &run{sp: sp, seed: seed, seconds: seconds, quick: quick}
	if sp.theta > 0 {
		r.z = newZipf(uint64(sp.rows), sp.theta)
	}
	return r
}

// scaled shrinks a fixed count for -quick and stretches the ladder's and
// the verify pass's counts with -seconds (they are sized for 15 s).
func (r *run) scaled(n int) int {
	switch {
	case r.quick:
		n /= 20
	case r.seconds > 0:
		n = int(float64(n) * r.seconds / 15)
	}
	return max(n, 1)
}

// setUpTime is the host wall time of one set-up, in seconds: all of it,
// and within it the chunks of its two streams of operations, the load
// (wire workloads: rows PUT over the wire, loadChunk at a time) and the
// warm-up (a segment at a time).
type setUpTime struct {
	total      float64
	load, warm []float64
}

// setUp opens, loads and warms a store: everything before the first
// measured operation.
func (r *run) setUp(traced bool) (driver, setUpTime, error) {
	var t setUpTime
	start := time.Now()
	var d driver
	var err error
	if r.sp.wire {
		var w *wired
		if w, err = openWired(r.sp, traced, false, wireConns); err == nil {
			d, t.load = w, w.loadWalls
		}
	} else {
		d, err = openEmbedded(r.sp, traced, false)
	}
	if err != nil {
		return nil, t, err
	}
	warm := r.sp.warmOps
	if r.quick {
		warm /= 20
	}
	s := r.sp.newStream(r.z, r.seed, tagWarm)
	nw := d.workers()
	ops := make([][]op, nw)
	samples := make([][]uint32, nw)
	for g := range ops {
		ops[g] = make([]op, r.sp.segOps/nw)
	}
	for done := 0; done < warm; done += r.sp.segOps {
		for g := range ops {
			s.fill(ops[g])
			samples[g] = samples[g][:0]
		}
		wall, _, failed := d.segment(ops, samples)
		if failed > 0 {
			return nil, t, fmt.Errorf("%d operations failed during warm-up", failed)
		}
		t.warm = append(t.warm, wall.Seconds())
	}
	t.total = time.Since(start).Seconds()
	return d, t, nil
}

// setUpSeconds is setup_s: what a set-up takes at the box's own speed.
// The two streams are priced at their quiet chunks' mean, every set-up's
// chunks taken together, and the rest (opening, bulk load, checkpoint) at
// the fastest set-up's. Whole set-ups cannot be compared instead: one
// lasts a second, a fast spell of this box tens of milliseconds, so each
// is a mixture, and the median of five and the fastest of five both
// moved by more than a quarter between two sets of ten runs of the same
// code. Work moved into set-up lands in one of the three parts and shows.
func setUpSeconds(ts []setUpTime) float64 {
	var load, warm []float64
	rest := math.Inf(1)
	for _, t := range ts {
		part := t.total
		for _, c := range t.load {
			part -= c
		}
		for _, c := range t.warm {
			part -= c
		}
		rest = min(rest, part)
		load = append(load, t.load...)
		warm = append(warm, t.warm...)
	}
	quietMean := func(chunks []float64) float64 {
		sum, n := 0.0, 0
		for i, ok := range quiet(chunks) {
			if ok {
				sum += chunks[i]
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	return rest + float64(len(ts[0].load))*quietMean(load) + float64(len(ts[0].warm))*quietMean(warm)
}

// dist is a latency distribution kept segment by segment, each segment's
// samples sorted. The run reports the quantiles of the samples of the
// quiet segments (see quiet), so that the spells in which the box is slow
// move neither the median nor the tail.
type dist struct {
	segs  [][]uint32 // each sorted, at most about segKeep samples
	n     int64      // samples seen in all
	sumNs float64
}

// segKeep is how many of a segment's samples are kept: every one of a
// wire latency segment, every twentieth operation's of an embedded_nvm
// segment. Keeping all ten million of a run would add to peak_rss_mb
// twice what they weigh (the collector lets the heap double), and by an
// amount that depends on how fast the run went.
const segKeep = 1000

// add folds in one segment's samples, in the order they were taken. It
// copies what it keeps: callers reuse their buffers.
func (d *dist) add(samples []uint32) {
	if len(samples) == 0 {
		return
	}
	stride := max(1, len(samples)/segKeep)
	seg := make([]uint32, 0, len(samples)/stride+1)
	for i, s := range samples {
		if i%stride == 0 {
			seg = append(seg, s)
		}
		d.sumNs += float64(s)
	}
	slices.Sort(seg)
	d.segs = append(d.segs, seg)
	d.n += int64(len(samples))
}

func (d *dist) meanNs() float64 {
	if d.n == 0 {
		return 0
	}
	return d.sumNs / float64(d.n)
}

// quantiles are the exact quantiles, in microseconds, of the samples kept
// of the quiet segments, a segment's key being its own median; kept is
// how many segments those were and n how many samples.
type quantiles struct {
	p50, p95, p99, p999 float64
	kept, n             int
}

func (d *dist) quantiles() quantiles {
	keys := make([]float64, len(d.segs))
	for i, seg := range d.segs {
		keys[i] = quantileUs(seg, 0.50)
	}
	var pool []uint32
	var q quantiles
	for i, ok := range quiet(keys) {
		if ok {
			pool = append(pool, d.segs[i]...)
			q.kept++
		}
	}
	slices.Sort(pool)
	q.p50, q.p95, q.n = quantileUs(pool, 0.50), quantileUs(pool, 0.95), len(pool)
	q.p99, q.p999 = quantileUs(pool, 0.99), quantileUs(pool, 0.999)
	return q
}

// phase is what the measured phases of one store produced.
type phase struct {
	ops, failed int64
	kinds       [numKinds]int64 // throughput-phase operations by kind
	wall, sim   time.Duration   // throughput phase, both clocks
	segOps      int64           // operations in each throughput segment
	segWall     []float64       // host wall seconds of each throughput segment
	segSim      []float64       // simulated device seconds of each
	before      *counters
	after       *counters
	// tput is the throughput phase's per-operation time: hybrid latency
	// on embedded workloads, loaded round-trip time on wire ones.
	tput dist
	// lat is the wire latency segments' round-trip time (one connection,
	// one request in flight), latKind the same by operation kind, and
	// latKinds how many operations of each kind they ran.
	lat      dist
	latKind  [numKinds]dist
	latKinds [numKinds]int64
}

// opsPerSec is the hybrid throughput of the quiet throughput segments,
// taken together, and how many they were. A segment's key is its host
// wall time: only that clock feels the box (every segment has the same
// number of operations, and simulated time depends on nothing but them).
func (p *phase) opsPerSec() (rate float64, kept int) {
	var took float64
	for i, ok := range quiet(p.segWall) {
		if ok {
			took += p.segWall[i] + p.segSim[i]
			kept++
		}
	}
	if took == 0 {
		return 0, 0
	}
	return float64(int64(kept)*p.segOps) / took, kept
}

// latency is the distribution the end-to-end latency metrics are taken
// from: the latency phase's on wire workloads, the throughput phase's
// own on embedded ones.
func (p *phase) latency() *dist {
	if p.lat.n > 0 {
		return &p.lat
	}
	return &p.tput
}

// measure runs the measured phases. On wire workloads throughput
// segments (every connection loaded) alternate with latency segments
// (one connection, one request in flight), so that both kinds sample the
// whole window. Segments are short, tens of milliseconds, because that
// is how long this box stays at one speed (see quiet). share is this
// store's part of -seconds.
func (r *run) measure(d driver, share float64) *phase {
	p := &phase{}
	budget := time.Duration(r.seconds * share * float64(time.Second))
	// more reports whether to run another round: in timed mode until the
	// time is used (at least 10, so the quiet filter has something to
	// choose from), otherwise the workload's fixed count.
	more := func(done int, start time.Time) bool {
		if r.seconds > 0 {
			return done < 10 || time.Since(start) < budget
		}
		return done < r.scaled(r.sp.fixedSegs)
	}

	nw := d.workers()
	p.segOps = int64(r.sp.segOps / nw * nw)
	streams := make([]*stream, nw)
	ops := make([][]op, nw)
	samples := make([][]uint32, nw)
	for g := range ops {
		streams[g] = r.sp.newStream(r.z, r.seed, tagTput+uint64(g))
		ops[g] = make([]op, r.sp.segOps/nw)
		samples[g] = make([]uint32, 0, r.sp.segOps) // room for every worker's, to merge into
	}
	latStream := r.sp.newStream(r.z, r.seed, tagLat)
	latOps := make([]op, r.sp.latSegOps)
	var byKind [numKinds][]uint32
	all := make([]uint32, 0, len(latOps))

	runtime.GC()
	p.before = d.counters()
	start := time.Now()
	for n := 0; more(n, start); n++ {
		for g := range ops {
			streams[g].fill(ops[g])
			for _, o := range ops[g] {
				p.kinds[o.kind]++
			}
			samples[g] = samples[g][:0]
		}
		wall, sim, failed := d.segment(ops, samples)
		for g := 1; g < nw; g++ {
			samples[0] = append(samples[0], samples[g]...)
		}
		p.tput.add(samples[0])
		p.ops += p.segOps
		p.failed += failed
		p.wall += wall
		p.sim += sim
		p.segWall = append(p.segWall, wall.Seconds())
		p.segSim = append(p.segSim, sim.Seconds())

		for i := 0; i < r.sp.latSegs; i++ {
			latStream.fill(latOps)
			all = all[:0]
			for k := range byKind {
				byKind[k] = byKind[k][:0]
			}
			p.failed += d.latSegment(latOps, &byKind)
			for k := range byKind {
				all = append(all, byKind[k]...)
				p.latKind[k].add(byKind[k])
			}
			for _, o := range latOps {
				p.latKinds[o.kind]++
			}
			p.lat.add(all)
		}
	}
	// Write-back the store had put off is the window's cost too. Without
	// this wire_read's write_amp has two values a tenth apart: its log
	// reaches the maintainer's soft-fill mark once in about a million
	// operations, so a window either holds a round of checkpointing or,
	// on a slower day, none.
	if err := d.checkpoint(); err != nil {
		p.failed++
	}
	p.after = d.counters()
	return p
}

// verdict is the verify pass's result.
type verdict struct {
	attempted, failed int64
	lost              int64 // acknowledged writes not readable after the crash
	restart           time.Duration
	redone            int
}

// verify reruns the start of the workload with strict persistence, then
// crashes the store and reads every written row back.
func (r *run) verify() (verdict, error) {
	n := r.scaled(20_000)
	if r.sp.scanPct > 0 {
		n = r.scaled(2_000)
	}
	if r.sp.wire {
		return verifyWired(r.sp, r.z, r.seed, n)
	}
	return verifyEmbedded(r.sp, r.z, r.seed, n)
}
