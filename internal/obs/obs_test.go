package obs

import (
	"sync"
	"testing"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Count() != 0 {
		t.Fatalf("empty count = %d", s.Count())
	}
	if got := s.Quantile(0.5); got != 0 {
		t.Fatalf("empty p50 = %d", got)
	}
	if got := s.Quantile(1); got != 0 {
		t.Fatalf("empty p100 = %d", got)
	}
	if got := s.Mean(); got != 0 {
		t.Fatalf("empty mean = %d", got)
	}
}

func TestHistogramZeroSamples(t *testing.T) {
	// Zero-latency operations (DRAM hits, WAL appends) land in bucket 0
	// and every quantile is exactly zero.
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Record(0)
	}
	s := h.Snapshot()
	if s.Count() != 100 || s.Counts[0] != 100 {
		t.Fatalf("count = %d, bucket0 = %d", s.Count(), s.Counts[0])
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := s.Quantile(q); got != 0 {
			t.Fatalf("q%.2f = %d, want 0", q, got)
		}
	}
}

func TestHistogramSingleBucket(t *testing.T) {
	// All samples in one bucket: every quantile is the bucket estimate,
	// clamped to the true max.
	var h Histogram
	for i := 0; i < 1000; i++ {
		h.Record(600) // bucket [512, 1024)
	}
	s := h.Snapshot()
	if s.Count() != 1000 {
		t.Fatalf("count = %d", s.Count())
	}
	if s.Max != 600 {
		t.Fatalf("max = %d", s.Max)
	}
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
		got := s.Quantile(q)
		// The bucket midpoint (767) exceeds the observed max, so the
		// estimate must clamp to exactly 600.
		if got != 600 {
			t.Fatalf("q%.2f = %d, want 600", q, got)
		}
	}
	if m := s.Mean(); m != 600 {
		t.Fatalf("mean = %d, want 600", m)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	// 90 fast samples (~100ns) and 10 slow (~1e6ns): p50 must sit in the
	// fast bucket, p99 in the slow one. Power-of-two buckets only give
	// order-of-magnitude positions, so assert bucket membership.
	var h Histogram
	for i := 0; i < 90; i++ {
		h.Record(100)
	}
	for i := 0; i < 10; i++ {
		h.Record(1_000_000)
	}
	s := h.Snapshot()
	p50, p99 := s.Quantile(0.50), s.Quantile(0.99)
	if bucketOf(p50) != bucketOf(100) {
		t.Fatalf("p50 = %d, want in bucket of 100", p50)
	}
	if bucketOf(p99) != bucketOf(1_000_000) {
		t.Fatalf("p99 = %d, want in bucket of 1e6", p99)
	}
	if s.Max != 1_000_000 {
		t.Fatalf("max = %d", s.Max)
	}
	if got := s.Quantile(1); got != 1_000_000 {
		t.Fatalf("p100 = %d, want clamped to max", got)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 50; i++ {
		a.Record(100)
	}
	for i := 0; i < 50; i++ {
		b.Record(1_000_000)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	sa.Merge(sb)
	if sa.Count() != 100 {
		t.Fatalf("merged count = %d", sa.Count())
	}
	if sa.Max != 1_000_000 {
		t.Fatalf("merged max = %d", sa.Max)
	}
	if sa.Sum != 50*100+50*1_000_000 {
		t.Fatalf("merged sum = %d", sa.Sum)
	}
	// Merging an empty snapshot is a no-op.
	var empty Histogram
	before := sa
	sa.Merge(empty.Snapshot())
	if sa != before {
		t.Fatal("merge of empty snapshot changed the result")
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Record(-5)
	s := h.Snapshot()
	if s.Counts[0] != 1 {
		t.Fatalf("negative sample not clamped to bucket 0: %v", s.Counts[:2])
	}
}

func TestHistogramConcurrentRecord(t *testing.T) {
	var h Histogram
	const goroutines, per = 8, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Record(int64(i%1000 + 1))
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count() != goroutines*per {
		t.Fatalf("count = %d, want %d", s.Count(), goroutines*per)
	}
	if s.Max != 1000 {
		t.Fatalf("max = %d", s.Max)
	}
}

func TestCollectorRows(t *testing.T) {
	c := NewCollector()
	c.Latency(OpSSDRead, 50_000)
	c.Latency(OpSSDRead, 60_000)
	c.Latency(OpDRAMHit, 0)

	rows := c.Snapshot().Rows()
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	// Rows come in Op declaration order: dram.hit before ssd.read.
	if rows[0].Op != "dram.hit" || rows[0].Count != 1 {
		t.Fatalf("rows[0] = %+v", rows[0])
	}
	if rows[1].Op != "ssd.read" || rows[1].Count != 2 || rows[1].Max != 60_000 {
		t.Fatalf("rows[1] = %+v", rows[1])
	}
}

func TestCollectorSnapshotMerge(t *testing.T) {
	a, b := NewCollector(), NewCollector()
	a.Latency(OpNVMLineLoad, 500)
	b.Latency(OpNVMLineLoad, 700)
	b.Latency(OpWALFlush, 900)
	sa := a.Snapshot()
	sa.Merge(b.Snapshot())
	sa.Merge(nil) // nil merge is a no-op
	if n := sa.Ops[OpNVMLineLoad].Count(); n != 2 {
		t.Fatalf("merged lineload count = %d", n)
	}
	if n := sa.Ops[OpWALFlush].Count(); n != 1 {
		t.Fatalf("merged walflush count = %d", n)
	}
	if m := sa.Ops[OpNVMLineLoad].Max; m != 700 {
		t.Fatalf("merged max = %d", m)
	}
}

func TestNames(t *testing.T) {
	for op := Op(0); op < NumOps; op++ {
		if op.String() == "" || op.String() == "op?" {
			t.Fatalf("op %d has no name", op)
		}
	}
}
