package nvmstore

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"nvmstore/internal/core"
	"nvmstore/internal/obs"
)

// TestEmbeddedOpsAllocateNothing pins the embedded op path at zero heap
// allocations: one-op transactions of LookupField and UpdateField, as an
// embedded caller runs them, on a three-tier store whose data is over six
// times its DRAM, so that the measured operations evict frames, load
// cache lines from NVM, promote mini pages and write dirty pages back.
// A run is a batch of operations, so a result of 0 means fewer than one
// allocation per batch, not merely fewer than one per operation. It runs
// with Options.Observe off and on: the recorder-enabled path is the one
// the benchmark's traced run takes.
func TestEmbeddedOpsAllocateNothing(t *testing.T) {
	for _, observe := range []bool{false, true} {
		name := "observe=off"
		if observe {
			name = "observe=on"
		}
		t.Run(name, func(t *testing.T) { embeddedOpsAllocateNothing(t, observe) })
	}
}

func embeddedOpsAllocateNothing(t *testing.T, observe bool) {
	const (
		rows, rowSize = 4000, 1000 // ≈ 400 leaves at the 0.66 fill, 6.5 MB
		dram          = 1 << 20
		field         = 100
		batch, runs   = 200, 50
	)
	s, err := Open(Options{
		Architecture: ThreeTier,
		DRAMBytes:    dram,
		NVMBytes:     16 << 20,
		SSDBytes:     32 << 20,
		WALBytes:     1 << 20,
		Observe:      observe,
	})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := s.CreateTable(1, rowSize)
	if err != nil {
		t.Fatal(err)
	}
	err = tab.BulkLoad(rows, func(i int) uint64 { return uint64(i) },
		func(i int, dst []byte) { binary.LittleEndian.PutUint64(dst, uint64(i)) }, 0.66)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if leaves := s.Metrics().Residency.NVMPages; leaves*(16<<10) < 6*dram {
		t.Fatalf("%d pages on NVM, want data of at least 6× the %d B of DRAM", leaves, dram)
	}

	// The transaction bodies are built once and read their operation from
	// key and put, as benchmark/embedded.go's do.
	var (
		key      uint64
		put      bool
		val, buf [field]byte
		found    bool
	)
	body := func() error {
		var err error
		if put {
			found, err = tab.UpdateField(key, 2*field, val[:])
		} else {
			found, err = tab.LookupField(key, 3*field, field, buf[:])
		}
		return err
	}
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, batch*runs*2)
	for i := range keys {
		keys[i] = uint64(rng.Intn(rows))
	}
	next := 0
	step := func() {
		key, put = keys[next%len(keys)], next%4 == 0
		val[0] = byte(next)
		next++
		if err := s.Update(body); err != nil || !found {
			t.Fatalf("op %d on key %d: found %v, %v", next, key, found, err)
		}
	}
	for range batch * runs { // warm the pools and buffers up
		step()
	}

	before := s.Metrics().Buffer
	allocs := testing.AllocsPerRun(runs, func() {
		for range batch {
			step()
		}
	})
	after := s.Metrics().Buffer
	if allocs != 0 {
		t.Errorf("a batch of %d one-op transactions makes %v heap allocations, want 0", batch, allocs)
	}
	var writtenBack int64
	for c := range after.NVMLinesWrittenBy {
		if core.WriteCause(c).String() == "dram-evict" {
			writtenBack = after.NVMLinesWrittenBy[c] - before.NVMLinesWrittenBy[c]
		}
	}
	moved := map[string]int64{
		"DRAM evictions":                       after.DRAMEvictions - before.DRAMEvictions,
		"cache lines loaded":                   after.LinesLoaded - before.LinesLoaded,
		"mini-page promotions":                 after.MiniPromotions - before.MiniPromotions,
		"dirty lines written back on eviction": writtenBack,
	}
	for what, n := range moved {
		if n == 0 {
			t.Errorf("the measured operations made no %s: the test does not cover that path", what)
		}
	}
	if lat := s.Metrics().Latency; observe && (lat == nil || lat.Ops[obs.OpNVMLineLoad].Count() == 0) {
		t.Error("Observe is on, but no cache-line load latency was recorded")
	}
}
