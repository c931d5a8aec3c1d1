package nvmstore

import (
	"runtime"
	"testing"

	"nvmstore/internal/offheap"
)

func openForClose(t *testing.T, checkpoint bool) *Store {
	t.Helper()
	s, err := Open(Options{
		Architecture:      ThreeTier,
		DRAMBytes:         4 << 20,
		NVMBytes:          16 << 20,
		SSDBytes:          64 << 20,
		CheckpointOnClose: checkpoint,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCloseIdempotent(t *testing.T) {
	s := openForClose(t, false)
	tab, err := s.CreateTable(1, 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Update(func() error { return tab.Insert(1, make([]byte, 32)) }); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Close(); err != nil {
			t.Fatalf("close #%d: %v", i+2, err)
		}
	}
	// The closed state is durable: a power failure after Close replays
	// the committed insert.
	if _, err := s.CrashRestart(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32)
	if found, err := tab.Lookup(1, buf); err != nil || !found {
		t.Fatalf("committed row after close + crash: found=%v err=%v", found, err)
	}
}

func TestCloseInsideTransactionFails(t *testing.T) {
	s := openForClose(t, false)
	if _, err := s.CreateTable(1, 32); err != nil {
		t.Fatal(err)
	}
	s.Begin()
	if err := s.Close(); err == nil {
		t.Fatal("close inside a transaction succeeded")
	}
	if err := s.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close after rollback: %v", err)
	}
}

func TestCloseCheckpointOption(t *testing.T) {
	s := openForClose(t, true)
	tab, err := s.CreateTable(1, 32)
	if err != nil {
		t.Fatal(err)
	}
	for key := uint64(1); key <= 64; key++ {
		if err := s.Update(func() error { return tab.Insert(key, make([]byte, 32)) }); err != nil {
			t.Fatal(err)
		}
	}
	truncates := s.Metrics().Log.Truncates
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// CheckpointOnClose writes back dirty pages and truncates the log.
	if got := s.Metrics().Log.Truncates; got <= truncates {
		t.Fatalf("close with CheckpointOnClose did not checkpoint: truncates %d -> %d", truncates, got)
	}
}

func TestShardedCloseIdempotent(t *testing.T) {
	s, err := OpenSharded(4, Options{
		Architecture: ThreeTier,
		DRAMBytes:    8 << 20,
		NVMBytes:     32 << 20,
		SSDBytes:     128 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := s.CreateTable(1, 32)
	if err != nil {
		t.Fatal(err)
	}
	for key := uint64(0); key < 128; key++ {
		if err := tab.Put(key, make([]byte, 32)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	// The simulated devices live in process memory: data stays readable
	// after an orderly close, and committed work survives a crash replay.
	if _, err := s.CrashRestart(); err != nil {
		t.Fatalf("crash restart after close: %v", err)
	}
	buf := make([]byte, 32)
	for key := uint64(0); key < 128; key++ {
		found, err := tab.Lookup(key, buf)
		if err != nil || !found {
			t.Fatalf("key %d after close + crash restart: found=%v err=%v", key, found, err)
		}
	}
}

// TestDroppedStoreReleasesItsMedia: a store's simulated NVM and SSD media
// live off the Go heap, and they are released once the store is
// unreachable (not at Close, after which the store can still be read).
func TestDroppedStoreReleasesItsMedia(t *testing.T) {
	collect := func(want int64) {
		t.Helper()
		for i := 0; i < 10 && offheap.Mapped() != want; i++ {
			runtime.GC()
		}
		if got := offheap.Mapped(); got != want {
			t.Fatalf("offheap.Mapped() = %d after 10 collections, want %d", got, want)
		}
	}
	collect(0) // no store of an earlier test is reachable
	func() {
		s, err := Open(Options{Architecture: ThreeTier, DRAMBytes: 1 << 20, NVMBytes: 2 << 20, SSDBytes: 64 << 20})
		if err != nil {
			t.Fatal(err)
		}
		tab, err := s.CreateTable(1, 1000)
		if err != nil {
			t.Fatal(err)
		}
		for key := uint64(0); key < 4000; key++ {
			if err := s.Update(func() error { return tab.Insert(key, make([]byte, 1000)) }); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		nvmBytes, ssdPages := s.e.Manager().NVM().Size(), s.e.Manager().SSD().Allocated()
		if got := offheap.Mapped(); ssdPages == 0 || got <= nvmBytes {
			t.Fatalf("store maps %d bytes with a %d-byte NVM device and %d SSD pages", got, nvmBytes, ssdPages)
		}
	}()
	collect(0)
}
