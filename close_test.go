package nvmstore

import (
	"bytes"
	"runtime"
	"testing"

	"nvmstore/internal/nvm"
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

// collectArenas runs garbage collections until offheap.Mapped reads want,
// at most ten.
func collectArenas(t *testing.T, want int64) {
	t.Helper()
	for i := 0; i < 10 && offheap.Mapped() != want; i++ {
		runtime.GC()
	}
	if got := offheap.Mapped(); got != want {
		t.Fatalf("offheap.Mapped() = %d after 10 collections, want %d", got, want)
	}
}

// TestDroppedStoreReleasesItsMedia: a store's simulated NVM medium, the
// NVM device's wear counters and the bytes the SSD stores for its pages
// live off the Go heap, and they are released once the store is
// unreachable (not at Close, after which the store can still be read).
func TestDroppedStoreReleasesItsMedia(t *testing.T) {
	collectArenas(t, 0) // no store of an earlier test is reachable
	func() {
		s, err := Open(Options{Architecture: ThreeTier, DRAMBytes: 1 << 20, NVMBytes: 2 << 20, SSDBytes: 64 << 20})
		if err != nil {
			t.Fatal(err)
		}
		tab, err := s.CreateTable(1, 1000)
		if err != nil {
			t.Fatal(err)
		}
		row := bytes.Repeat([]byte{0xa5}, 1000)
		for key := uint64(0); key < 4000; key++ {
			if err := s.Update(func() error { return tab.Insert(key, row) }); err != nil {
				t.Fatal(err)
			}
		}
		nvmBytes, ssdBytes := s.e.Manager().NVM().Size(), s.e.Manager().SSD().StoredBytes()
		wear := nvmBytes / nvm.LineSize * 4
		if got, want := offheap.Mapped(), nvmBytes+wear+ssdBytes; ssdBytes == 0 || got < want {
			t.Fatalf("store maps %d bytes with a %d-byte NVM device, %d bytes of wear counters and %d bytes stored on the SSD", got, nvmBytes, wear, ssdBytes)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	collectArenas(t, 0)
}

// TestReadValuesOutliveTheirStore: what the read API hands a caller is the
// caller's, not a view of a page. Values from Lookup and LookupField on an
// NVM Direct Store, whose frames are views of the NVM medium, and on a
// ShardedTable, and what Scan callbacks copy, still match the model after
// their stores are unreachable and their media are unmapped.
func TestReadValuesOutliveTheirStore(t *testing.T) {
	const rows, size = 400, 200
	model := func(key uint64) []byte {
		row := make([]byte, size)
		for i := range row {
			row[i] = byte(key*7 + uint64(i))
		}
		return row
	}
	opts := Options{Architecture: ThreeTier, DRAMBytes: 1 << 20, NVMBytes: 4 << 20, SSDBytes: 64 << 20}
	var got, want [][]byte
	read := func(what string, key uint64, found bool, err error, val, model []byte) {
		t.Helper()
		if err != nil || !found {
			t.Fatalf("%s of key %d: found=%v err=%v", what, key, found, err)
		}
		got, want = append(got, val), append(want, model)
	}
	collectArenas(t, 0)
	func() {
		direct := opts
		direct.Architecture = NVMDirect
		s, err := Open(direct)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := s.CreateTable(1, size)
		if err != nil {
			t.Fatal(err)
		}
		sh, err := OpenSharded(2, opts)
		if err != nil {
			t.Fatal(err)
		}
		stab, err := sh.CreateTable(1, size)
		if err != nil {
			t.Fatal(err)
		}
		for key := uint64(0); key < rows; key++ {
			if err := s.Update(func() error { return tab.Insert(key, model(key)) }); err != nil {
				t.Fatal(err)
			}
			if err := stab.Put(key, model(key)); err != nil {
				t.Fatal(err)
			}
		}
		for key := uint64(0); key < rows; key += 7 {
			row, field := make([]byte, size), make([]byte, 16)
			found, err := tab.Lookup(key, row)
			read("Lookup", key, found, err, row, model(key))
			found, err = tab.LookupField(key, 50, 16, field)
			read("LookupField", key, found, err, field, model(key)[50:66])
			row, field = make([]byte, size), make([]byte, 16)
			found, err = stab.Lookup(key, row)
			read("ShardedTable.Lookup", key, found, err, row, model(key))
			found, err = stab.LookupField(key, 50, 16, field)
			read("ShardedTable.LookupField", key, found, err, field, model(key)[50:66])
		}
		scan := func(key uint64, field []byte) bool {
			got, want = append(got, bytes.Clone(field)), append(want, model(key)[10:110])
			return true
		}
		if err := tab.Scan(100, 60, 10, 100, scan); err != nil {
			t.Fatal(err)
		}
		if err := stab.Scan(200, 60, 10, 100, scan); err != nil {
			t.Fatal(err)
		}
	}()
	collectArenas(t, 0)
	if n := 4*(rows+6)/7 + 120; len(got) != n {
		t.Fatalf("read %d values, want %d", len(got), n)
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("value %d reads %x after its store was unmapped, want %x", i, got[i], want[i])
		}
	}
}
