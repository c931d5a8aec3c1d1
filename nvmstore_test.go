package nvmstore

import (
	"bytes"
	"errors"
	"testing"
)

func open(t *testing.T, arch Architecture) *Store {
	t.Helper()
	s, err := Open(Options{
		Architecture:      arch,
		DRAMBytes:         8 << 20,
		NVMBytes:          64 << 20,
		SSDBytes:          256 << 20,
		WALBytes:          1 << 20,
		StrictPersistence: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestQuickstartFlow(t *testing.T) {
	for _, arch := range []Architecture{ThreeTier, MainMemory, NVMDirect, BasicNVMBuffer, SSDBuffer} {
		t.Run(arch.String(), func(t *testing.T) {
			s := open(t, arch)
			table, err := s.CreateTable(1, 32)
			if err != nil {
				t.Fatal(err)
			}
			row := bytes.Repeat([]byte{7}, 32)
			if err := s.Update(func() error { return table.Insert(5, row) }); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 32)
			found, err := table.Lookup(5, buf)
			if err != nil || !found || !bytes.Equal(buf, row) {
				t.Fatalf("lookup = %v, %v", found, err)
			}
			if n, _ := table.Count(); n != 1 {
				t.Fatalf("count = %d", n)
			}
		})
	}
}

func TestTxRequired(t *testing.T) {
	s := open(t, ThreeTier)
	table, _ := s.CreateTable(1, 8)
	if err := table.Insert(1, make([]byte, 8)); !errors.Is(err, ErrNoTx) {
		t.Fatalf("err = %v, want ErrNoTx", err)
	}
}

func TestUpdateRollsBackOnError(t *testing.T) {
	s := open(t, BasicNVMBuffer)
	table, _ := s.CreateTable(1, 8)
	sentinel := errors.New("boom")
	err := s.Update(func() error {
		if err := table.Insert(1, make([]byte, 8)); err != nil {
			return err
		}
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if n, _ := table.Count(); n != 0 {
		t.Fatalf("rolled-back insert visible: count = %d", n)
	}
}

func TestDuplicateKeySurface(t *testing.T) {
	s := open(t, MainMemory)
	table, _ := s.CreateTable(1, 8)
	if err := s.Update(func() error { return table.Insert(1, make([]byte, 8)) }); err != nil {
		t.Fatal(err)
	}
	err := s.Update(func() error { return table.Insert(1, make([]byte, 8)) })
	if !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("err = %v, want ErrDuplicateKey", err)
	}
}

func TestCrashRecoveryThroughPublicAPI(t *testing.T) {
	s := open(t, ThreeTier)
	table, _ := s.CreateTable(1, 16)
	if err := s.Update(func() error { return table.Insert(1, bytes.Repeat([]byte{1}, 16)) }); err != nil {
		t.Fatal(err)
	}
	// In-flight transaction at the crash.
	s.Begin()
	if err := table.Insert(2, bytes.Repeat([]byte{2}, 16)); err != nil {
		t.Fatal(err)
	}
	stats, err := s.CrashRestart()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Committed == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	table = s.Table(1)
	if table == nil {
		t.Fatal("table lost")
	}
	buf := make([]byte, 16)
	if found, _ := table.Lookup(1, buf); !found {
		t.Fatal("committed row lost")
	}
	if found, _ := table.Lookup(2, buf); found {
		t.Fatal("uncommitted row survived")
	}
}

func TestCleanRestartAndBulkLoad(t *testing.T) {
	s := open(t, ThreeTier)
	table, _ := s.CreateTable(9, 64)
	const n = 5000
	err := table.BulkLoad(n,
		func(i int) uint64 { return uint64(i * 2) },
		func(i int, dst []byte) { dst[0] = byte(i) },
		0.66)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.CleanRestart(); err != nil {
		t.Fatal(err)
	}
	table = s.Table(9)
	if cnt, _ := table.Count(); cnt != n {
		t.Fatalf("count after restart = %d, want %d", cnt, n)
	}
	// Field access and scans work through the public API.
	buf := make([]byte, 1)
	if found, err := table.LookupField(84, 0, 1, buf); err != nil || !found || buf[0] != 42 {
		t.Fatalf("LookupField = %v %v %d", found, err, buf[0])
	}
	got := 0
	if err := table.Scan(100, 10, 0, 1, func(uint64, []byte) bool { got++; return true }); err != nil {
		t.Fatal(err)
	}
	if got != 10 {
		t.Fatalf("scan visited %d", got)
	}
}

func TestMetricsAndSimulatedTime(t *testing.T) {
	s := open(t, NVMDirect)
	table, _ := s.CreateTable(1, 64)
	if err := s.Update(func() error { return table.Insert(1, make([]byte, 64)) }); err != nil {
		t.Fatal(err)
	}
	if s.SimulatedTime() == 0 {
		t.Fatal("no simulated device time charged")
	}
	m := s.Metrics()
	if m.NVMTotalWrites == 0 || m.Log.Commits != 1 {
		t.Fatalf("metrics = %+v", m)
	}
	// Lines come in requests, and only some requests miss the CPU cache.
	if m.NVMReadRequests == 0 || m.NVMReadRequests > m.NVMLinesRead ||
		m.NVMReadRequestsCharged == 0 || m.NVMReadRequestsCharged > m.NVMReadRequests {
		t.Fatalf("NVM lines read / requests / charged = %d / %d / %d",
			m.NVMLinesRead, m.NVMReadRequests, m.NVMReadRequestsCharged)
	}
}

func TestMainMemoryCapacitySurface(t *testing.T) {
	s, err := Open(Options{Architecture: MainMemory, DRAMBytes: 8 << 20, WALBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	table, _ := s.CreateTable(1, 1024)
	err = table.BulkLoad(100000,
		func(i int) uint64 { return uint64(i) },
		func(i int, dst []byte) {}, 1.0)
	if !errors.Is(err, ErrCapacity) {
		t.Fatalf("err = %v, want ErrCapacity", err)
	}
}
