package nvmstore

import (
	"bytes"
	"testing"
	"time"

	"nvmstore/internal/fault"
)

// TestTransientDeviceFaultsAbsorbed runs the same mixed lookups and
// updates on twin ThreeTier stores whose data is larger than their NVM, so
// the SSD serves misses and takes write-back, with SSD faults armed on one
// twin only. The faults must cost simulated time and nothing else. A
// transient read or write error is retried by the device until it clears:
// no operation fails, every lookup returns what the unarmed twin returns,
// and each fired fault cost exactly its Transient retries. A stall only
// charges the clock: the armed twin ends exactly fired × Stall ahead.
func TestTransientDeviceFaultsAbsorbed(t *testing.T) {
	const (
		rows    = 24000 // 6 MB of rows against 4 MB of NVM
		rowSize = 256
		ops     = 20000
		stall   = 2 * time.Millisecond
	)
	load := func(t *testing.T) (*Store, *Table) {
		s, err := Open(Options{
			Architecture: ThreeTier,
			DRAMBytes:    1 << 20,
			NVMBytes:     4 << 20,
			SSDBytes:     64 << 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		table, err := s.CreateTable(1, rowSize)
		if err != nil {
			t.Fatal(err)
		}
		err = table.BulkLoad(rows, func(i int) uint64 { return uint64(i) },
			func(i int, dst []byte) { copy(dst, shardedRow(uint64(i), rowSize)) }, 1)
		if err == nil {
			err = s.Checkpoint()
		}
		if err != nil {
			t.Fatal(err)
		}
		return s, table
	}

	for _, tc := range []struct {
		name  string
		rules []fault.Rule
		check func(t *testing.T, armed, twin *Store, inj fault.Injectors)
	}{
		{"transient errors", []fault.Rule{
			{Kind: fault.SSDReadError, Prob: 0.02, Transient: 2},
			{Kind: fault.SSDWriteError, Prob: 0.02, Transient: 2},
		}, func(t *testing.T, armed, _ *Store, inj fault.Injectors) {
			fired := inj.Fired(fault.SSDReadError) + inj.Fired(fault.SSDWriteError)
			retries := armed.e.Manager().SSD().Stats().Retries
			t.Logf("%d faults fired, %d device retries", fired, retries)
			if fired == 0 || retries != 2*fired {
				t.Fatalf("%d faults fired, %d device retries; want some, each retried twice", fired, retries)
			}
		}},
		{"stalls", []fault.Rule{
			{Kind: fault.SSDStall, Prob: 0.02, Stall: stall},
		}, func(t *testing.T, armed, twin *Store, inj fault.Injectors) {
			fired := inj.Fired(fault.SSDStall)
			diff := armed.SimulatedTime() - twin.SimulatedTime()
			t.Logf("%d stalls fired, armed twin %v ahead", fired, diff)
			if fired == 0 || diff != time.Duration(fired)*stall {
				t.Fatalf("%d stalls fired, armed twin %v ahead; want some, and exactly %v each", fired, diff, stall)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			twin, twinTable := load(t)
			armed, armedTable := load(t)
			sim0 := armed.SimulatedTime()
			if twin.SimulatedTime() != sim0 {
				t.Fatalf("twins loaded in %v and %v of simulated time", twin.SimulatedTime(), sim0)
			}
			inj := armed.InjectFaults(&fault.Plan{Seed: 7, Rules: tc.rules})
			got, want := make([]byte, rowSize), make([]byte, rowSize)
			rng := uint64(1)
			for i := 0; i < ops; i++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				key := (rng >> 33) % rows
				if i%2 == 0 {
					foundA, errA := armedTable.Lookup(key, got)
					foundT, errT := twinTable.Lookup(key, want)
					if errA != nil || errT != nil || !foundA || !foundT || !bytes.Equal(got, want) {
						t.Fatalf("op %d lookup %d: armed found=%v err=%v, twin found=%v err=%v, rows equal %v",
							i, key, foundA, errA, foundT, errT, bytes.Equal(got, want))
					}
					continue
				}
				val := shardedRow(uint64(i), 8)
				for _, s := range []struct {
					st  *Store
					tab *Table
				}{{armed, armedTable}, {twin, twinTable}} {
					if err := s.st.Update(func() error {
						_, err := s.tab.UpdateField(key, int(rng>>8)%(rowSize-8), val)
						return err
					}); err != nil {
						t.Fatalf("op %d update %d: %v", i, key, err)
					}
				}
			}
			if ssd := armed.e.Manager().SSD().Stats(); ssd.PagesRead == 0 || ssd.PagesWritten == 0 {
				t.Fatalf("the run read %d and wrote %d SSD pages; it was meant to reach the SSD", ssd.PagesRead, ssd.PagesWritten)
			}
			tc.check(t, armed, twin, inj)
		})
	}
}
