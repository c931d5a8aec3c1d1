// Quickstart: open a three-tier store, run transactions, survive a crash.
//
// This example walks through the public API end to end: creating a table,
// transactional inserts and updates, field-granular reads (the cache-line
// fast path of the reproduced paper), an injected power failure, and
// log-based recovery.
package main

import (
	"fmt"
	"log"

	"nvmstore"
)

func main() {
	store, err := nvmstore.Open(nvmstore.Options{
		Architecture:      nvmstore.ThreeTier,
		DRAMBytes:         16 << 20,
		NVMBytes:          64 << 20,
		SSDBytes:          256 << 20,
		StrictPersistence: true, // unflushed NVM writes vanish on crash
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("architecture:", store.Architecture())

	// A table of fixed 64-byte rows keyed by uint64.
	users, err := store.CreateTable(1, 64)
	if err != nil {
		log.Fatal(err)
	}

	// Modifications run inside transactions. Update commits on success
	// and rolls back on error.
	row := make([]byte, 64)
	for i := uint64(1); i <= 100; i++ {
		copy(row, fmt.Sprintf("user-%03d", i))
		if err := store.Update(func() error { return users.Insert(i, row) }); err != nil {
			log.Fatal(err)
		}
	}

	// Field-granular reads: only the probed keys and these 8 bytes move
	// from NVM to DRAM on the three-tier architecture.
	buf := make([]byte, 8)
	if _, err := users.LookupField(42, 0, 8, buf); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("row 42 starts with %q\n", buf)

	// A transaction that is in flight when the power fails...
	store.Begin()
	copy(row, "doomed!!")
	if err := users.Insert(999, row); err != nil {
		log.Fatal(err)
	}
	// ... leaves no trace: its unflushed log records are torn away by
	// the crash (or rolled back, had they reached NVM); committed work
	// is replayed from the log.
	stats, err := store.CrashRestart()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered: %d committed tx replayed, %d in-flight rolled back\n", stats.Committed, stats.Losers)

	users = store.Table(1)
	count, err := users.Count()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rows after crash: %d (the doomed insert is gone)\n", count)

	m := store.Metrics()
	fmt.Printf("device traffic: %d NVM lines read, %d NVM line writes, %d SSD reads\n",
		m.NVMLinesRead, m.NVMTotalWrites, m.SSDPagesRead)
	fmt.Println("simulated device time:", store.SimulatedTime())
}
