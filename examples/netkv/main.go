// Netkv: talk to a running nvmserver over the wire protocol.
//
// Start a server in one terminal:
//
//	go run ./cmd/nvmserver -addr :7070 -shards 4
//
// then run this example:
//
//	go run ./examples/netkv -addr localhost:7070
//
// It walks the client API end to end: pooled synchronous calls, a deep
// async pipeline on one goroutine, a server-side transaction with
// read-your-writes, an ordered cross-shard scan, and the server's STATS
// document with wire- and engine-level latency histograms.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"

	"nvmstore/internal/client"
	"nvmstore/internal/server"
)

func main() {
	addr := flag.String("addr", "localhost:7070", "nvmserver address")
	table := flag.Uint64("table", 1, "table id (created by the server at startup)")
	flag.Parse()

	cl, err := client.Dial(*addr, client.Options{Conns: 2, Depth: 64})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	// Synchronous calls: each Put is one durable transaction on the
	// owning shard — when it returns nil, the write survives a crash.
	hello := []byte("hello over the wire")
	if err := cl.Put(*table, 42, hello); err != nil {
		log.Fatal(err)
	}
	val, found, err := cl.Get(*table, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("get 42: found=%v value=%q (a %d-byte row)\n", found, written(val, hello), len(val))

	// Pipelining: issue a burst without waiting, then collect. The
	// requests interleave across shards and return out of order on the
	// wire; the client matches them back up by request id.
	calls := make([]*client.Call, 0, 100)
	for key := uint64(100); key < 200; key++ {
		calls = append(calls, cl.PutAsync(*table, key, fmt.Appendf(nil, "row-%d", key)))
	}
	for _, call := range calls {
		if _, err := call.Result(); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("pipelined 100 puts")

	// A server-side transaction: writes are buffered per connection,
	// read back by the transaction itself, and applied atomically per
	// shard at Commit.
	tx, err := cl.Begin()
	if err != nil {
		log.Fatal(err)
	}
	if err := tx.Put(*table, 7, []byte("inside tx")); err != nil {
		log.Fatal(err)
	}
	if v, _, _ := tx.Get(*table, 7); string(v) != "inside tx" {
		log.Fatal("transaction does not see its own write")
	}
	if err := tx.Commit(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("transaction committed")

	// Scan merges all shards into global key order.
	entries, err := cl.Scan(*table, 100, 5)
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range entries {
		fmt.Printf("scan: %d = %q\n", e.Key, written(e.Value, fmt.Appendf(nil, "row-%d", e.Key)))
	}

	// STATS: server counters plus wire (wall-clock) and engine
	// (simulated-time) latency histograms.
	buf, err := cl.Stats()
	if err != nil {
		log.Fatal(err)
	}
	var doc server.StatsDoc
	if err := json.Unmarshal(buf, &doc); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server: %d shards, %d ops served\n", doc.Shards, doc.Ops)
	for _, row := range doc.Wire {
		fmt.Printf("  %-12s count=%-6d p50=%-8d p99=%d (ns)\n", row.Op, row.Count, row.P50, row.P99)
	}
	fmt.Println("client round trips:")
	for _, row := range cl.Latency() {
		fmt.Printf("  %-12s count=%-6d p50=%-8d p99=%d (ns)\n", row.Op, row.Count, row.P50, row.P99)
	}
}

// written returns the part of row that a Put of put wrote: a row has the
// table's fixed size, and a Put keeps the tail of a longer row already
// there (a loaded one, say).
func written(row, put []byte) []byte { return row[:min(len(row), len(put))] }
