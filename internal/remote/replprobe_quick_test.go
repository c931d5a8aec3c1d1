package remote

import (
	"context"
	"net"
	"testing"
	"time"

	"nvmstore/internal/client"
	"nvmstore/internal/repl"
	"nvmstore/internal/server"
)

func TestReplProbeQuick(t *testing.T) {
	var cleanup []func()
	defer func() {
		for i := len(cleanup) - 1; i >= 0; i-- {
			cleanup[i]()
		}
	}()
	pstore, err := openReplBenchStore()
	if err != nil {
		t.Fatal(err)
	}
	cleanup = append(cleanup, func() { pstore.Close() })
	src := repl.NewSource(pstore, repl.SourceOptions{})
	psrv := server.New(pstore, server.Options{Repl: src})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- psrv.Serve(ln) }()
	cleanup = append(cleanup, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		psrv.Shutdown(ctx)
		<-errc
	})
	paddr := ln.Addr().String()
	pcl, err := client.Dial(paddr, client.Options{Conns: 2, Depth: 256})
	if err != nil {
		t.Fatal(err)
	}
	cleanup = append(cleanup, func() { pcl.Close() })
	if err := replLoad(pcl); err != nil {
		t.Fatal(err)
	}
	t.Log("load done")
	rstore, err := openReplBenchStore()
	if err != nil {
		t.Fatal(err)
	}
	cleanup = append(cleanup, func() { rstore.Close() })
	rp, err := repl.NewReplica(rstore, repl.ReplicaOptions{Primary: paddr, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	cleanup = append(cleanup, rp.Close)
	lsns := repl.DurableLSNs(pstore)
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if err := rp.WaitLSN(lsns, 2*time.Second); err == nil {
			t.Logf("caught up, stats=%+v", rp.Stats())
			return
		}
		t.Logf("applied=%v want=%v stats=%+v srcstats=%+v", rp.Applied(), lsns, rp.Stats(), src.Stats())
	}
	t.Fatal("never caught up")
}
