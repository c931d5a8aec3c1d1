package server_test

import (
	"errors"
	"testing"
	"time"

	"nvmstore/internal/client"
	"nvmstore/internal/fault"
	"nvmstore/internal/server"
)

// TestClientRetriesThroughNetFaults drives writes and reads through a
// server that drops connections and tears response frames at a high
// injected rate; the retrying client must complete every operation with
// correct values, healing its pool as slots die. Both kinds must fire,
// and some faults must land on GET responses, not only on PUT acks.
func TestClientRetriesThroughNetFaults(t *testing.T) {
	plan := &fault.Plan{Seed: 1234, Rules: []fault.Rule{
		{Kind: fault.NetDrop, Prob: 0.05},
		{Kind: fault.NetPartial, Prob: 0.05},
	}}
	inj := plan.Injector(100)
	_, _, addr := startServer(t, 2, server.Options{Faults: inj})
	cl, err := client.Dial(addr, client.Options{
		Conns:        2,
		Retries:      8,
		RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const n = 200
	for key := uint64(0); key < n; key++ {
		if err := cl.Put(testTable, key, rowFor(key)); err != nil {
			t.Fatalf("put %d: %v", key, err)
		}
	}
	firedByPuts := inj.FiredTotal()
	for key := uint64(0); key < n; key++ {
		val, ok, err := cl.Get(testTable, key)
		if err != nil {
			t.Fatalf("get %d: %v", key, err)
		}
		if !ok {
			t.Fatalf("key %d lost", key)
		}
		if string(val[:8]) != string(rowFor(key)[:8]) {
			t.Fatalf("key %d corrupted", key)
		}
	}
	for _, k := range []fault.Kind{fault.NetDrop, fault.NetPartial} {
		if inj.Fired(k) == 0 {
			t.Errorf("no %s fault fired; that kind went unexercised", k)
		}
	}
	if inj.FiredTotal() == firedByPuts {
		t.Error("no network fault fired while the GETs ran; their retries went unexercised")
	}
	if cl.Retries() == 0 {
		t.Fatal("faults fired but the client never retried")
	}
	t.Logf("fired %d net faults (%d during the PUTs), client retried %d times", inj.FiredTotal(), firedByPuts, cl.Retries())
}

// TestRetryDisabled pins that Retries < 0 restores fail-fast behavior:
// with every response dropped, a synchronous call errors instead of
// spinning.
func TestRetryDisabled(t *testing.T) {
	plan := &fault.Plan{Seed: 9, Rules: []fault.Rule{{Kind: fault.NetDrop, Prob: 1}}}
	_, _, addr := startServer(t, 1, server.Options{Faults: plan.Injector(0)})
	cl, err := client.Dial(addr, client.Options{Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Put(testTable, 1, rowFor(1)); err == nil {
		t.Fatal("put through a black-hole server succeeded without retries")
	} else if !client.IsRetryable(err) {
		t.Fatalf("transport failure %v not classified retryable", err)
	}
	// A server-side error, by contrast, must not be retryable.
	if client.IsRetryable(&client.RemoteError{Msg: "no such table"}) {
		t.Fatal("RemoteError classified retryable")
	}
	if client.IsRetryable(nil) || client.IsRetryable(errors.New("")) == false {
		t.Fatal("IsRetryable base cases wrong")
	}
}
