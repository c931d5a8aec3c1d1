package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"nvmstore/internal/btree"
	"nvmstore/internal/core"
	"nvmstore/internal/fault"
)

// TestRecoveryFuzz drives random transactions — some committed, some
// rolled back, one possibly in flight — against random crash points and
// verifies exact transaction semantics: after recovery the database equals
// the model of all committed transactions, nothing more, nothing less.
// Random FlushAll calls inject page steal, between transactions and inside
// one; some rollbacks stop part-way at an injected append failure and the
// power fails there. Strict persistence tears away all unflushed NVM
// writes at the crash.
func TestRecoveryFuzz(t *testing.T) {
	for _, topo := range []core.Topology{core.DRAMNVM, core.ThreeTier, core.DirectNVM} {
		t.Run(topo.String(), func(t *testing.T) {
			for trial := 0; trial < 12; trial++ {
				runRecoveryTrial(t, topo, int64(trial))
			}
		})
	}
}

func runRecoveryTrial(t *testing.T, topo core.Topology, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := testConfig(topo)
	cfg.DRAMBytes = 8 * (core.PageSize + 2*core.LineSize) // aggressive steal
	if topo == core.DirectNVM {
		cfg.DRAMBytes = 0
	}
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := e.CreateTree(1, 48, btree.LayoutSorted)
	if err != nil {
		t.Fatal(err)
	}

	model := make(map[uint64][]byte) // committed state
	val := func(tag int) []byte {
		p := make([]byte, 48)
		binary.LittleEndian.PutUint64(p, uint64(tag))
		return p
	}

	nTx := 10 + rng.Intn(40)
	for txn := 0; txn < nTx; txn++ {
		// Stage the transaction against a scratch copy of the model.
		scratch := make(map[uint64][]byte, len(model))
		for k, v := range model {
			scratch[k] = v
		}
		e.Begin()
		ops := 1 + rng.Intn(5)
		for op := 0; op < ops; op++ {
			key := uint64(rng.Intn(60))
			switch rng.Intn(3) {
			case 0:
				v := val(txn*100 + op)
				err := tr.Insert(key, v)
				if _, exists := scratch[key]; exists {
					if err == nil {
						t.Fatalf("seed %d: duplicate insert succeeded", seed)
					}
				} else if err != nil {
					t.Fatalf("seed %d: insert: %v", seed, err)
				} else {
					scratch[key] = v
				}
			case 1:
				found, err := tr.Delete(key)
				if err != nil {
					t.Fatalf("seed %d: delete: %v", seed, err)
				}
				if _, exists := scratch[key]; exists != found {
					t.Fatalf("seed %d: delete found=%v model=%v", seed, found, exists)
				}
				delete(scratch, key)
			case 2:
				v := val(txn*100 + op + 50)
				found, err := tr.UpdateField(key, 8, v[:16])
				if err != nil {
					t.Fatalf("seed %d: update: %v", seed, err)
				}
				if cur, exists := scratch[key]; exists {
					if !found {
						t.Fatalf("seed %d: update missed key", seed)
					}
					nv := append([]byte(nil), cur...)
					copy(nv[8:], v[:16])
					scratch[key] = nv
				} else if found {
					t.Fatalf("seed %d: update found absent key", seed)
				}
			}
			if rng.Intn(8) == 0 {
				e.Manager().FlushAll() // steal inside the transaction
			}
		}
		switch rng.Intn(10) {
		case 0, 1: // rollback
			if err := e.Rollback(); err != nil {
				t.Fatalf("seed %d: rollback: %v", seed, err)
			}
		case 3: // rollback, failing at its n-th append, then crash
			plan := &fault.Plan{Rules: []fault.Rule{{Kind: fault.WALAppendError, EveryN: 1 + int64(rng.Intn(ops+1)), Limit: 1}}}
			e.ArmFaults(plan, 0)
			err := e.Rollback()
			e.ArmFaults(nil, 0)
			if err == nil {
				break // every compensation and the abort landed
			}
			if rng.Intn(2) == 0 {
				e.Manager().FlushAll()
			}
			goto crash
		case 2: // leave in flight and crash now
			if rng.Intn(2) == 0 {
				e.Log().Flush()
			}
			goto crash
		default:
			if err := e.Commit(); err != nil {
				t.Fatalf("seed %d: commit: %v", seed, err)
			}
			model = scratch
		}
		// Random page steal between transactions.
		if rng.Intn(4) == 0 {
			e.Manager().FlushAll()
		}
	}

crash:
	if _, err := e.CrashRestart(); err != nil {
		t.Fatalf("seed %d: recovery: %v", seed, err)
	}
	tr = e.Tree(1)
	if tr == nil {
		t.Fatalf("seed %d: tree lost", seed)
	}
	// The recovered database must equal the committed model exactly.
	buf := make([]byte, 48)
	for key, want := range model {
		found, err := tr.Lookup(key, buf)
		if err != nil {
			t.Fatalf("seed %d: lookup(%d): %v", seed, key, err)
		}
		if !found {
			t.Fatalf("seed %d: committed key %d lost", seed, key)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("seed %d: key %d content diverged", seed, key)
		}
	}
	count, err := tr.Count()
	if err != nil {
		t.Fatal(err)
	}
	if count != len(model) {
		t.Fatalf("seed %d: recovered %d keys, committed model has %d", seed, count, len(model))
	}
	// The engine keeps working after recovery.
	e.Begin()
	if err := tr.Put(1000, val(9999)); err != nil {
		t.Fatalf("seed %d: post-recovery insert: %v", seed, err)
	}
	if err := e.Commit(); err != nil {
		t.Fatal(fmt.Sprintf("seed %d: post-recovery commit: %v", seed, err))
	}
}
