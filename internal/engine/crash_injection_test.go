package engine

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"nvmstore/internal/btree"
	"nvmstore/internal/core"
	"nvmstore/internal/fault"
)

// TestMidOperationCrashInjection kills the power in the middle of
// operations: the NVM device panics on a randomly chosen flush, so crashes
// land inside commits, evictions, checkpoints, admissions, and structural
// force-writes — between any two persistence steps. After each crash the
// engine recovers and the database must equal the committed model, with
// the one in-flight transaction allowed to land either way only if the
// crash interrupted its commit.
func TestMidOperationCrashInjection(t *testing.T) {
	for _, topo := range []core.Topology{core.DRAMNVM, core.ThreeTier} {
		t.Run(topo.String(), func(t *testing.T) {
			crashes := 0
			for seed := int64(0); seed < 10; seed++ {
				crashes += runCrashInjectionTrial(t, topo, seed)
			}
			if crashes < 10 {
				t.Fatalf("only %d injected crashes fired across all trials", crashes)
			}
		})
	}
}

func runCrashInjectionTrial(t *testing.T, topo core.Topology, seed int64) (crashes int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := testConfig(topo)
	cfg.DRAMBytes = 8 * (core.PageSize + 2*core.LineSize) // frequent evictions
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := e.CreateTree(1, 40, btree.LayoutSorted)
	if err != nil {
		t.Fatal(err)
	}

	model := make(map[uint64]uint64) // key -> committed tag
	row := func(tag uint64) []byte {
		p := make([]byte, 40)
		binary.LittleEndian.PutUint64(p, tag)
		return p
	}

	// txAttempt runs one single-op transaction; it returns the key and
	// tag it tried to commit. Panics from the injected crash propagate.
	tag := uint64(0)
	txAttempt := func() (uint64, uint64, bool) {
		key := uint64(rng.Intn(80))
		tag++
		e.Begin()
		var inserted bool
		if _, exists := model[key]; exists {
			if _, err := tr.UpdateField(key, 0, row(tag)[:8]); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := tr.Insert(key, row(tag)); err != nil {
				t.Fatal(err)
			}
			inserted = true
		}
		if err := e.Commit(); err != nil {
			t.Fatal(err)
		}
		return key, tag, inserted
	}

	for round := 0; round < 6; round++ {
		// Run some safe transactions.
		for i := 0; i < 20; i++ {
			key, tg, _ := txAttempt()
			model[key] = tg
		}
		// Arm a crash within the next few flushes — n more succeed, the
		// next one panics — and keep running until it fires. The op whose
		// commit was interrupted may land either way; everything committed
		// before must survive.
		n := int64(rng.Intn(40))
		e.ArmFaults(&fault.Plan{Rules: []fault.Rule{{Kind: fault.NVMCrash, EveryN: n + 1, Limit: 1}}}, 0)
		var pendingKey, pendingTag uint64
		pendingInsert := false
		crashed := func() (c bool) {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := fault.AsCrash(r); !ok {
						panic(r)
					}
					c = true
				}
			}()
			for i := 0; i < 500; i++ {
				key, tg, ins := txAttempt()
				// Commit returned: it is durable, update the model.
				model[key] = tg
				pendingKey, pendingTag, pendingInsert = key, tg, ins
				_ = pendingKey
			}
			return false
		}()
		if !crashed {
			// The flush budget was larger than 500 transactions needed;
			// disarm and continue.
			e.ArmFaults(nil, 0)
		} else {
			crashes++
			// The interrupted transaction is whichever txAttempt was in
			// flight; we cannot know its key (t.Fatal paths aside, the
			// panic unwound before returning), so allow exactly one
			// divergence from the model, checked below.
			if _, err := e.CrashRestart(); err != nil {
				t.Fatalf("seed %d round %d: recovery: %v", seed, round, err)
			}
			tr = e.Tree(1)
			if tr == nil {
				t.Fatalf("seed %d: tree lost", seed)
			}
		}
		_ = pendingTag
		_ = pendingInsert

		// Verify: every committed key present with its committed tag,
		// except that at most one key may carry a *newer* tag (the
		// transaction interrupted mid-commit may have become durable).
		buf := make([]byte, 40)
		diverged := 0
		for key, want := range model {
			found, err := tr.Lookup(key, buf)
			if err != nil {
				t.Fatalf("seed %d: lookup: %v", seed, err)
			}
			if !found {
				t.Fatalf("seed %d round %d: committed key %d lost", seed, round, key)
			}
			got := binary.LittleEndian.Uint64(buf)
			if got != want {
				if got < want {
					t.Fatalf("seed %d round %d: key %d regressed to tag %d (committed %d)", seed, round, key, got, want)
				}
				diverged++
				model[key] = got // the in-flight tx landed
			}
		}
		if diverged > 1 {
			t.Fatalf("seed %d round %d: %d keys diverged; at most the interrupted tx may land", seed, round, diverged)
		}
		// Count check: the interrupted tx may also have inserted a key
		// not in the model.
		cnt, err := tr.Count()
		if err != nil {
			t.Fatal(err)
		}
		if cnt != len(model) && cnt != len(model)+1 {
			t.Fatalf("seed %d round %d: count %d, model %d", seed, round, cnt, len(model))
		}
		if cnt == len(model)+1 {
			// Adopt the extra key into the model by scanning for it.
			err := tr.Scan(0, 0, 0, 8, func(k uint64, field []byte) bool {
				if _, ok := model[k]; !ok {
					model[k] = binary.LittleEndian.Uint64(field[:8])
				}
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	// Full content verification at the end.
	buf := make([]byte, 40)
	for key, want := range model {
		found, err := tr.Lookup(key, buf)
		if err != nil || !found {
			t.Fatalf("seed %d: final lookup(%d) = %v, %v", seed, key, found, err)
		}
		if got := binary.LittleEndian.Uint64(buf); got != want {
			t.Fatalf("seed %d: final key %d tag %d, want %d", seed, key, got, want)
		}
	}
	return crashes
}
