package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"nvmstore/internal/core"
)

func newManager(t *testing.T, topo core.Topology, dramFrames int, cl, mini, swizzle bool) *core.Manager {
	t.Helper()
	cfg := core.Config{
		Topology:         topo,
		DRAMBytes:        int64(dramFrames) * (core.PageSize + 2*core.LineSize),
		NVMBytes:         2048 * (core.PageSize + core.LineSize),
		SSDBytes:         8192 * core.PageSize,
		WALBytes:         1 << 16,
		CPUCacheBytes:    -1,
		CacheLineGrained: cl,
		MiniPages:        mini,
		Swizzling:        swizzle,
	}
	if topo == core.MemOnly {
		cfg.DRAMBytes = 0
		cfg.SSDBytes = 0
	}
	if topo == core.DRAMNVM || topo == core.DirectNVM {
		cfg.SSDBytes = 0
	}
	m, err := core.New(cfg)
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	return m
}

func payloadFor(key uint64, size int) []byte {
	p := make([]byte, size)
	binary.LittleEndian.PutUint64(p, key^0xDEADBEEF)
	for i := 8; i < size; i++ {
		p[i] = byte(key) + byte(i)
	}
	return p
}

func checkLookup(t *testing.T, tr *Tree, key uint64, want []byte) {
	t.Helper()
	buf := make([]byte, tr.PayloadSize())
	found, err := tr.Lookup(key, buf)
	if err != nil {
		t.Fatalf("Lookup(%d): %v", key, err)
	}
	if want == nil {
		if found {
			t.Fatalf("Lookup(%d) found deleted/absent key", key)
		}
		return
	}
	if !found {
		t.Fatalf("Lookup(%d) did not find key", key)
	}
	if !bytes.Equal(buf, want) {
		t.Fatalf("Lookup(%d) returned wrong payload", key)
	}
}

func TestInsertLookupSmall(t *testing.T) {
	m := newManager(t, core.MemOnly, 0, false, false, true)
	tr, err := Create(m, 1, 64, LayoutSorted)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []uint64{5, 1, 9, 3, 7, 0, 1 << 60} {
		if err := tr.Insert(key, payloadFor(key, 64)); err != nil {
			t.Fatalf("Insert(%d): %v", key, err)
		}
	}
	for _, key := range []uint64{5, 1, 9, 3, 7, 0, 1 << 60} {
		checkLookup(t, tr, key, payloadFor(key, 64))
	}
	checkLookup(t, tr, 4, nil)
	checkLookup(t, tr, 10, nil)
}

func TestDuplicateKey(t *testing.T) {
	m := newManager(t, core.MemOnly, 0, false, false, false)
	tr, _ := Create(m, 1, 16, LayoutSorted)
	if err := tr.Insert(7, payloadFor(7, 16)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(7, payloadFor(7, 16)); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("err = %v, want ErrDuplicateKey", err)
	}
	// Put overwrites instead.
	repl := payloadFor(99, 16)
	if err := tr.Put(7, repl); err != nil {
		t.Fatal(err)
	}
	checkLookup(t, tr, 7, repl)
}

func TestPayloadSizeChecked(t *testing.T) {
	m := newManager(t, core.MemOnly, 0, false, false, false)
	tr, _ := Create(m, 1, 16, LayoutSorted)
	if err := tr.Insert(1, make([]byte, 15)); !errors.Is(err, ErrPayloadSize) {
		t.Fatalf("err = %v, want ErrPayloadSize", err)
	}
}

func TestLeafSplits(t *testing.T) {
	m := newManager(t, core.MemOnly, 0, false, false, true)
	tr, _ := Create(m, 1, 512, LayoutSorted) // 31 entries per leaf
	const n = 500
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, i := range perm {
		if err := tr.Insert(uint64(i), payloadFor(uint64(i), 512)); err != nil {
			t.Fatalf("Insert(%d): %v", i, err)
		}
	}
	if tr.Height() < 2 {
		t.Fatalf("height = %d after %d inserts into 31-entry leaves", tr.Height(), n)
	}
	for i := 0; i < n; i++ {
		checkLookup(t, tr, uint64(i), payloadFor(uint64(i), 512))
	}
	// Scan visits all keys in order.
	var keys []uint64
	if err := tr.Scan(0, 0, 0, 8, func(k uint64, _ []byte) bool {
		keys = append(keys, k)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(keys) != n {
		t.Fatalf("scan returned %d keys, want %d", len(keys), n)
	}
	for i, k := range keys {
		if k != uint64(i) {
			t.Fatalf("scan key[%d] = %d, want %d", i, k, i)
		}
	}
}

func TestInnerSplits(t *testing.T) {
	// 512-byte payloads give 31-entry leaves; with preemptive splits
	// leaves hold ~15 entries, so ~35k inserts exceed one inner node's
	// 1019 separators and force height 3.
	m := newManager(t, core.MemOnly, 0, false, false, true)
	tr, _ := Create(m, 1, 512, LayoutSorted)
	const n = 36000
	for i := 0; i < n; i++ {
		key := uint64(i * 7) // ascending, gaps
		if err := tr.Insert(key, payloadFor(key, 512)); err != nil {
			t.Fatalf("Insert(%d): %v", key, err)
		}
	}
	if tr.Height() != 3 {
		t.Fatalf("height = %d, want 3", tr.Height())
	}
	cnt, err := tr.Count()
	if err != nil {
		t.Fatal(err)
	}
	if cnt != n {
		t.Fatalf("Count = %d, want %d", cnt, n)
	}
	for _, i := range []int{0, 1, 17000, n - 1} {
		key := uint64(i * 7)
		checkLookup(t, tr, key, payloadFor(key, 512))
	}
	checkLookup(t, tr, 3, nil) // in a gap
}

func TestDelete(t *testing.T) {
	m := newManager(t, core.MemOnly, 0, false, false, false)
	tr, _ := Create(m, 1, 32, LayoutSorted)
	for i := 0; i < 100; i++ {
		if err := tr.Insert(uint64(i), payloadFor(uint64(i), 32)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i += 2 {
		found, err := tr.Delete(uint64(i))
		if err != nil || !found {
			t.Fatalf("Delete(%d) = %v, %v", i, found, err)
		}
	}
	if found, _ := tr.Delete(2); found {
		t.Fatal("second delete of same key reported found")
	}
	for i := 0; i < 100; i++ {
		if i%2 == 0 {
			checkLookup(t, tr, uint64(i), nil)
		} else {
			checkLookup(t, tr, uint64(i), payloadFor(uint64(i), 32))
		}
	}
}

func TestUpdateField(t *testing.T) {
	m := newManager(t, core.MemOnly, 0, false, false, false)
	tr, _ := Create(m, 1, 100, LayoutSorted)
	if err := tr.Insert(42, payloadFor(42, 100)); err != nil {
		t.Fatal(err)
	}
	found, err := tr.UpdateField(42, 50, []byte("updated-bytes"))
	if err != nil || !found {
		t.Fatalf("UpdateField = %v, %v", found, err)
	}
	want := payloadFor(42, 100)
	copy(want[50:], "updated-bytes")
	checkLookup(t, tr, 42, want)

	if found, _ := tr.UpdateField(43, 0, []byte("x")); found {
		t.Fatal("UpdateField found absent key")
	}
	if _, err := tr.UpdateField(42, 99, []byte("xx")); err == nil {
		t.Fatal("out-of-range field accepted")
	}
}

func TestScanRange(t *testing.T) {
	m := newManager(t, core.MemOnly, 0, false, false, false)
	tr, _ := Create(m, 1, 512, LayoutSorted)
	for i := 0; i < 300; i++ {
		if err := tr.Insert(uint64(i*2), payloadFor(uint64(i*2), 512)); err != nil {
			t.Fatal(err)
		}
	}
	// Scan 10 entries starting at key 101 (between 100 and 102).
	var got []uint64
	if err := tr.Scan(101, 10, 0, 8, func(k uint64, field []byte) bool {
		got = append(got, k)
		if binary.LittleEndian.Uint64(field) != k^0xDEADBEEF {
			t.Fatalf("field mismatch at key %d", k)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 || got[0] != 102 || got[9] != 120 {
		t.Fatalf("scan = %v", got)
	}
	// Early termination by callback.
	n := 0
	if err := tr.Scan(0, 0, 0, 1, func(uint64, []byte) bool {
		n++
		return n < 5
	}); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("callback-stopped scan visited %d", n)
	}
}

func TestBulkLoad(t *testing.T) {
	for _, layout := range []LeafLayout{LayoutSorted, LayoutHash} {
		name := "sorted"
		if layout == LayoutHash {
			name = "hash"
		}
		t.Run(name, func(t *testing.T) {
			m := newManager(t, core.MemOnly, 0, false, false, true)
			tr, _ := Create(m, 1, 256, layout)
			const n = 5000
			err := tr.BulkLoad(n,
				func(i int) uint64 { return uint64(i * 3) },
				func(i int, dst []byte) { copy(dst, payloadFor(uint64(i*3), 256)) },
				0.66)
			if err != nil {
				t.Fatal(err)
			}
			cnt, err := tr.Count()
			if err != nil {
				t.Fatal(err)
			}
			if cnt != n {
				t.Fatalf("Count = %d, want %d", cnt, n)
			}
			for _, i := range []int{0, 1, 2500, n - 1} {
				checkLookup(t, tr, uint64(i*3), payloadFor(uint64(i*3), 256))
			}
			checkLookup(t, tr, 4, nil)
			// Inserts into a bulk-loaded tree keep working.
			if err := tr.Insert(4, payloadFor(4, 256)); err != nil {
				t.Fatal(err)
			}
			checkLookup(t, tr, 4, payloadFor(4, 256))
		})
	}
}

func TestBulkLoadRejectsNonEmpty(t *testing.T) {
	m := newManager(t, core.MemOnly, 0, false, false, false)
	tr, _ := Create(m, 1, 64, LayoutSorted)
	if err := tr.Insert(1, payloadFor(1, 64)); err != nil {
		t.Fatal(err)
	}
	err := tr.BulkLoad(10, func(i int) uint64 { return uint64(i) },
		func(i int, dst []byte) {}, 0.66)
	if err == nil {
		t.Fatal("bulk load into non-empty tree accepted")
	}
}

func TestHashLeafOps(t *testing.T) {
	m := newManager(t, core.MemOnly, 0, false, false, false)
	tr, _ := Create(m, 1, 8, LayoutHash)
	const n = 3000 // forces hash-leaf splits (hashCap*0.8 ≈ 768)
	for i := 0; i < n; i++ {
		key := uint64(i)*2641 + 1 // scattered keys
		if err := tr.Insert(key, payloadFor(key, 8)); err != nil {
			t.Fatalf("Insert(%d): %v", key, err)
		}
	}
	for i := 0; i < n; i++ {
		key := uint64(i)*2641 + 1
		checkLookup(t, tr, key, payloadFor(key, 8))
	}
	// Delete a third, verify, re-insert into tombstones.
	for i := 0; i < n; i += 3 {
		key := uint64(i)*2641 + 1
		if found, err := tr.Delete(key); err != nil || !found {
			t.Fatalf("Delete(%d) = %v, %v", key, found, err)
		}
	}
	for i := 0; i < n; i++ {
		key := uint64(i)*2641 + 1
		if i%3 == 0 {
			checkLookup(t, tr, key, nil)
		} else {
			checkLookup(t, tr, key, payloadFor(key, 8))
		}
	}
	for i := 0; i < n; i += 3 {
		key := uint64(i)*2641 + 1
		if err := tr.Insert(key, payloadFor(key+1, 8)); err != nil {
			t.Fatalf("re-Insert(%d): %v", key, err)
		}
	}
	cnt, _ := tr.Count()
	if cnt != n {
		t.Fatalf("Count = %d, want %d", cnt, n)
	}
	// Scans return keys sorted even though leaves are hashed.
	last := uint64(0)
	if err := tr.Scan(0, 0, 0, 8, func(k uint64, _ []byte) bool {
		if k <= last && last != 0 {
			t.Fatalf("scan out of order: %d after %d", k, last)
		}
		last = k
		return true
	}); err != nil {
		t.Fatal(err)
	}
}

// TestModelCheck drives random operations against a map model across the
// interesting topology and feature combinations, with periodic eviction
// storms and restarts.
func TestModelCheck(t *testing.T) {
	type variant struct {
		name    string
		topo    core.Topology
		frames  int
		cl      bool
		mini    bool
		swizzle bool
		layout  LeafLayout
	}
	variants := []variant{
		{"mem-sorted", core.MemOnly, 0, false, false, true, LayoutSorted},
		{"ssd-bm", core.DRAMSSD, 8, false, false, false, LayoutSorted},
		{"basic-nvm", core.DRAMNVM, 8, false, false, false, LayoutSorted},
		{"nvm-cl-mini-swizzle", core.DRAMNVM, 8, true, true, true, LayoutSorted},
		{"three-tier", core.ThreeTier, 8, true, true, true, LayoutSorted},
		{"three-tier-hash", core.ThreeTier, 8, true, true, true, LayoutHash},
		{"direct", core.DirectNVM, 0, false, false, false, LayoutSorted},
	}
	const payloadSize = 128
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			m := newManager(t, v.topo, v.frames, v.cl, v.mini, v.swizzle)
			tr, err := Create(m, 1, payloadSize, v.layout)
			if err != nil {
				t.Fatal(err)
			}
			model := make(map[uint64][]byte)
			rng := rand.New(rand.NewSource(99))
			keyspace := uint64(800)

			for step := 0; step < 4000; step++ {
				key := rng.Uint64() % keyspace
				switch rng.Intn(10) {
				case 0, 1, 2, 3: // insert
					p := payloadFor(key+uint64(step), payloadSize)
					err := tr.Insert(key, p)
					if _, exists := model[key]; exists {
						if !errors.Is(err, ErrDuplicateKey) {
							t.Fatalf("step %d: Insert(%d) on existing = %v", step, key, err)
						}
					} else {
						if err != nil {
							t.Fatalf("step %d: Insert(%d): %v", step, key, err)
						}
						model[key] = p
					}
				case 4, 5: // delete
					found, err := tr.Delete(key)
					if err != nil {
						t.Fatalf("step %d: Delete(%d): %v", step, key, err)
					}
					_, exists := model[key]
					if found != exists {
						t.Fatalf("step %d: Delete(%d) found=%v, model=%v", step, key, found, exists)
					}
					delete(model, key)
				case 6: // field update
					val := []byte{byte(step), byte(step >> 8)}
					off := rng.Intn(payloadSize - len(val))
					found, err := tr.UpdateField(key, off, val)
					if err != nil {
						t.Fatalf("step %d: UpdateField: %v", step, err)
					}
					if p, exists := model[key]; exists {
						if !found {
							t.Fatalf("step %d: UpdateField(%d) missed existing key", step, key)
						}
						copy(p[off:], val)
					} else if found {
						t.Fatalf("step %d: UpdateField(%d) found absent key", step, key)
					}
				case 7: // lookup
					checkLookup(t, tr, key, model[key])
				case 8: // short scan compared against the model
					want := sortedKeysFrom(model, key, 20)
					var got []uint64
					if err := tr.Scan(key, 20, 0, 8, func(k uint64, _ []byte) bool {
						got = append(got, k)
						return true
					}); err != nil {
						t.Fatalf("step %d: Scan: %v", step, err)
					}
					if len(got) != len(want) {
						t.Fatalf("step %d: scan len %d, want %d", step, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("step %d: scan[%d] = %d, want %d", step, i, got[i], want[i])
						}
					}
				case 9: // eviction storm / restart
					if v.topo != core.MemOnly && v.topo != core.DirectNVM {
						if rng.Intn(2) == 0 {
							if err := m.CleanShutdown(); err != nil {
								t.Fatalf("step %d: CleanShutdown: %v", step, err)
							}
						} else {
							rootPID := tr.RootPID()
							height := tr.Height()
							if err := m.CleanRestart(); err != nil {
								t.Fatalf("step %d: CleanRestart: %v", step, err)
							}
							tr, err = Load(m, 1, payloadSize, v.layout, rootPID, height)
							if err != nil {
								t.Fatalf("step %d: Load: %v", step, err)
							}
						}
					}
				}
			}
			// Full verification pass, including buffer-manager internal
			// consistency (swizzle back-pointers, table mapping).
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("invariants: %v", err)
			}
			for key, want := range model {
				checkLookup(t, tr, key, want)
			}
			cnt, err := tr.Count()
			if err != nil {
				t.Fatal(err)
			}
			if cnt != len(model) {
				t.Fatalf("Count = %d, model has %d", cnt, len(model))
			}
		})
	}
}

func sortedKeysFrom(model map[uint64][]byte, from uint64, limit int) []uint64 {
	var keys []uint64
	for k := range model {
		if k >= from {
			keys = append(keys, k)
		}
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	if len(keys) > limit {
		keys = keys[:limit]
	}
	return keys
}

func TestTreeSurvivesRestartViaCatalog(t *testing.T) {
	m := newManager(t, core.ThreeTier, 8, true, true, true)
	tr, _ := Create(m, 1, 64, LayoutSorted)
	const n = 1200
	for i := 0; i < n; i++ {
		if err := tr.Insert(uint64(i), payloadFor(uint64(i), 64)); err != nil {
			t.Fatal(err)
		}
	}
	rootPID := tr.RootPID()
	height := tr.Height()
	if err := m.CleanRestart(); err != nil {
		t.Fatal(err)
	}
	tr2, err := Load(m, 1, 64, LayoutSorted, rootPID, height)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 599, n - 1} {
		checkLookup(t, tr2, uint64(i), payloadFor(uint64(i), 64))
	}
	cnt, _ := tr2.Count()
	if cnt != n {
		t.Fatalf("Count after restart = %d, want %d", cnt, n)
	}
}

// loggerRecorder captures logical log records for assertions.
type loggerRecorder struct {
	events []string
}

func (l *loggerRecorder) LogInsert(treeID, key uint64, payload []byte) error {
	l.events = append(l.events, fmt.Sprintf("insert:%d:%d", treeID, key))
	return nil
}
func (l *loggerRecorder) LogDelete(treeID, key uint64, old []byte) error {
	l.events = append(l.events, fmt.Sprintf("delete:%d:%d", treeID, key))
	return nil
}
func (l *loggerRecorder) LogUpdate(treeID, key uint64, off int, before, after []byte) error {
	l.events = append(l.events, fmt.Sprintf("update:%d:%d:%d", treeID, key, off))
	return nil
}
func (l *loggerRecorder) LogStructure(pages ...core.Handle) error {
	pids := make([]core.PageID, len(pages))
	for i, h := range pages {
		pids[i] = h.PID()
	}
	l.events = append(l.events, fmt.Sprintf("structure:%v", pids))
	return nil
}
func (l *loggerRecorder) LogRoot(treeID uint64, root core.Handle) error {
	l.events = append(l.events, fmt.Sprintf("root:%d:%d", treeID, root.PID()))
	return nil
}

func TestLoggerReceivesLogicalRecords(t *testing.T) {
	m := newManager(t, core.MemOnly, 0, false, false, false)
	tr, _ := Create(m, 7, 32, LayoutSorted)
	rec := &loggerRecorder{}
	tr.SetLogger(rec)

	if err := tr.Insert(1, payloadFor(1, 32)); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.UpdateField(1, 4, []byte("zz")); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Delete(1); err != nil {
		t.Fatal(err)
	}
	want := []string{"insert:7:1", "update:7:1:4", "delete:7:1"}
	if len(rec.events) != len(want) {
		t.Fatalf("events = %v, want %v", rec.events, want)
	}
	for i := range want {
		if rec.events[i] != want[i] {
			t.Fatalf("events = %v, want %v", rec.events, want)
		}
	}
}

// TestRootSplitReportsRootThenSplit pins the order in which a root split
// reaches the Logger: the new root, whose only child is the old root,
// first, then the split of the old root, naming child, right and parent
// in that order. An engine that makes each call durable as it arrives
// then never names a root that lost half its keys to a split.
func TestRootSplitReportsRootThenSplit(t *testing.T) {
	m := newManager(t, core.MemOnly, 0, false, false, false)
	tr, _ := Create(m, 1, 512, LayoutSorted)
	oldRoot := tr.RootPID()
	rec := &loggerRecorder{}
	tr.SetLogger(rec)
	for i := 0; i <= tr.LeafCapacity(); i++ { // one more than the root leaf holds
		if err := tr.Insert(uint64(i), payloadFor(uint64(i), 512)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Height() != 2 {
		t.Fatalf("height %d, want 2", tr.Height())
	}
	newRoot := tr.RootPID()
	right, _, err := tr.VisitLeafAsOf(oldRoot, math.MaxUint64, 0, 0, 0, func(uint64, []byte) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	n := len(rec.events)
	want := []string{
		fmt.Sprintf("root:1:%d", newRoot),
		fmt.Sprintf("structure:%v", []core.PageID{oldRoot, right, newRoot}),
		fmt.Sprintf("insert:1:%d", tr.LeafCapacity()),
	}
	if n < len(want) || !slices.Equal(rec.events[n-len(want):], want) {
		t.Fatalf("events end %v, want %v", rec.events[max(0, n-len(want)):], want)
	}
}

// TestPutOfPresentKeySplitsNothing: Put of a key already in a full root
// leaf overwrites its leading bytes in place — one update record, no
// structural change, no new root — where an upsert that descended like an
// insert would split the leaf first. The rest of the row is kept, and an
// absent key is inserted zero-padded.
func TestPutOfPresentKeySplitsNothing(t *testing.T) {
	m := newManager(t, core.MemOnly, 0, false, false, false)
	tr, _ := Create(m, 1, 512, LayoutSorted)
	for i := 0; i < tr.LeafCapacity(); i++ {
		if err := tr.Insert(uint64(i), payloadFor(uint64(i), 512)); err != nil {
			t.Fatal(err)
		}
	}
	rec := &loggerRecorder{}
	tr.SetLogger(rec)
	if err := tr.Put(3, []byte("patched")); err != nil {
		t.Fatal(err)
	}
	if want := []string{"update:1:3:0"}; !slices.Equal(rec.events, want) {
		t.Fatalf("events %v, want %v", rec.events, want)
	}
	if tr.Height() != 1 {
		t.Fatalf("height %d, want 1", tr.Height())
	}
	checkLookup(t, tr, 3, append([]byte("patched"), payloadFor(3, 512)[7:]...))
	if err := tr.Put(1000, []byte("new")); err != nil {
		t.Fatal(err)
	}
	checkLookup(t, tr, 1000, append([]byte("new"), make([]byte, 509)...))
	if err := tr.Put(1001, make([]byte, 513)); err == nil {
		t.Fatal("Put of a row longer than the payload accepted")
	}
}

// TestBulkLoadUnderEvictionWithSwizzling is a regression test: BulkLoad
// reassigns the tree's root reference, and the first leaf — fixed through
// the root holder before the load — must not keep a swizzled back-pointer
// into it, or a later eviction rewrites the root to point at that leaf.
func TestBulkLoadUnderEvictionWithSwizzling(t *testing.T) {
	m := newManager(t, core.ThreeTier, 6, true, true, true)
	tr, _ := Create(m, 1, 8, LayoutSorted)
	// Swizzle the (empty) root through a lookup before bulk loading.
	buf := make([]byte, 8)
	if _, err := tr.Lookup(1, buf); err != nil {
		t.Fatal(err)
	}
	const n = 20000 // several leaves and an inner root
	if err := tr.BulkLoad(n,
		func(i int) uint64 { return uint64(i) },
		func(i int, dst []byte) { binary.LittleEndian.PutUint64(dst, uint64(i)) },
		0.66); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("after bulk load: %v", err)
	}
	// Evict everything repeatedly while looking up: the root reference
	// must stay intact.
	rng := rand.New(rand.NewSource(8))
	for step := 0; step < 2000; step++ {
		key := uint64(rng.Intn(n))
		found, err := tr.Lookup(key, buf)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if !found || binary.LittleEndian.Uint64(buf) != key {
			t.Fatalf("step %d: lookup(%d) bad result", step, key)
		}
		if step%500 == 0 {
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
}
