package btree

import (
	"fmt"
	"math/rand"
	"testing"

	"nvmstore/internal/core"
)

// leafShape walks the leaf chain and returns the number of leaves, the
// entries they hold and how many of them are empty.
func leafShape(t *testing.T, m *core.Manager, tr *Tree) (leaves, entries, empty int) {
	t.Helper()
	pid, err := tr.HeadLeaf()
	if err != nil {
		t.Fatal(err)
	}
	for pid != core.InvalidPageID {
		h, err := m.Fix(core.MakeRef(pid), core.ModeFull)
		if err != nil {
			t.Fatal(err)
		}
		n := nodeCount(h)
		pid = leafNext(h)
		m.Unfix(h)
		leaves++
		entries += n
		if n == 0 {
			empty++
		}
	}
	return leaves, entries, empty
}

// splitLayouts are the two leaf layouts at payloads that give leaves of a
// few dozen entries or fewer, so a few thousand inserts split many times.
var splitLayouts = []struct {
	name    string
	layout  LeafLayout
	payload int
}{
	{"sorted", LayoutSorted, 1000}, // 16 entries a leaf, as on the ruler
	{"hash", LayoutHash, 100},      // splits at 119 entries
}

// insertInOrder creates a tree and inserts keys in the given order,
// checking every insert.
func insertInOrder(t *testing.T, layout LeafLayout, payload int, keys []uint64) (*core.Manager, *Tree) {
	t.Helper()
	m := newManager(t, core.MemOnly, 0, false, false, false)
	tr, err := Create(m, 1, payload, layout)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if err := tr.Insert(k, payloadFor(k, payload)); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}
	return m, tr
}

func ascendingKeys(n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i)
	}
	return keys
}

// leafFill is entries ÷ (leaves × LeafCapacity).
func leafFill(t *testing.T, m *core.Manager, tr *Tree) float64 {
	t.Helper()
	leaves, entries, _ := leafShape(t, m, tr)
	return float64(entries) / float64(leaves*tr.LeafCapacity())
}

// TestSplitPoint pins the rule, and that from two entries on a rightmost
// split keeps at least half of them and never all.
func TestSplitPoint(t *testing.T) {
	for _, c := range []struct {
		count     int
		rightmost bool
		want      int
	}{
		{16, false, 8}, {16, true, 14}, {2, true, 1}, {2, false, 1},
		{3, true, 2}, {1, true, 0}, {119, true, 107}, {119, false, 59},
	} {
		if got := splitPoint(c.count, c.rightmost); got != c.want {
			t.Errorf("splitPoint(%d, %v) = %d, want %d", c.count, c.rightmost, got, c.want)
		}
	}
	for count := 2; count <= 600; count++ {
		left := splitPoint(count, true)
		if left < (count+1)/2 || left > count-1 {
			t.Fatalf("splitPoint(%d, true) = %d, outside [%d, %d]", count, left, (count+1)/2, count-1)
		}
	}
}

// TestAscendingInsertsFillLeaves: keys that always land beyond the largest
// one split the rightmost leaf 9:1, so the leaves an ascending load leaves
// behind are ≈ 90 % full instead of half.
func TestAscendingInsertsFillLeaves(t *testing.T) {
	for _, l := range splitLayouts {
		t.Run(l.name, func(t *testing.T) {
			m, tr := insertInOrder(t, l.layout, l.payload, ascendingKeys(6000))
			if fill := leafFill(t, m, tr); fill < 0.85 {
				t.Fatalf("ascending inserts leave leaves %.1f %% full, want >= 85 %%", 100*fill)
			}
		})
	}
}

// TestNearAscendingInsertsFillLeaves: keys shuffled within windows of 16
// still fill the leaves: the out-of-order keys land in the left page,
// which the 9:1 split left room for. Pipelined writers do not deliver
// keys this way: one writer's keys can trail the other's for longer than
// a window, as TestLaggedAscendingWritersFillLeaves models.
func TestNearAscendingInsertsFillLeaves(t *testing.T) {
	for _, l := range splitLayouts {
		t.Run(l.name, func(t *testing.T) {
			keys := ascendingKeys(6000)
			rng := rand.New(rand.NewSource(3))
			for i := 0; i < len(keys); i += 16 {
				w := keys[i:min(i+16, len(keys))]
				rng.Shuffle(len(w), func(a, b int) { w[a], w[b] = w[b], w[a] })
			}
			m, tr := insertInOrder(t, l.layout, l.payload, keys)
			if fill := leafFill(t, m, tr); fill < 0.80 {
				t.Fatalf("near-ascending inserts leave leaves %.1f %% full, want >= 80 %%", 100*fill)
			}
		})
	}
}

// laggedAscendingKeys returns n keys as two ascending writers deliver
// them: one writes the even keys, the other the odd ones, each step is a
// random writer's next key, and neither runs more than lead keys ahead of
// the other.
func laggedAscendingKeys(n int, lead uint64, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]uint64, 0, n)
	next := [2]uint64{0, 1}
	for len(keys) < n {
		w := rng.Intn(2)
		if next[w] >= next[1-w]+lead {
			w = 1 - w
		}
		keys = append(keys, next[w])
		next[w] += 2
	}
	return keys
}

// TestLaggedAscendingWritersFillLeaves: the slower of two ascending
// writers delivers keys that belong in the left page of the last
// rightmost split. Once they fill it, a 1:1 split of that page would
// leave two half-empty leaves behind the load; the full leaf hands its
// upper entries to the rightmost leaf instead. With the lead wandering up
// to 8 and up to 16 keys, 1:1 splits left leaves 88.2 % and 71.9 % full.
func TestLaggedAscendingWritersFillLeaves(t *testing.T) {
	for _, lead := range []uint64{8, 16} {
		t.Run(fmt.Sprintf("lead%d", lead), func(t *testing.T) {
			m, tr := insertInOrder(t, LayoutSorted, 1000, laggedAscendingKeys(30000, lead, 1))
			if fill := leafFill(t, m, tr); fill < 0.90 {
				t.Fatalf("lagged ascending writers leave leaves %.1f %% full, want >= 90 %%", 100*fill)
			}
			for k := uint64(0); k < 30000; k += 997 {
				checkLookup(t, tr, k, payloadFor(k, 1000))
			}
		})
	}
}

// TestRandomInsertsKeepHalfSplits: random-order inserts land in the
// rightmost leaf only now and then, so they leave about as many leaves as
// splitting every leaf 1:1 did. Not exactly as many: the rightmost leaf's
// 9:1 splits shift which leaves split when, and over seeds 1–6 the count
// moved by −0.6 % to +0.5 % (sorted) and −4.8 % to −0.3 % (hash) against
// the 1:1 split's. 30 000 keys is the wire load's key count; the counts
// below were recorded with every leaf split 1:1.
func TestRandomInsertsKeepHalfSplits(t *testing.T) {
	halfSplitLeaves := map[string]int{"sorted": 2664, "hash": 361}
	for _, l := range splitLayouts {
		t.Run(l.name, func(t *testing.T) {
			keys := ascendingKeys(30000)
			rand.New(rand.NewSource(11)).Shuffle(len(keys), func(a, b int) { keys[a], keys[b] = keys[b], keys[a] })
			m, tr := insertInOrder(t, l.layout, l.payload, keys)
			leaves, _, _ := leafShape(t, m, tr)
			if want := halfSplitLeaves[l.name]; 20*leaves > 21*want || 20*leaves < 19*want {
				t.Fatalf("random inserts leave %d leaves, want within 5 %% of the %d that 1:1 splits left", leaves, want)
			}
		})
	}
}

// TestSmallestLeavesSplitExactly: at two entries a leaf the rightmost
// split keeps one entry on each side, as every split does, so no order of
// inserts loses a row or leaves an empty leaf.
func TestSmallestLeavesSplitExactly(t *testing.T) {
	for _, l := range []struct {
		name    string
		layout  LeafLayout
		payload int
	}{
		{"sorted", LayoutSorted, 8151}, // the largest payload newTree accepts
		{"hash", LayoutHash, 5000},     // hashCap 3, split at 2
	} {
		const n = 300
		orders := map[string][]uint64{"ascending": ascendingKeys(n)}
		desc := make([]uint64, n)
		for i := range desc {
			desc[i] = uint64(n - 1 - i)
		}
		orders["descending"] = desc
		random := ascendingKeys(n)
		rand.New(rand.NewSource(5)).Shuffle(n, func(a, b int) { random[a], random[b] = random[b], random[a] })
		orders["random"] = random
		for order, keys := range orders {
			t.Run(l.name+"/"+order, func(t *testing.T) {
				m, tr := insertInOrder(t, l.layout, l.payload, keys)
				if tr.LeafCapacity() != 2 {
					t.Fatalf("leaf capacity %d, want 2", tr.LeafCapacity())
				}
				var got []uint64
				if err := tr.Scan(0, 0, 0, 8, func(k uint64, field []byte) bool {
					if string(field) != string(payloadFor(k, l.payload)[:8]) {
						t.Errorf("key %d: wrong payload", k)
					}
					got = append(got, k)
					return true
				}); err != nil {
					t.Fatal(err)
				}
				if len(got) != n {
					t.Fatalf("scan returned %d of %d rows", len(got), n)
				}
				for i, k := range got {
					if k != uint64(i) {
						t.Fatalf("scan row %d is key %d", i, k)
					}
				}
				for k := uint64(0); k < n; k++ {
					checkLookup(t, tr, k, payloadFor(k, l.payload))
				}
				if _, _, empty := leafShape(t, m, tr); empty > 0 {
					t.Fatalf("%d empty leaves", empty)
				}
			})
		}
	}
}
