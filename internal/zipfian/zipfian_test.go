package zipfian

import "testing"

func TestBounds(t *testing.T) {
	g := New(1000, 42)
	for i := 0; i < 100000; i++ {
		if r := g.Next(); r >= 1000 {
			t.Fatalf("rank %d out of range", r)
		}
		if k := g.NextScrambled(); k >= 1000 {
			t.Fatalf("scrambled key %d out of range", k)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := New(5000, 7)
	b := New(5000, 7)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed produced different sequences")
		}
	}
	c := New(5000, 8)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Next() == c.Next() {
			same++
		}
	}
	if same > 900 {
		t.Fatalf("different seeds nearly identical: %d/1000 equal", same)
	}
}

func TestSkewShape(t *testing.T) {
	const n = 10000
	const draws = 2000000
	g := New(n, 1)
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[g.Next()]++
	}
	// Rank 0 must be the most frequent and dominate rank 100 by roughly
	// 100^0.99; allow generous slack.
	if counts[0] < counts[1] {
		t.Fatalf("rank 0 (%d) less frequent than rank 1 (%d)", counts[0], counts[1])
	}
	ratio := float64(counts[0]) / float64(counts[100]+1)
	if ratio < 20 || ratio > 500 {
		t.Fatalf("count(0)/count(100) = %.1f, expected ~95", ratio)
	}
	// The head must carry substantial mass: top 1% of ranks well over
	// a third of all draws for theta=0.99, n=10k.
	head := 0
	for i := 0; i < n/100; i++ {
		head += counts[i]
	}
	if frac := float64(head) / draws; frac < 0.3 {
		t.Fatalf("top 1%% of ranks has %.2f of mass, expected Zipf head", frac)
	}
}

func TestScrambledSpreadsHotKeys(t *testing.T) {
	const n = 10000
	g := New(n, 3)
	counts := make(map[uint64]int)
	for i := 0; i < 200000; i++ {
		counts[g.NextScrambled()]++
	}
	// The hottest key should not be key 0 in general (popular ranks are
	// scattered), and hot keys should not all be adjacent.
	hot := uint64(0)
	max := 0
	for k, c := range counts {
		if c > max {
			max, hot = c, k
		}
	}
	if hot == 0 {
		t.Log("hottest key is 0; allowed but suspicious")
	}
	// Find the two hottest keys; they must not be neighbors.
	second := uint64(0)
	secondMax := 0
	for k, c := range counts {
		if k != hot && c > secondMax {
			secondMax, second = c, k
		}
	}
	d := int64(hot) - int64(second)
	if d == 1 || d == -1 {
		t.Fatalf("two hottest keys adjacent: %d, %d", hot, second)
	}
}

func TestUniformHelpers(t *testing.T) {
	g := New(10, 9)
	for i := 0; i < 1000; i++ {
		if v := g.Uint64n(7); v >= 7 {
			t.Fatalf("Uint64n(7) = %d", v)
		}
		if f := g.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64() = %f", f)
		}
	}
}

func TestPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty key space accepted")
		}
	}()
	New(0, 1)
}
