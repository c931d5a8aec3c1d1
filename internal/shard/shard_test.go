package shard

import "testing"

func TestOfRangeAndDeterminism(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 8} {
		counts := make([]int, n)
		for k := uint64(0); k < 10000; k++ {
			s := Of(k, n)
			if s < 0 || s >= n {
				t.Fatalf("Of(%d, %d) = %d out of range", k, n, s)
			}
			if s != Of(k, n) {
				t.Fatalf("Of(%d, %d) not deterministic", k, n)
			}
			counts[s]++
		}
		// Hashing must spread dense key ranges roughly evenly.
		for s, c := range counts {
			if want := 10000 / n; c < want/2 || c > want*2 {
				t.Errorf("shard %d/%d got %d of 10000 keys", s, n, c)
			}
		}
	}
}

func TestOfSingleShardOwnsAll(t *testing.T) {
	for k := uint64(0); k < 100; k++ {
		if Of(k, 1) != 0 || Of(k, 0) != 0 {
			t.Fatalf("single shard must own every key")
		}
	}
}

func TestSeedForDistinct(t *testing.T) {
	seen := map[uint64]int{}
	for i := 0; i < 64; i++ {
		s := SeedFor(42, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("SeedFor(42, %d) == SeedFor(42, %d)", i, prev)
		}
		seen[s] = i
		if s != SeedFor(42, i) {
			t.Fatalf("SeedFor not deterministic at index %d", i)
		}
	}
	if SeedFor(1, 0) == SeedFor(2, 0) {
		t.Fatal("different base seeds must derive different shard seeds")
	}
}

func TestStreamIsMixOfAdvancingState(t *testing.T) {
	s := Stream(42)
	for i := uint64(0); i < 100; i++ {
		if got, want := s.Next(), Mix(42+i*0x9e3779b97f4a7c15); got != want {
			t.Fatalf("draw %d: %#x, want %#x", i, got, want)
		}
	}
}
