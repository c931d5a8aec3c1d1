package ycsb

import (
	"testing"

	"nvmstore/internal/btree"
	"nvmstore/internal/core"
	"nvmstore/internal/engine"
	"nvmstore/internal/shard"
)

func TestKeyStreamDeterministic(t *testing.T) {
	const n, draws = 5000, 2000
	for _, p := range []Partition{{}, {Shards: 4, Index: 0}, {Shards: 4, Index: 3}} {
		a := NewKeyStream(n, DefaultSeed, p)
		b := NewKeyStream(n, DefaultSeed, p)
		for i := 0; i < draws; i++ {
			ka, kb := a.Next(), b.Next()
			if ka != kb {
				t.Fatalf("partition %+v draw %d: %d != %d", p, i, ka, kb)
			}
			if ua, ub := a.Uniform(97), b.Uniform(97); ua != ub {
				t.Fatalf("partition %+v uniform draw %d: %d != %d", p, i, ua, ub)
			}
		}
	}
}

func TestKeyStreamRespectsPartition(t *testing.T) {
	const n = 5000
	for index := 0; index < 4; index++ {
		p := Partition{Shards: 4, Index: index}
		s := NewKeyStream(n, DefaultSeed, p)
		for i := 0; i < 2000; i++ {
			k := s.Next()
			if k >= n {
				t.Fatalf("shard %d drew key %d outside key space %d", index, k, n)
			}
			if shard.Of(k, 4) != index {
				t.Fatalf("shard %d drew key %d owned by shard %d", index, k, shard.Of(k, 4))
			}
		}
	}
}

func TestKeyStreamShardsDiffer(t *testing.T) {
	const n = 5000
	a := NewKeyStream(n, DefaultSeed, Partition{Shards: 4, Index: 0})
	b := NewKeyStream(n, DefaultSeed, Partition{Shards: 4, Index: 1})
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uniform(1000) == b.Uniform(1000) {
			same++
		}
	}
	if same > 50 {
		t.Fatalf("shards 0 and 1 agree on %d/1000 uniform draws; seeds not distinct", same)
	}
}

func TestKeyStreamSingleShardMatchesUnpartitioned(t *testing.T) {
	const n = 5000
	a := NewKeyStream(n, DefaultSeed, Partition{})
	b := NewKeyStream(n, DefaultSeed, Partition{Shards: 1, Index: 0})
	for i := 0; i < 2000; i++ {
		if ka, kb := a.Next(), b.Next(); ka != kb {
			t.Fatalf("draw %d: unpartitioned %d != 1-shard %d", i, ka, kb)
		}
	}
}

func loadShard(t *testing.T, rows int, p Partition) *Workload {
	t.Helper()
	cfg := engine.DefaultConfig(core.ThreeTier,
		64*(core.PageSize+2*core.LineSize),
		4096*(core.PageSize+core.LineSize),
		16384*core.PageSize)
	cfg.WALBytes = 1 << 20
	cfg.CPUCacheBytes = -1
	e, err := engine.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := Load(e, rows, btree.LayoutSorted, 0.66, p)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestPartitionedLoadCoversKeySpace(t *testing.T) {
	const rows, shards = 3000, 3
	total := 0
	for i := 0; i < shards; i++ {
		w := loadShard(t, rows, Partition{Shards: shards, Index: i})
		n, err := w.Table().Count()
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatalf("shard %d loaded no rows", i)
		}
		total += n
		// Every shard must answer its own partitioned workload.
		for j := 0; j < 300; j++ {
			if err := w.Lookup(); err != nil {
				t.Fatalf("shard %d lookup %d: %v", i, j, err)
			}
		}
	}
	if total != rows {
		t.Fatalf("shards loaded %d rows total, want %d", total, rows)
	}
}

func TestPartitionedInsertRejected(t *testing.T) {
	w := loadShard(t, 1000, Partition{Shards: 2, Index: 0})
	if err := w.Insert(); err == nil {
		t.Fatal("Insert on a partitioned workload should fail")
	}
	if err := w.ReadLatest(); err == nil {
		t.Fatal("ReadLatest on a partitioned workload should fail")
	}
}
