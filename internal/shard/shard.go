// Package shard defines the hash partitioning shared by every layer of
// the parallel execution path (the paper's Appendix A.1 scale-up model):
// the public ShardedStore, the partitionable YCSB and TPC-C drivers, and
// the benchmark harness all route a key to the same shard, so a workload
// generated for shard i only ever touches shard i's store.
package shard

// Of returns the shard in [0, n) owning key. Keys are hashed before
// taking the remainder so that dense key ranges (YCSB row ids, TPC-C
// composite keys) spread evenly across shards.
func Of(key uint64, n int) int {
	if n <= 1 {
		return 0
	}
	return int(Mix(key) % uint64(n))
}

// Mix is the SplitMix64 finalizer, the repo's standard scramble.
func Mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// SeedFor derives shard index's random seed from a base seed, so that a
// sharded run is deterministic given (base seed, shard count): every
// shard draws an independent stream, and re-running with the same base
// seed reproduces all of them.
func SeedFor(base uint64, index int) uint64 {
	return Mix(base ^ Mix(uint64(index)+0x5348415244)) // "SHARD"
}

// Stream is a SplitMix64 random stream: Next returns Mix of the state,
// then advances the state. A stream is its state, so shard.Stream(seed)
// starts one and two streams from the same seed draw the same sequence.
// Not safe for concurrent use.
type Stream uint64

// Next returns the stream's next value.
func (s *Stream) Next() uint64 {
	x := Mix(uint64(*s))
	*s += 0x9e3779b97f4a7c15
	return x
}
