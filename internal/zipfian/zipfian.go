// Package zipfian generates Zipf-distributed keys using the algorithm of
// Gray et al., "Quickly generating billion-record synthetic databases"
// (SIGMOD 1994) — the same generator the paper cites for its YCSB setup
// ("Zipf-distributed (z = 1, non clustered popular keys)").
//
// Next returns ranks: rank 0 is the most popular. NextScrambled spreads
// the popular ranks uniformly over the key space ("non clustered popular
// keys") by hashing the rank, as YCSB's scrambled Zipfian does.
//
// A theta of exactly 1 makes Gray's closed form singular; following YCSB,
// the canonical "z = 1" workload uses theta = 0.99, the one skew every
// workload of the paper draws.
package zipfian

import (
	"math"

	"nvmstore/internal/shard"
)

// theta is the skew of the paper's "z = 1" workloads.
const theta = 0.99

// Generator produces Zipf-distributed ranks in [0, n). It embeds its own
// deterministic random stream, so two generators with the same n and
// seed produce identical sequences. Not safe for concurrent use.
type Generator struct {
	n     uint64
	alpha float64
	zetan float64
	eta   float64
	rng   shard.Stream
}

// New creates a generator over [0, n). It precomputes zeta(n), which is
// O(n) but done once.
func New(n uint64, seed uint64) *Generator {
	if n == 0 {
		panic("zipfian: empty key space")
	}
	zetan := zeta(n)
	return &Generator{
		n:     n,
		alpha: 1 / (1 - theta),
		zetan: zetan,
		eta:   (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/zetan),
		rng:   shard.Stream(seed*2862933555777941757 + 3037000493),
	}
}

func zeta(n uint64) float64 {
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Float64 returns a uniform value in [0, 1).
func (g *Generator) Float64() float64 {
	return float64(g.rng.Next()>>11) / (1 << 53)
}

// Uint64n returns a uniform value in [0, n).
func (g *Generator) Uint64n(n uint64) uint64 {
	return g.rng.Next() % n
}

// Next returns the next Zipf-distributed rank in [0, n); rank 0 is the
// most popular.
func (g *Generator) Next() uint64 {
	u := g.Float64()
	uz := u * g.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, theta) {
		return 1
	}
	r := uint64(float64(g.n) * math.Pow(g.eta*u-g.eta+1, g.alpha))
	if r >= g.n {
		r = g.n - 1
	}
	return r
}

// NextScrambled returns a Zipf-distributed key in [0, n) with the popular
// keys scattered across the key space instead of clustered at 0.
func (g *Generator) NextScrambled() uint64 {
	return KeyAt(g.Next(), g.n)
}

// KeyAt maps a popularity rank to its scrambled key in [0, n): the key
// NextScrambled returns when Next draws that rank. It lets partitioned
// workloads enumerate the key space in popularity order.
func KeyAt(rank, n uint64) uint64 {
	return shard.Mix(rank) % n
}
