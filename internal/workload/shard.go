package workload

import (
	"fmt"
	"math"
	"sort"
	"time"

	"elearncloud/internal/sim"
)

// This file partitions a generator's student population into K shards
// so a DES run can execute as K independent engines (scenario's
// Config.Shards) whose superposed arrival process is
// distribution-identical to the unsharded one.
//
// The construction thins the NHPP: user u belongs to shard ShardOf(u, K)
// (a stable hash, so membership never depends on K ordering or run
// state), and shard k's rate is the full rate scaled by the fraction of
// currently-active users it owns. Splitting a Poisson process by
// independent coin flips yields independent Poisson processes whose
// rates sum to the original — so the shards together reproduce the
// unsharded arrival distribution exactly, while each shard samples its
// own (seed, "shard/<k>")-rooted streams.
//
// At K=1 the shard owns every user: every scale factor is exactly 1.0,
// so the thinning proposals, acceptances, and user picks consume the
// RNG identically to the unsharded path and the stream is byte-identical
// — the property TestShardOneIdentity pins and scenario's sharded=direct
// golden equivalence builds on.

// ShardOf maps a user ID to its shard in [0, shards). The hash is the
// splitmix64 finalizer: stable across runs, uncorrelated with the ID's
// low bits (which growth curves allocate sequentially).
func ShardOf(user, shards int) int {
	z := uint64(user) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(shards))
}

// Sharding is a partition of a generator's user-ID space into K member
// lists, each sorted ascending so the active-member count under a
// growing population is a binary search away.
type Sharding struct {
	gen     *Generator
	members [][]int
}

// ShardBy partitions the generator's population into shards. Panics if
// shards < 1.
func (g *Generator) ShardBy(shards int) *Sharding {
	if shards < 1 {
		panic(fmt.Sprintf("workload: ShardBy with shards = %d, need >= 1", shards))
	}
	members := make([][]int, shards)
	for u := 0; u < g.cfg.Students; u++ {
		k := ShardOf(u, shards)
		members[k] = append(members[k], u) // ascending by construction
	}
	return &Sharding{gen: g, members: members}
}

// CapShare returns shard k's share of the full population — the factor
// by which a per-shard fleet's peak capacity should be scaled.
func (s *Sharding) CapShare(k int) float64 {
	return float64(len(s.members[k])) / float64(s.gen.cfg.Students)
}

// Shard returns the per-shard generator view for shard k.
func (s *Sharding) Shard(k int) *ShardGen {
	return &ShardGen{g: s.gen, members: s.members[k]}
}

// ShardGen is one shard's view of a generator: the full config's rate
// shape, scaled by the shard's share of the currently-active users.
type ShardGen struct {
	g       *Generator
	members []int
}

// active returns the number of this shard's members with ID < n — the
// shard's share of an active population of n users.
func (sg *ShardGen) active(n int) int {
	return sort.SearchInts(sg.members, n)
}

// rateAt returns the shard's instantaneous arrival rate at t — the full
// rate times the fraction of active users the shard owns — and the
// active population it scaled.
func (sg *ShardGen) rateAt(t time.Duration) (rate, pop float64) {
	rate, pop = sg.g.rateAt(t)
	n := sg.g.usersOf(pop)
	return rate * (float64(sg.active(n)) / float64(n)), pop
}

// Envelope returns the shard's piecewise thinning bound: the full
// envelope times an upper bound on the shard's active share over the
// segment. With n growing monotonically from n(t) to n(until), the
// share c(n)/n is bounded by c(n(until))/n(t) — c is nondecreasing and
// 1/n nonincreasing — clamped to 1 since a share never exceeds one.
// The clamp also makes K=1 exact: there c(n)=n, the ratio is >= 1, and
// the factor is exactly 1.0, leaving the base bound bit-identical.
//
// c(n(until)) depends only on the segment end, so the function counts
// it once per segment and recomputes only n(t) per query. Each call
// returns its own function; one function must not be shared across
// goroutines.
func (sg *ShardGen) Envelope() sim.EnvelopeFunc {
	base := sg.g.Envelope()
	// endActive holds c(n(end)) for the segment ending at end; a segment
	// never ends before time 0, so -1 marks none counted yet.
	end, endActive := sim.Time(-1), 0.0
	return func(t sim.Time) (float64, sim.Time) {
		max, until := base(t)
		if until != end {
			end, endActive = until, float64(sg.active(sg.g.users(until)))
		}
		share := endActive / float64(sg.g.users(t))
		return max * math.Min(1, share), until
	}
}

// Stream returns the shard's lazy arrival stream starting at start,
// mirroring Generator.Stream with the shard's rate, envelope, and user
// pool.
func (sg *ShardGen) Stream(rng *sim.RNG, start time.Duration) *ArrivalStream {
	return newStream(sg.g, sg.rateAt, sg.Envelope(), sg, rng, start)
}
