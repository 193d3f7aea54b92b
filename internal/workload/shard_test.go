package workload

import (
	"math"
	"testing"
	"time"

	"elearncloud/internal/sim"
)

func shardTestConfig(t *testing.T) *Generator {
	t.Helper()
	g, err := NewGenerator(Config{
		Growth:            LinearGrowth(500, 5000, 2*time.Hour),
		ReqPerStudentHour: 40,
		Storms: []DeadlineStorm{{
			Deadline: 3 * time.Hour,
			Ramp:     time.Hour,
			PeakMult: 4,
		}},
	})
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	return g
}

// generate feeds fn the shard's arrivals on [0, horizon) in time order.
func generate(sg *ShardGen, rng *sim.RNG, horizon time.Duration, fn func(Arrival)) {
	s := sg.Stream(rng, 0)
	for a, ok := s.Next(horizon); ok; a, ok = s.Next(horizon) {
		fn(a)
	}
}

// TestShardPartition checks the hash partition is a partition: every
// user lands in exactly one shard, lists are ascending, and membership
// is stable (pure function of ID and K).
func TestShardPartition(t *testing.T) {
	g := shardTestConfig(t)
	const K = 7
	sh := g.ShardBy(K)
	seen := make([]int, g.cfg.Students)
	for i := range seen {
		seen[i] = -1
	}
	total := 0
	for k := 0; k < K; k++ {
		prev := -1
		for _, u := range sh.members[k] {
			if u <= prev {
				t.Fatalf("shard %d members not strictly ascending at %d", k, u)
			}
			prev = u
			if seen[u] != -1 {
				t.Fatalf("user %d in shards %d and %d", u, seen[u], k)
			}
			seen[u] = k
			total++
			if got := ShardOf(u, K); got != k {
				t.Fatalf("ShardOf(%d, %d) = %d, but member of shard %d", u, K, got, k)
			}
		}
	}
	if total != g.cfg.Students {
		t.Fatalf("partition covers %d of %d users", total, g.cfg.Students)
	}
	var share float64
	for k := 0; k < K; k++ {
		share += sh.CapShare(k)
	}
	if math.Abs(share-1) > 1e-12 {
		t.Fatalf("CapShare sums to %v, want 1", share)
	}
}

// TestShardOneIdentity pins the K=1 exactness property: a single shard
// owns every user, all scale factors are exactly 1.0, and the stream is
// byte-identical to the unsharded one — same times, classes, and users,
// from the same RNG consumption.
func TestShardOneIdentity(t *testing.T) {
	g := shardTestConfig(t)
	horizon := 4 * time.Hour
	var direct []Arrival
	g.Generate(sim.NewRNG(42), 0, horizon, func(a Arrival) { direct = append(direct, a) })

	sg := g.ShardBy(1).Shard(0)
	var sharded []Arrival
	generate(sg, sim.NewRNG(42), horizon, func(a Arrival) { sharded = append(sharded, a) })

	if len(direct) != len(sharded) {
		t.Fatalf("arrival counts: direct %d, sharded %d", len(direct), len(sharded))
	}
	if len(direct) < 1000 {
		t.Fatalf("workload too small to be meaningful: %d arrivals", len(direct))
	}
	for i := range direct {
		if direct[i] != sharded[i] {
			t.Fatalf("arrival %d: direct %+v, sharded %+v", i, direct[i], sharded[i])
		}
	}
}

// TestShardRateSuperposition checks the thinning identity: at any time,
// the per-shard rates sum to the full rate, and the shard envelopes are
// valid bounds on the shard rates while never exceeding the full bound.
func TestShardRateSuperposition(t *testing.T) {
	g := shardTestConfig(t)
	const K = 5
	sh := g.ShardBy(K)
	gens := make([]*ShardGen, K)
	envs := make([]sim.EnvelopeFunc, K)
	for k := range gens {
		gens[k] = sh.Shard(k)
		envs[k] = gens[k].Envelope()
	}
	base := g.Envelope()
	for _, tm := range []time.Duration{0, 17 * time.Minute, time.Hour, 2*time.Hour + 31*time.Minute, 3 * time.Hour} {
		full := g.Rate(tm)
		sum := 0.0
		for k := range gens {
			r := gens[k].Rate(tm)
			sum += r
			max, until := envs[k](tm)
			if r > max*(1+1e-12) {
				t.Fatalf("t=%v shard %d rate %v exceeds its envelope %v", tm, k, r, max)
			}
			baseMax, baseUntil := base(tm)
			if max > baseMax*(1+1e-12) || until != baseUntil {
				t.Fatalf("t=%v shard %d envelope (%v,%v) outside base (%v,%v)", tm, k, max, until, baseMax, baseUntil)
			}
			// The bound must hold across the whole segment, not just at t.
			for probe := tm; probe < until; probe += (until - tm) / 4 {
				if pr := gens[k].Rate(probe); pr > max*(1+1e-12) {
					t.Fatalf("shard %d rate %v at %v exceeds segment bound %v from t=%v", k, pr, probe, max, tm)
				}
			}
		}
		if math.Abs(sum-full) > 1e-9*full {
			t.Fatalf("t=%v shard rates sum to %v, full rate %v", tm, sum, full)
		}
	}
}

// TestShardArrivalsStayHome checks every generated arrival belongs to
// the generating shard's member set and the active population at its
// arrival time.
func TestShardArrivalsStayHome(t *testing.T) {
	g := shardTestConfig(t)
	const K = 4
	sh := g.ShardBy(K)
	total := 0
	for k := 0; k < K; k++ {
		sg := sh.Shard(k)
		members := sh.members[k]
		own := make(map[int]bool, len(members))
		for _, u := range members {
			own[u] = true
		}
		generate(sg, sim.NewRNG(7).Stream("shard-test"), 90*time.Minute, func(a Arrival) {
			total++
			if !own[a.UserID] {
				t.Fatalf("shard %d produced foreign user %d", k, a.UserID)
			}
			if n := g.users(a.At); a.UserID >= n {
				t.Fatalf("shard %d produced user %d before activation (active %d at %v)", k, a.UserID, n, a.At)
			}
		})
	}
	if total < 1000 {
		t.Fatalf("workload too small to be meaningful: %d arrivals", total)
	}
}
