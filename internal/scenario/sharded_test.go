package scenario

import (
	"math"
	"reflect"
	"testing"
	"time"

	"elearncloud/internal/deploy"
	"elearncloud/internal/network"
	"elearncloud/internal/workload"
)

// shardedTestConfigs mirrors the shapes the experiment suite exercises:
// an elastic public MOOC ramp, a hybrid with CDN + threats, and a
// private deployment with a host failure.
func shardedTestConfigs() map[string]Config {
	return map[string]Config{
		"public-growth": {
			Seed:              101,
			Kind:              deploy.Public,
			Growth:            workload.LinearGrowth(200, 1500, time.Hour),
			ReqPerStudentHour: 30,
			Duration:          2 * time.Hour,
			Diurnal:           workload.FlatDiurnal(),
			Scaler:            ScalerReactive,
		},
		"hybrid-cdn": {
			Seed:              102,
			Kind:              deploy.Hybrid,
			Students:          800,
			ReqPerStudentHour: 25,
			Duration:          2 * time.Hour,
			Scaler:            ScalerPredictive,
			EnableCDN:         true,
			EnableThreats:     true,
		},
		"private-failure": {
			Seed:              103,
			Kind:              deploy.Private,
			Students:          600,
			ReqPerStudentHour: 25,
			Duration:          2 * time.Hour,
			Scaler:            ScalerFixed,
			HostFailureAt:     30 * time.Minute,
		},
	}
}

// TestShardedOneEqualsRun pins the identity at the heart of the
// sharded path: Shards of 0 or 1 on an explicit pool runs the one
// direct engine, so it is byte-identical to Run of the unsharded
// config — a pool adds no fan-out, no merge and no second bill.
func TestShardedOneEqualsRun(t *testing.T) {
	for name, cfg := range shardedTestConfigs() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			direct, err := Run(cfg)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			for _, shards := range []int{0, 1} {
				scfg := cfg
				scfg.Shards = shards
				sharded, err := NewPool(2).Run(scfg)
				if err != nil {
					t.Fatalf("Pool.Run(shards=%d): %v", shards, err)
				}
				if !reflect.DeepEqual(direct, sharded) {
					t.Fatalf("Pool.Run(shards=%d) differs from Run:\ndirect:  %+v\nsharded: %+v",
						shards, direct, sharded)
				}
			}
			if direct.Served < 500 {
				t.Fatalf("workload too small to be meaningful: %d served", direct.Served)
			}
		})
	}
}

// TestShardedWorkerIndependent pins that a multi-shard merged result is
// a pure function of (config, seed, K): identical for any worker count,
// serial reference included.
func TestShardedWorkerIndependent(t *testing.T) {
	cfg := shardedTestConfigs()["public-growth"]
	cfg.Shards = 4
	ref, err := NewPool(1).Run(cfg)
	if err != nil {
		t.Fatalf("Pool.Run(workers=1): %v", err)
	}
	for _, workers := range []int{2, 4, 7} {
		got, err := NewPool(workers).Run(cfg)
		if err != nil {
			t.Fatalf("Pool.Run(workers=%d): %v", workers, err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("workers=%d merged result differs from serial reference", workers)
		}
	}
	if ref.Shards != 4 || len(ref.ShardEvents) != 4 {
		t.Fatalf("merge metadata: Shards=%d ShardEvents=%v", ref.Shards, ref.ShardEvents)
	}
	var sum uint64
	for _, e := range ref.ShardEvents {
		sum += e
	}
	if sum != ref.Events {
		t.Fatalf("Events %d != sum of ShardEvents %d", ref.Events, sum)
	}
	if ref.Served < 1000 {
		t.Fatalf("workload too small to be meaningful: %d served", ref.Served)
	}
}

// TestShardedMergeSanity checks the merged aggregates stay in the same
// regime as the unsharded run: shards split load, so total served and
// total VM-hours must land close, not at K× or 1/K.
func TestShardedMergeSanity(t *testing.T) {
	cfg := shardedTestConfigs()["public-growth"]
	direct, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	cfg.Shards = 4
	sharded, err := NewPool(2).Run(cfg)
	if err != nil {
		t.Fatalf("Pool.Run: %v", err)
	}
	dServed, sServed := float64(direct.Served), float64(sharded.Served)
	if sServed < 0.8*dServed || sServed > 1.25*dServed {
		t.Fatalf("served diverged: direct %d, sharded %d", direct.Served, sharded.Served)
	}
	if sharded.Servers.Len() != direct.Servers.Len() {
		t.Fatalf("series length: direct %d, sharded %d", direct.Servers.Len(), sharded.Servers.Len())
	}
	if sharded.Cost.Total() <= 0 {
		t.Fatalf("merged bill is empty: %+v", sharded.Cost)
	}
	// Storage must be billed once, not K times: the merged bill's
	// storage line matches the unsharded one (same assets, same months).
	if sharded.Cost.Storage != direct.Cost.Storage {
		t.Fatalf("storage billed per shard: direct %v, sharded %v",
			direct.Cost.Storage, sharded.Cost.Storage)
	}
}

// TestRunHonorsShards: Run, Pool.Run on a nil pool, splits a DES run
// into Config.Shards engines on a pool of its own, with the result an
// explicit pool gives.
func TestRunHonorsShards(t *testing.T) {
	cfg := shardedTestConfigs()["public-growth"]
	cfg.Shards = 2
	got, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got.Shards != 2 || len(got.ShardEvents) != 2 {
		t.Fatalf("Run ignored Shards = 2: Shards=%d ShardEvents=%v", got.Shards, got.ShardEvents)
	}
	want, err := NewPool(1).Run(cfg)
	if err != nil {
		t.Fatalf("Pool.Run: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Run and Pool.Run of the same sharded config differ")
	}
}

// TestShardSliceSumsToTotal: a count splits into slices that add up to
// it, every slice at least zero, so K shards follow exactly the tracked
// sessions configured, even when there are fewer sessions than shards.
func TestShardSliceSumsToTotal(t *testing.T) {
	for shards := 1; shards <= 20; shards++ {
		for total := 0; total <= 100; total++ {
			sum := 0
			for k := 0; k < shards; k++ {
				n := shardSlice(total, k, shards)
				if n < 0 {
					t.Fatalf("shardSlice(%d, %d, %d) = %d", total, k, shards, n)
				}
				sum += n
			}
			if sum != total {
				t.Fatalf("%d shards of %d sum to %d", shards, total, sum)
			}
		}
	}
}

// TestShardRateSuperposition: shard k runs the config at its share of
// the demand, so the shard generators' rates and bounds add up to the
// unsharded ones, and each shard of a hybrid window opens at its share
// of the window's warm fleet (ceiling) and backlog (rounded).
func TestShardRateSuperposition(t *testing.T) {
	cfg := Config{
		Seed:   11,
		Kind:   deploy.Public,
		Growth: workload.LinearGrowth(200, 1001, 2*time.Hour),
		Storms: []workload.DeadlineStorm{{
			Deadline: 3 * time.Hour, Ramp: time.Hour, PeakMult: 4, Tau: 20 * time.Minute,
		}},
		Duration: 4 * time.Hour,
		Scaler:   ScalerFixed,
		// A cap well above the window's warm fleet, so the shard caps
		// (a quarter each) do not clamp it.
		MaxPublicServers: 400,
	}
	if err := cfg.defaults(); err != nil {
		t.Fatal(err)
	}
	gen, err := genFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-12*want }
	for _, shards := range []int{2, 3, 8} {
		sharded := cfg
		sharded.Shards = shards
		gens := make([]*workload.Generator, shards)
		maxRate := 0.0
		for k := range gens {
			sub, _ := shardOf(sharded, nil, k)
			if gens[k], err = genFor(sub); err != nil {
				t.Fatal(err)
			}
			maxRate += gens[k].MaxRate()
		}
		if want := gen.MaxRate(); !near(maxRate, want) {
			t.Fatalf("K=%d: shard MaxRates sum to %v, unsharded %v", shards, maxRate, want)
		}
		for at := time.Duration(0); at <= cfg.Duration; at += 7 * time.Minute {
			rate := 0.0
			for _, g := range gens {
				rate += g.Rate(at)
			}
			if want := gen.Rate(at); !near(rate, want) {
				t.Fatalf("K=%d t=%v: shard rates sum to %v, unsharded %v", shards, at, rate, want)
			}
		}
	}

	// A 4-shard window over unequal shares (1001 students: 250, 250,
	// 250 and 251), so the warm fleet splits 9 + 9 + 9 + 10.
	cfg.Shards = 4
	win := desWindow{start: 2 * time.Hour, end: 2*time.Hour + 10*time.Minute, initServers: 36, backlog: 41}
	for k := 0; k < cfg.Shards; k++ {
		share := float64(shardSlice(cfg.Students, k, cfg.Shards)) / float64(cfg.Students)
		sub, w := shardOf(cfg, &win, k)
		r, err := runEngine(sub, w, cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		// The fixed fleet holds its opening size through the window.
		if got, want := r.Servers.Points()[0].Value, math.Ceil(36*share); got != want {
			t.Errorf("shard %d opened at %v servers, want ceil(36 x %.4f) = %v", k, got, share, want)
		}
		if got, want := float64(r.CarriedIn), math.Round(41*share); got != want {
			t.Errorf("shard %d seeded %v backlog jobs, want round(41 x %.4f) = %v", k, got, share, want)
		}
	}
}

// TestShardsShareOneAccessLine: a sharded run models one institution
// behind one access line, so a rural-DSL week reads the unsharded run's
// disconnects, availability and lost work at every shard count.
func TestShardsShareOneAccessLine(t *testing.T) {
	cfg := Config{
		Seed:     7,
		Students: 200,
		Access:   network.RuralDSL,
		Duration: 7 * 24 * time.Hour,
	}
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.Disconnects == 0 || want.LostWork == 0 {
		t.Fatalf("the week has no outage to share: %d disconnects, %v lost", want.Disconnects, want.LostWork)
	}
	for _, shards := range []int{2, 4, 8} {
		cfg.Shards = shards
		got, err := NewPool(2).Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.Disconnects != want.Disconnects || got.NetAvailability != want.NetAvailability || got.LostWork != want.LostWork {
			t.Errorf("shards=%d: %d disconnects, availability %v, lost work %v; unsharded %d, %v, %v",
				shards, got.Disconnects, got.NetAvailability, got.LostWork,
				want.Disconnects, want.NetAvailability, want.LostWork)
		}
	}
}
