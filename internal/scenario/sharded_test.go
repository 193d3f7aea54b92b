package scenario

import (
	"reflect"
	"testing"
	"time"

	"elearncloud/internal/deploy"
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
