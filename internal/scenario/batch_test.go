package scenario

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"elearncloud/internal/deploy"
	"elearncloud/internal/workload"
)

// smallCfg is a fast request-level scenario for batch tests.
func smallCfg(seed uint64, kind deploy.Kind) Config {
	return Config{
		Seed:              seed,
		Kind:              kind,
		Students:          60,
		ReqPerStudentHour: 20,
		Duration:          30 * time.Minute,
		Diurnal:           workload.FlatDiurnal(),
	}
}

// fingerprint reduces a Result to a string that captures every field an
// experiment renders, so byte-equality of fingerprints means
// byte-equality of any table built from the result.
func fingerprint(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "kind=%v scaler=%v served=%d rejected=%d offline=%d viol=%d",
		r.Kind, r.Scaler, r.Served, r.Rejected, r.Offline, r.PolicyViolations)
	fmt.Fprintf(&b, " p50=%v p95=%v p99=%v", r.Latency.P50(), r.Latency.P95(), r.Latency.P99())
	fmt.Fprintf(&b, " peak=%d vmpub=%v vmpriv=%v egress=%v cost=%v",
		r.PeakServers, r.VMHoursPublic, r.VMHoursPrivate, r.EgressGB, r.Cost.Total())
	for _, p := range r.Servers.Points() {
		fmt.Fprintf(&b, " s(%v)=%v", p.At, p.Value)
	}
	for _, p := range r.P95Series.Points() {
		fmt.Fprintf(&b, " p(%v)=%v", p.At, p.Value)
	}
	return b.String()
}

// batchOf queues jobs on a fresh batch, in order.
func batchOf(jobs ...job) *Batch {
	b := NewBatch(1)
	for _, j := range jobs {
		b.Add(j.name, j.cfg)
	}
	return b
}

// at returns cfg set to run at fidelity f.
func at(cfg Config, f Fidelity) Config {
	cfg.Fidelity = f
	return cfg
}

// TestBatchWorkerCountDeterminism is the heart of the determinism
// contract: the same jobs produce byte-identical results whether run
// serially or on a pool, in every collection slot.
func TestBatchWorkerCountDeterminism(t *testing.T) {
	t.Parallel()
	b := batchOf(
		job{"public", smallCfg(11, deploy.Public)},
		job{"private", smallCfg(11, deploy.Private)},
		job{"hybrid", smallCfg(11, deploy.Hybrid)},
		job{"public-fluid", at(smallCfg(11, deploy.Public), FidelityFluid)},
		job{"desktop", smallCfg(11, deploy.Desktop)},
	)
	serial, err := b.RunOn(NewPool(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 16} {
		par, err := b.RunOn(NewPool(workers))
		if err != nil {
			t.Fatal(err)
		}
		if len(par.results) != len(serial.results) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(par.results), len(serial.results))
		}
		for i, j := range b.jobs {
			if par.Result(j.name) != par.results[i] {
				t.Fatalf("workers=%d: %q does not name slot %d (submission order broken)", workers, j.name, i)
			}
			got, want := fingerprint(par.results[i]), fingerprint(serial.results[i])
			if got != want {
				t.Fatalf("workers=%d job %q diverged:\n got %s\nwant %s", workers, j.name, got, want)
			}
		}
	}
}

// TestBatchMixedFidelityDeterminism: one batch mixing every fidelity —
// DES, fluid, auto with real burst windows, and sharded DES and auto
// runs whose engines fan out on the batch's own pool — is identical
// field for field on pools of 1 and 4 workers, and each job ran at its
// own fidelity.
func TestBatchMixedFidelityDeterminism(t *testing.T) {
	t.Parallel()
	storm := stormyCfg(17)
	storm.Students = 300
	sharded := smallCfg(11, deploy.Hybrid)
	sharded.Shards = 3
	shardedStorm := storm
	shardedStorm.Shards = 2
	b := batchOf(
		job{"des", smallCfg(11, deploy.Public)},
		job{"fluid", at(smallCfg(11, deploy.Public), FidelityFluid)},
		job{"auto", at(storm, FidelityAuto)},
		job{"sharded", sharded},
		job{"auto-sharded", at(shardedStorm, FidelityAuto)},
	)
	serial, err := b.RunOn(NewPool(1))
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := b.RunOn(NewPool(4))
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range b.jobs {
		if !reflect.DeepEqual(serial.results[i], pooled.results[i]) {
			t.Fatalf("job %q differs between 1 and 4 workers:\n 1: %s\n 4: %s",
				j.name, fingerprint(serial.results[i]), fingerprint(pooled.results[i]))
		}
	}
	if r := serial.Result("des"); r.Events == 0 || r.FluidSimHours != 0 || r.Shards != 0 {
		t.Errorf("des job: %d events, %v fluid hours, %d shards", r.Events, r.FluidSimHours, r.Shards)
	}
	if r := serial.Result("fluid"); r.Events != 0 || r.FluidSimHours != r.Duration.Hours() {
		t.Errorf("fluid job: %d events, %v fluid hours", r.Events, r.FluidSimHours)
	}
	for _, name := range []string{"auto", "auto-sharded"} {
		if r := serial.Result(name); r.DESSimHours == 0 || r.FluidSimHours == 0 {
			t.Errorf("%s job: %v DES hours, %v fluid hours, want both", name, r.DESSimHours, r.FluidSimHours)
		}
	}
	if r := serial.Result("sharded"); r.Shards != 3 || len(r.ShardEvents) != 3 {
		t.Errorf("sharded job: Shards = %d, ShardEvents = %v", r.Shards, r.ShardEvents)
	}
	if a, s := serial.Result("auto"), serial.Result("auto-sharded"); a.Events == s.Events {
		t.Errorf("auto windows ignored Shards: %d events either way", a.Events)
	}
}

// TestBatchFirstErrorWins: the reported error is the first-submitted
// failure, not whichever worker failed first.
func TestBatchFirstErrorWins(t *testing.T) {
	t.Parallel()
	bad := smallCfg(11, deploy.Public)
	bad.Students = 0 // invalid: Run rejects it
	b := batchOf(
		job{"ok-0", smallCfg(11, deploy.Public)},
		job{"bad-1", bad},
		job{"ok-2", smallCfg(11, deploy.Private)},
		job{"bad-3", bad},
	)
	for _, workers := range []int{1, 4} {
		_, err := b.RunOn(NewPool(workers))
		if err == nil {
			t.Fatalf("workers=%d: invalid job accepted", workers)
		}
		if !strings.Contains(err.Error(), `"bad-1"`) {
			t.Fatalf("workers=%d: err = %v, want first-submitted job bad-1", workers, err)
		}
	}
}

// TestBatchRejectsBadNames: empty and duplicate names break result
// addressing and seed derivation, so the batch refuses them up front.
func TestBatchRejectsBadNames(t *testing.T) {
	t.Parallel()
	if _, err := batchOf(job{"", smallCfg(1, deploy.Public)}).RunOn(NewPool(1)); err == nil {
		t.Fatal("empty job name accepted")
	}
	dup := batchOf(
		job{"x", smallCfg(1, deploy.Public)},
		job{"x", smallCfg(1, deploy.Private)},
	)
	if _, err := dup.RunOn(NewPool(4)); err == nil {
		t.Fatal("duplicate job name accepted")
	}
}

// TestBatchSeedDerivation: jobs added without a seed get one derived
// from (batch seed, job name); explicit seeds are left alone.
func TestBatchSeedDerivation(t *testing.T) {
	t.Parallel()
	cfg := smallCfg(0, deploy.Public) // zero seed: derive
	b := NewBatch(7).Add("a", cfg).Add("b", cfg)
	if len(b.jobs) != 2 {
		t.Fatalf("jobs = %d", len(b.jobs))
	}
	if got, want := b.jobs[0].cfg.Seed, SeedFor(7, "a"); got != want {
		t.Fatalf("derived seed = %d, want SeedFor(7, a) = %d", got, want)
	}
	if b.jobs[0].cfg.Seed == b.jobs[1].cfg.Seed {
		t.Fatal("distinct job names derived the same seed")
	}
	explicit := smallCfg(42, deploy.Public)
	b2 := NewBatch(7).Add("a", explicit)
	if b2.jobs[0].cfg.Seed != 42 {
		t.Fatalf("explicit seed overwritten: %d", b2.jobs[0].cfg.Seed)
	}
}

// TestBatchResultLookup: results are reachable by name at the job's
// fidelity, and a missing name panics loudly.
func TestBatchResultLookup(t *testing.T) {
	t.Parallel()
	cfg := smallCfg(11, deploy.Public)
	b := NewBatch(11).
		Add("des", cfg).
		Add("fluid", at(cfg, FidelityFluid))
	res, err := b.RunOn(NewPool(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Result("des").Served == 0 {
		t.Fatal("DES job served nothing")
	}
	if res.Result("fluid").Cost.Total() <= 0 {
		t.Fatal("fluid job billed nothing")
	}
	if fluid := res.Result("fluid"); fluid.FluidSimHours != cfg.Duration.Hours() || fluid.Events != 0 {
		t.Fatalf("fluid job ran at the wrong fidelity: %v fluid hours, %d events", fluid.FluidSimHours, fluid.Events)
	}
	if len(res.results) != 2 || res.results[0] != res.Result("des") {
		t.Fatalf("submission order wrong: %d results", len(res.results))
	}
	expectPanic(t, func() { res.Result("missing") })
}

// TestPoolSerializesNestedBatches: a one-worker pool has no helper
// tokens, so nested ForEach levels all run inline on the calling
// goroutine — strictly one job at a time, with no deadlock. This is the
// property that makes nesting on a shared pool safe at all: a level
// that finds no free token degrades to the serial path instead of
// blocking on capacity it can never get.
func TestPoolSerializesNestedBatches(t *testing.T) {
	t.Parallel()
	ran, peak := runNested(t, NewPool(1))
	if ran != 12 {
		t.Fatalf("ran %d of 12 nested jobs", ran)
	}
	if peak != 1 {
		t.Fatalf("1-worker pool ran %d jobs concurrently", peak)
	}
}

// TestPoolCapHoldsUnderNesting: on a multi-worker pool, nested levels
// share one cap, so however the tokens move between the outer batch,
// the inner batches and the donors, no more than workers jobs ever run
// at once.
func TestPoolCapHoldsUnderNesting(t *testing.T) {
	t.Parallel()
	for _, workers := range []int{2, 4} {
		ran, peak := runNested(t, NewPool(workers))
		if ran != 12 {
			t.Fatalf("workers=%d: ran %d of 12 nested jobs", workers, ran)
		}
		if peak > int64(workers) {
			t.Fatalf("workers=%d: %d jobs ran concurrently", workers, peak)
		}
	}
}

// runNested runs an outer ForEach(3) around an inner ForEach(4) on p,
// each inner job sleeping briefly, and returns how many inner jobs ran
// and the most that were ever running at once.
func runNested(t *testing.T, p *Pool) (ran, peak int64) {
	t.Helper()
	var active, maxActive, done atomic.Int64
	err := p.ForEach(3, func(i int) error {
		return p.ForEach(4, func(j int) error {
			a := active.Add(1)
			defer active.Add(-1)
			for {
				m := maxActive.Load()
				if a <= m || maxActive.CompareAndSwap(m, a) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			done.Add(1)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	return done.Load(), maxActive.Load()
}

// TestPoolWorkConservingHandoff is the starvation/fairness test for the
// shared pool: when the outer level drains, its freed slot must reach a
// still-running inner batch. A two-worker pool runs two outer jobs; one
// returns immediately, the other nests a two-job batch whose jobs each
// block until both are running. Only a pool that hands the drained
// outer slot to the inner level can satisfy that barrier — a static
// outer/inner split (the old SplitBudget) would starve the second inner
// job forever.
func TestPoolWorkConservingHandoff(t *testing.T) {
	t.Parallel()
	p := NewPool(2)
	bothRunning := make(chan struct{})
	var running atomic.Int64
	err := p.ForEach(2, func(i int) error {
		if i == 0 {
			return nil // drains immediately, freeing an outer slot
		}
		return p.ForEach(2, func(j int) error {
			if running.Add(1) == 2 {
				close(bothRunning)
			}
			select {
			case <-bothRunning:
				return nil
			case <-time.After(10 * time.Second):
				return fmt.Errorf("inner job %d starved: the freed outer slot never reached the inner batch", j)
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPoolNestedBatchDeterminism: sharing one pool across nesting
// levels — the elbench topology — must not change a single byte of any
// result relative to the fully serial path, for any worker count.
func TestPoolNestedBatchDeterminism(t *testing.T) {
	t.Parallel()
	groups := []*Batch{
		batchOf(
			job{"public", smallCfg(11, deploy.Public)},
			job{"private", smallCfg(11, deploy.Private)},
		),
		batchOf(
			job{"hybrid", smallCfg(11, deploy.Hybrid)},
			job{"desktop", smallCfg(11, deploy.Desktop)},
			job{"public-fluid", at(smallCfg(11, deploy.Public), FidelityFluid)},
		),
	}
	render := func(workers int) []string {
		t.Helper()
		p := NewPool(workers)
		out := make([]string, len(groups))
		err := p.ForEach(len(groups), func(g int) error {
			res, err := groups[g].RunOn(p) // nested on the same pool
			if err != nil {
				return err
			}
			var b strings.Builder
			for i, j := range groups[g].jobs {
				fmt.Fprintf(&b, "%s: %s\n", j.name, fingerprint(res.results[i]))
			}
			out[g] = b.String()
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return out
	}
	serial := render(1)
	for _, workers := range []int{2, 4, 16} {
		got := render(workers)
		for g := range groups {
			if got[g] != serial[g] {
				t.Fatalf("workers=%d group %d diverged from serial:\n got %s\nwant %s",
					workers, g, got[g], serial[g])
			}
		}
	}
}

// TestPoolAcquireRelease: the pool's semaphore — a pool holds exactly
// workers-1 helper tokens, context cancellation unblocks acquire, and
// tokens round-trip.
func TestPoolAcquireRelease(t *testing.T) {
	t.Parallel()
	p := NewPool(3) // two helper tokens
	ctx := context.Background()
	if err := p.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if err := p.acquire(ctx); err != nil {
		t.Fatal("second helper token not available:", err)
	}
	if n := len(p.tokens); n != 0 {
		t.Fatalf("%d helper tokens left after taking workers-1", n)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if err := p.acquire(cancelled); err == nil {
		t.Fatal("acquire on an empty pool ignored context cancellation")
	}
	p.release()
	p.release()
	if p.workers != 3 {
		t.Fatalf("workers = %d, want 3", p.workers)
	}
	if got := NewPool(0).workers; got != DefaultWorkers() {
		t.Fatalf("NewPool(0) workers = %d, want DefaultWorkers() = %d", got, DefaultWorkers())
	}
}

func expectPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}

// TestForEachSkipsAfterFailure: remaining indices are abandoned once a
// job fails, but the first error by index still wins.
func TestForEachSkipsAfterFailure(t *testing.T) {
	t.Parallel()
	var ran [8]bool
	err := NewPool(1).ForEach(8, func(i int) error {
		ran[i] = true
		if i == 2 {
			return fmt.Errorf("boom at %d", i)
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "boom at 2") {
		t.Fatalf("err = %v", err)
	}
	if ran[3] || ran[7] {
		t.Fatal("serial ForEach kept running after a failure")
	}
	if err := NewPool(4).ForEach(0, func(int) error { return fmt.Errorf("never") }); err != nil {
		t.Fatalf("empty ForEach returned %v", err)
	}
}
