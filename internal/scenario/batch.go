package scenario

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"elearncloud/internal/sim"
)

// This file is the deterministic parallel batch runner. Experiments
// declare their scenario sets as named jobs, each a Config that
// Pool.Run runs at its own Fidelity, and a shared worker pool fans the
// jobs out across goroutines, together with each run's own fan-out
// (shard engines, hybrid windows). Determinism contract:
//
//   - A job's randomness is fixed when the job is declared: its RNG
//     streams are rooted at its own Config.Seed, which the caller sets
//     explicitly or, when left zero, is derived from the batch seed and
//     the job name via sim.SeedFor. Nothing about scheduling — worker
//     identity, worker count, completion order, which pool ran the job
//     — ever reaches a job's RNG. (Two jobs given identical configs and
//     the same explicit seed are identical runs; distinct names
//     decorrelate only derived seeds.)
//   - Jobs share no mutable state: every run builds its own engines,
//     fleets, topology and metrics.
//   - Results are collected in submission order and errors propagate
//     first-submitted-first, regardless of which worker ran a job or in
//     what order jobs finished.
//
// Together these make the batch output byte-identical to the serial path
// for any worker count and any pool sharing. Pool tokens gate only WHEN
// a job starts, never its RNG or its result slot.

// DefaultWorkers is the worker count used when a caller passes
// workers <= 0: one per available CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// SeedFor derives the RNG seed for a named job from a batch seed; see
// sim.SeedFor for the derivation rule.
func SeedFor(seed uint64, name string) uint64 { return sim.SeedFor(seed, name) }

// Pool is a shared, work-conserving worker pool: a weighted semaphore
// whose tokens span every batch and ForEach that runs on it, however
// deeply they nest. The goroutine that calls ForEach (or Batch.RunOn,
// or a Run that fans out) is itself the first worker and needs no
// token; each helper goroutine is recruited with one token, and a pool
// of workers holds workers-1 helper tokens, so global concurrency never
// exceeds workers no matter how many levels share the pool.
//
// Two properties follow from "callers always run their own jobs
// inline":
//
//   - Nesting cannot deadlock. A nested ForEach that finds every token
//     taken simply degrades to the serial path on its caller's
//     goroutine; it never blocks waiting for capacity.
//   - The pool is work-conserving. Tokens are not partitioned between
//     nesting levels: the moment any batch anywhere drains and releases
//     a token, any other batch with queued jobs recruits on it. A
//     caller that has dispatched all its indices and is merely waiting
//     for its helpers donates a token for the duration of the wait, so
//     even the waiting goroutine's core stays busy (see ForEach).
type Pool struct {
	// tokens carries free helper tokens. Capacity exceeds the steady
	// count (workers-1) so waiting callers can transiently donate their
	// own slot without blocking.
	tokens  chan struct{}
	workers int
}

// NewPool returns a pool enforcing a global concurrency cap of workers
// (<= 0 means DefaultWorkers). A one-worker pool has no helper tokens:
// everything on it runs serially on the calling goroutine, which is the
// reference path the determinism tests compare against.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	p := &Pool{tokens: make(chan struct{}, 2*workers), workers: workers}
	for i := 0; i < workers-1; i++ {
		p.tokens <- struct{}{}
	}
	return p
}

// acquire blocks until a helper token is free or ctx is done, and
// returns ctx.Err in the latter case. Every successful acquire must be
// paired with exactly one release.
func (p *Pool) acquire(ctx context.Context) error {
	select {
	case <-p.tokens:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release returns a token taken by acquire. Releasing more tokens than
// were acquired corrupts the concurrency cap, so an overfull pool
// panics.
func (p *Pool) release() {
	select {
	case p.tokens <- struct{}{}:
	default:
		panic("scenario: Pool.release without matching acquire")
	}
}

// donate parks one transient token for helpers to claim while the donor
// blocks. It is best-effort: a full pool means nobody is starved, so
// skipping the donation is fine.
func (p *Pool) donate() bool {
	select {
	case p.tokens <- struct{}{}:
		return true
	default:
		return false
	}
}

// ForEach runs fn(i) for every i in [0, n) on the pool and returns the
// first error in index order (not completion order). The calling
// goroutine always participates, pulling indices inline; a recruiter
// turns every token that frees up — here or in any other batch sharing
// the pool — into one more helper, up to n-1 of them. A nil pool runs
// on a one-off DefaultWorkers pool.
//
// After a failure at index i, only indices greater than i may be
// skipped — lower indices always run — so the reported error is the
// same one the serial path stops at, for every worker count. fn must
// confine its writes to per-index state (typically slot i of a results
// slice).
func (p *Pool) ForEach(n int, fn func(i int) error) error {
	if p == nil {
		p = NewPool(0)
	}
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	var minFailed atomic.Int64
	minFailed.Store(int64(n)) // sentinel: nothing failed yet
	run := func(i int) {
		// minFailed only ever decreases, so a skipped index is always
		// above the final minimum: the first-by-index failure is
		// guaranteed to have actually run.
		if int64(i) > minFailed.Load() {
			return
		}
		if err := fn(i); err != nil {
			errs[i] = err
			for {
				cur := minFailed.Load()
				if int64(i) >= cur || minFailed.CompareAndSwap(cur, int64(i)) {
					break
				}
			}
		}
	}

	idx := make(chan int, n)
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)

	var (
		helpers   sync.WaitGroup
		recruiter sync.WaitGroup
		spawned   atomic.Int64
	)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if p.workers > 1 && n > 1 {
		// Recruiter: converts freed tokens into helpers while indices
		// remain. It never gates the caller — with no token ever free,
		// the caller alone drains idx, which is the serial path.
		recruiter.Add(1)
		go func() {
			defer recruiter.Done()
			for spawned.Load() < int64(n-1) && len(idx) > 0 {
				if p.acquire(ctx) != nil {
					return
				}
				if ctx.Err() != nil || len(idx) == 0 {
					p.release() // token acquired after the work was gone
					return
				}
				spawned.Add(1)
				helpers.Add(1)
				go func() {
					defer helpers.Done()
					defer p.release()
					for i := range idx {
						run(i)
					}
				}()
			}
		}()
	}

	for i := range idx {
		run(i)
	}
	// All indices are dispatched. Stop recruiting first — otherwise our
	// own recruiter would grab the token we are about to donate — then
	// lend our slot to whoever still has work (an inner batch of one of
	// our helpers, or a sibling sharing the pool) while we block, and
	// reclaim it before returning so the cap stays exact.
	cancel()
	recruiter.Wait()
	donated := false
	if spawned.Load() > 0 {
		donated = p.donate()
	}
	helpers.Wait()
	if donated {
		_ = p.acquire(context.Background())
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// job is one named, independent scenario run within a batch.
type job struct {
	name string
	cfg  Config
}

// Batch accumulates named jobs and runs them on a Pool. The zero value
// is not usable; construct with NewBatch.
type Batch struct {
	seed uint64
	jobs []job
}

// NewBatch returns an empty batch. seed is the root for derived job
// seeds: jobs added with a zero Config.Seed run with
// SeedFor(seed, job name).
func NewBatch(seed uint64) *Batch { return &Batch{seed: seed} }

// Add queues a job that runs cfg at its Config.Fidelity, and returns
// the batch for chaining. Names must be unique within a batch, because
// they key result lookup and seed derivation.
func (b *Batch) Add(name string, cfg Config) *Batch {
	if cfg.Seed == 0 {
		cfg.Seed = SeedFor(b.seed, name)
	}
	b.jobs = append(b.jobs, job{name: name, cfg: cfg})
	return b
}

// RunOn runs every queued job through p.Run, in submission order. An
// empty or duplicate name fails before any job runs; otherwise the
// first-submitted failing job's error, wrapped with its name, is
// returned. The pool never affects the results, only how fast they
// arrive: an experiment handed the suite-wide pool runs its jobs (and
// their shard engines and hybrid windows) on the same tokens as every
// other level. A nil pool means one DefaultWorkers pool for the batch.
func (b *Batch) RunOn(p *Pool) (*BatchResults, error) {
	byName := make(map[string]int, len(b.jobs))
	for i, j := range b.jobs {
		if j.name == "" {
			return nil, fmt.Errorf("scenario: batch job with empty name")
		}
		if _, dup := byName[j.name]; dup {
			return nil, fmt.Errorf("scenario: duplicate batch job %q", j.name)
		}
		byName[j.name] = i
	}
	if p == nil {
		p = NewPool(0)
	}
	results := make([]*Result, len(b.jobs))
	err := p.ForEach(len(b.jobs), func(i int) error {
		r, err := p.Run(b.jobs[i].cfg)
		if err != nil {
			return fmt.Errorf("job %q: %w", b.jobs[i].name, err)
		}
		results[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &BatchResults{results: results, byName: byName}, nil
}

// BatchResults holds a batch's outcomes, addressable by submission order
// or by job name.
type BatchResults struct {
	results []*Result
	byName  map[string]int
}

// Result returns the named job's result, at whichever fidelity the job
// ran. It panics if the job does not exist — a programming error in the
// experiment declaring the batch.
func (r *BatchResults) Result(name string) *Result {
	i, ok := r.byName[name]
	if !ok {
		panic(fmt.Sprintf("scenario: no batch job named %q", name))
	}
	return r.results[i]
}
