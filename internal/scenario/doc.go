// Package scenario binds every substrate into end-to-end experiments: a
// deployment model serving the e-learning workload over a network, with
// autoscaling, sessions, threats and cost accounting. It has one entry
// point, Pool.Run (Run is Pool.Run on a nil pool), which defaults a
// Config, runs it at its Config.Fidelity, bills the Result once and
// audits its request ledger (Result.Audit):
//
//   - FidelityDES (the default): full request-level discrete-event
//     simulation, for experiments where latency distributions and
//     overload behavior matter (exam spikes, network outages). Horizons
//     of hours to a few days. Config.Shards splits the engine into K
//     per-shard engines on the pool, each the run at its share of the
//     demand behind one shared access line (sharded.go); K ≤ 1 is one
//     engine.
//   - FidelityFluid: a flow-level model that steps the arrival-rate
//     curve a minute at a time through the same fleets, for
//     semester-scale TCO and utilization studies where per-request
//     queueing is irrelevant. The configured autoscaler drives its
//     public fleet on an engine of its own, with the same bounds, boot
//     lag, request mix and routing as a request-level run (fluid.go).
//     Its Result has no latency samples. It is the FidelityAuto path
//     with no windows.
//   - FidelityAuto: fluid integration through the quiet stretches and
//     request-level windows (sharded like FidelityDES) through the
//     bursts, stitched at the seams (hybrid.go).
//
// PlanFidelity reports the windows FidelityAuto would open, and
// HybridSpotCheck runs one of them alone: the one run path besides
// Pool.Run, because it runs one window of a plan rather than a config.
//
// Every request-level path runs through one function, runEngine in
// runner.go, and every fleet size, host count and asset placement comes
// from internal/deploy's one rule. Every fidelity is deterministic
// given (seed, config).
//
// The package also hosts the deterministic parallel batch runner
// (batch.go): experiments declare independent scenario executions as
// named jobs on a Batch, and a shared, work-conserving Pool fans them
// out across goroutines. A job's randomness is fixed when it is
// declared — its RNG streams root at its own Config.Seed, derived via
// SeedFor(batch seed, job name) when left zero — so worker count, pool
// sharing and completion order can never change a result, only how fast
// it arrives. One Pool may span arbitrarily nested batches (the
// cmd/elbench suite loop and every experiment's internal batch share
// one); tokens freed by a drained level are immediately claimed by any
// other. See ARCHITECTURE.md for the token-flow diagram.
package scenario
