// Package scenario binds every substrate into end-to-end experiments: a
// deployment model serving the e-learning workload over a network, with
// autoscaling, sessions, threats and cost accounting. It offers two
// fidelities:
//
//   - Run: full request-level discrete-event simulation, for experiments
//     where latency distributions and overload behavior matter (exam
//     spikes, network outages). Horizons of hours to a few days.
//   - FluidRun: a flow-level approximation that steps the arrival-rate
//     curve and integrates capacity, utilization and cost, for
//     semester-scale TCO and utilization studies where per-request
//     queueing is irrelevant.
//
// Both are deterministic given (seed, config).
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
