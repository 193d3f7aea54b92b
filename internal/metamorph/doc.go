// Package metamorph is the metamorphic chaos fuzzer behind cmd/elfuzz:
// it generates random-but-seeded scenario configurations and checks
// *relations* between runs instead of golden outputs, so the simulator
// can be stressed by load shapes nobody thought to hand-write.
//
// The pieces:
//
//   - Families() is a registry of scenario distributions ("campus",
//     "mooc", "storm", "chaos"), each composing random workload shapes —
//     growth curves, deadline/join storms, timezone superpositions,
//     flash crowds, outages — with random deployment models and scaler
//     policies. Every choice is derived from sim.SeedFor, so any
//     generated case is a reproducible (family, seed) pair: Family.Case
//     is a pure function of the case seed.
//   - Invariants() is the metamorphic property suite CheckCase runs each
//     generated config through: more capacity never raises P95;
//     generated arrivals never exceed the workload Envelope() bound;
//     one determinism invariant runs the case at DES and auto fidelity
//     on a one-worker pool and again as jobs of a shared four-worker
//     batch, byte-identical both ways, with a sharded case's access
//     line, volume and tail held against its unsharded run; superposed
//     timezones never exceed the bounds of their parts; and the fluid
//     and auto fidelities agree with one request-level run within
//     tolerance on overlapping regimes.
//   - Minimize is the shrinker: on a violation it halves the horizon,
//     drops storm windows and reduces students — re-running the failing
//     invariant at every step — until no transformation keeps the
//     failure, leaving the smallest still-failing config. DescribeConfig
//     renders that config in a handful of lines and ReproCommand prints
//     the one-line command that regenerates and re-shrinks it.
//
// cmd/elfuzz is the CLI driver (fixed budget, one line per case,
// minimized repros); FuzzInvariants in this package is the native
// `go test` fuzz target seeded from the family corpus, giving tier-1
// runs smoke-depth coverage of the generator-level invariants.
package metamorph
