// Package network models the connectivity substrate between e-learning
// users and the datacenters that serve them: links with latency and
// bandwidth, multi-hop paths, and stochastic failure processes for the
// "stable Internet connections are often essential" risk the paper
// lists in §III (figure5 measures the lost-work consequence).
//
// The model is intentionally flow-level, not packet-level: a request
// experiences the sum of per-link latencies plus a size/bandwidth
// transfer term inflated by current link concurrency. That is the
// right fidelity for comparing deployment models, where what matters
// is WAN vs LAN latency, last-mile outages, and congestion — not TCP
// dynamics.
//
// Entry points:
//
//   - AccessProfile presets (CampusLAN, UrbanBroadband, RuralDSL) name
//     the three last-mile situations the experiments sweep; cmd/elsim
//     exposes them as -access.
//   - BuildTopology(engine, profile) assembles the user→datacenter
//     Topology for a scenario run from Links (NewLink: latency
//     distribution + bandwidth) joined into Paths (NewPath).
//   - NewFailureProcess(engine, rng, mtbf, mttr) drives a link's
//     up/down process on the virtual clock; a link with no process
//     attached never fails.
package network
