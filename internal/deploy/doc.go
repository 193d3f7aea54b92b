// Package deploy describes the three cloud deployment models the paper
// compares — public, private and hybrid — plus the on-premise desktop
// baseline its Section III merits are measured against. It is the one
// place that knows how a deployment is sized: the 60% utilization
// target, each side's boot delay, the hybrid "distribution of units"
// policy, and a builder that turns a declarative Spec into running
// datacenters on a simulation engine.
//
// Entry points:
//
//   - Kind enumerates the models (Public, Private, Hybrid, Desktop;
//     Kinds() in presentation order) and is the axis every comparison
//     artifact sweeps.
//   - ServersForPeak(peakRPS, meanSvc) is the only conversion from a
//     request rate to a server count, at TargetUtil. The fluid model,
//     the scheduled, oracle and growth-fit scalers and the metamorph
//     harness all call it.
//   - Size(Spec) works out a deployment's capacity plan (peak servers,
//     fixed private fleet, owned hosts) without an engine; Build(engine,
//     Spec) provisions that plan as the cloud.Datacenter set a model of
//     that Kind gets. Every VM has the rented m.large flavor's shape,
//     so owned hosts are cloud.VMsPerHost slots each; a campus VM boots
//     faster than a rented one (PublicBoot is the rented mean). Run
//     paths, bills and the federation study all size through Size.
//   - Place(kind) says where a model keeps its assets; a hybrid
//     always keeps its sensitive ones in-house. HybridPolicy is §IV.C's
//     "distribution of units": the share of steady capacity that stays
//     on the private side while the rest and every burst go public,
//     the policy table4 ablates (DefaultHybridPolicy keeps half).
//
// Prices live in package cost: its 2013 price book prices the rented
// flavor, its egress and storage at list prices.
package deploy
