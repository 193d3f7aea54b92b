// Package deploy describes the three cloud deployment models the paper
// compares — public, private and hybrid — plus the on-premise desktop
// baseline its Section III merits are measured against. It is the one
// place that knows how a deployment is sized: the 60% utilization
// target, the one rented flavor, the campus host shape, the hybrid
// "distribution of units" policy, and a builder that turns a
// declarative Spec into running datacenters on a simulation engine.
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
//     that Kind gets, with the rented m.large flavor on the public side
//     and a VM of the same shape on campus hosts. Run paths, bills and
//     the federation study all size through Size.
//   - Place(kind, policy) says where a model keeps its assets.
//     DefaultHybridPolicy is §IV.C's "distribution of units": which
//     request classes stay on the private side and which burst to
//     public, the policy table4 ablates.
//
// Prices live in package cost: cost.DefaultPublicRates prices the rented
// flavor, its egress and storage at 2013 list prices.
package deploy
