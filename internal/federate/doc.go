// Package federate models a national shared private cloud: several
// institutions pooling one government-operated datacenter instead of
// each running its own. The paper's §IV.C notes the hybrid model
// "provides an environment to build a national private cloud system",
// and §V predicts "governments will eventually start installing and
// using such systems in schools and colleges". table7 and
// examples/federation are this package's artifacts.
//
// The economics come from two effects this package quantifies:
//
//  1. Statistical multiplexing — exam peaks do not coincide, so the
//     peak of the summed load is far below the sum of individual peaks.
//     Members stagger exam calendars; the federation sizes hardware for
//     the blended peak.
//  2. Operational pooling — one professional operations team amortizes
//     across every member, replacing N × minimum-admin floors.
//
// The single entry point is Study(Config): describe the Members (name,
// student population, calendar shift in weeks) and it returns a Result
// — federated vs. standalone hardware peaks, cost per member
// (MemberOutcome, billed by usage share), and the savings each effect
// contributes. Study is deterministic and analytic over the workload
// calendar; it needs no discrete-event run. Every fleet, shared or
// standalone, is sized by deploy.Size as a private deployment.
package federate
