// Package security models the threat side of the paper's comparison:
// the §III risk that "many organizations feel insecure ... storing
// their data and applications on systems that they do not have full
// control", §IV.A's "migrating workloads to a shared infrastructure
// increases the potential for unauthorized access and exposure", and
// §IV.B's "risk of data loss due to physical damage of the unit" for
// on-premise hardware. figure6 (incidents over ten years) and figure9
// (physical damage to the on-premise unit) are its artifacts.
//
// The model is stochastic but simple by design: remote attacks arrive
// as a Poisson process and succeed with a per-location probability;
// physical damage to owned hardware arrives with a configured MTBF and
// destroys a fraction of locally stored data unless an off-site backup
// exists. What the experiments compare is the *ordering and scaling*
// of incident counts across deployment models, which is exactly the
// argument the paper makes qualitatively.
//
// Entry points: ConfigFor(kind) yields the per-deployment-model threat
// Config (attack surface and backup posture differ by model;
// DefaultConfig is the neutral base). NewThreatModel(engine, config,
// assets) arms the model against an lms.Inventory on the
// simulation clock; it emits Incidents (IncidentKind: breach,
// exposure, data loss) that the scenario run counts and the artifacts
// aggregate. scenario.Config.EnableThreats is the usual switch.
package security
