// Package scale provides the elasticity substrate: autoscaling
// policies that grow and shrink an application-server fleet in
// response to load. The paper credits cloud e-learning with "improved
// performance" and the public model with being the "quickest
// solution"; these scalers are the mechanism behind that claim, and
// table5 ablates them against a fixed fleet through an exam flash
// crowd (figure4 shows the utilization consequence of not scaling).
//
// Entry points: an Autoscaler observes a Target (the fleet's current
// size and load — the scenario package's cluster satisfies it) and
// decides the next fleet size. Three policies are provided; the
// non-elastic baseline, a fleet sized once, runs no scaler at all:
//
//   - NewReactive — follow measured utilization up and down with
//     configurable headroom and cooldown (ReactiveConfig).
//   - NewScheduled — a clock-driven plan (capacity by time of day),
//     the "we know when lectures are" policy.
//   - NewPredictive — trend extrapolation with a reactive fallback
//     (PredictiveConfig); it provisions ahead of the ramp but still
//     overshoots a cliff-shaped crowd, which table5 makes visible.
//
// Scalers only decide sizes; provisioning latency and cost live in
// cloud and cost.
package scale
