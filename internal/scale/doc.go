// Package scale provides the elasticity substrate: autoscaling
// policies that grow and shrink an application-server fleet. The paper
// credits cloud e-learning with "improved performance" and the public
// model with being the "quickest solution"; these scalers are the
// mechanism behind that claim, and table5 ablates them against a fixed
// fleet through an exam flash crowd (figure4 shows the utilization
// consequence of not scaling).
//
// Every scaler drives a Target (the fleet's size, load and arrival
// count — the scenario package's fleet satisfies it) between a floor
// and a ceiling, and its Start method runs it on a sim.Engine and
// returns a stop function. The control-loop values are package
// constants, one set per policy; constructors take only the target, the
// fleet bounds and what the caller alone knows. Four policies are
// provided; the non-elastic baseline, a fleet sized once, runs no
// scaler at all:
//
//   - NewReactive — follow measured load per server: scale out a step
//     when it runs hot, at most once per cooldown, and in by one server
//     when it runs cold.
//   - NewPredictive — Holt trend extrapolation of the metered arrival
//     rate, sized Lead ahead through deploy.ServersForPeak; it boots
//     ahead of a ramp and has no fallback.
//   - NewGrowthFit — fit the logistic and linear growth shapes online to
//     the same metered arrival rate and provision for the projection
//     Lead ahead, sized the same way; until the fit stabilizes it runs
//     the reactive loop verbatim.
//   - NewPlanned — follow a plan of the fleet needed at each virtual
//     time, provisioning for the largest need within a lead. The
//     scenario runs it as the scheduled policy (a diurnal and calendar
//     timetable with lead 0) and as the oracle (the true demand curve,
//     Lead ahead).
//
// Scalers only decide sizes; provisioning latency and cost live in
// cloud and cost.
package scale
