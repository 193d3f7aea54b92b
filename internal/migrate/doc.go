// Package migrate models the paper's portability risk: "the ability to
// bring systems back in-house or choose another cloud provider will be
// limited by proprietary interfaces" (§III), §IV.A's warning that
// repatriating a public-cloud system is "relatively difficult and
// expensive", and §IV.C's claim that the hybrid model "provides an
// ease for bringing the e-learning system back in-house or
// transferring to another cloud provider by decreasing platform
// dependence".
//
// A migration has three cost drivers: re-engineering the components
// that were written against proprietary interfaces, paying egress to
// move the data out, and the cutover freeze while the switch happens.
// All three scale with the lock-in index, which is the quantity
// figure7 sweeps (examples/migration walks one repatriation
// end-to-end).
//
// Entry points: describe where the institution stands as a
// LockinProfile (lock-in index and data volume);
// NewPlan validates it and prices it at the 2013 consulting, bandwidth
// and egress prices into a Plan, and Execute runs the Plan on a
// sim.Engine — the phases advance on the virtual clock and the done
// callback receives the Result (cost breakdown, calendar time,
// downtime). Plan costing alone needs no engine; Execute exists
// so migrations can overlap live traffic in a scenario run.
package migrate
