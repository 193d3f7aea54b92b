// Package cost provides the accounting substrate: what each deployment
// model actually costs. Public clouds bill VM-hours, egress and
// storage; private clouds amortize capital hardware and pay for power,
// cooling, staff and maintenance ("the organization needs to provide
// adequate power, cooling, and general maintenance" — paper §IV.B);
// hybrids pay both plus the integration and consultancy overhead §IV.C
// warns about. A desktop baseline prices the pre-cloud computer-lab
// alternative for the paper's §III merit comparison.
//
// Entry points:
//
//   - Bill(Usage) is the single metering call: a scenario run
//     accumulates Usage (VM-hours by location, egress, storage, staff
//     time) and Bill turns it into an itemized Report; Report.Total and
//     PerStudentMonth are what the TCO artifacts (figure3, table7)
//     plot.
//   - rates.go is the 2013-era price book, one typed constant per
//     price: the public, private, hybrid-overhead and desktop prices,
//     and HoursPerMonth, the 730-hour month every monthly figure uses.
//     Other packages read only HoursPerMonth, EgressPerGB (the
//     migration model's export bill) and StudentsPerPC (the desktop
//     lab's update rollout).
//   - PurchaseMix models §IV.A's purchasing lever: AllOnDemandMix,
//     AllReservedMix and OptimizeReservedMix pick reserved-instance
//     coverage from a ranked VM-hours curve — the ablation table8
//     sweeps. BreakevenMonthlyHours is the closed-form crossover.
package cost
