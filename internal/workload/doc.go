// Package workload generates realistic e-learning traffic: diurnal
// day-shapes, a semester calendar with teaching/exam/vacation weeks,
// exam-day flash crowds, and a non-homogeneous Poisson arrival process
// over the lms request mix. figure1 plots the shapes; every scenario
// run consumes them.
//
// Entry points:
//
//   - NewGenerator(Config) is the main faucet: it drives a
//     sim NHPP whose rate is the product of the configured
//     DiurnalProfile (CampusDiurnal, FlatDiurnal, or a custom
//     NewDiurnalProfile), the Calendar week kind, and any FlashCrowd
//     windows, and yields an ArrivalStream of Arrivals classified by
//     the lms Mix.
//   - StandardSemester() is the 18-week Calendar (NewCalendar of Weeks
//     for custom terms) behind the semester-scale studies; WeekKind
//     distinguishes teaching, exam and vacation load.
//   - FlashCrowd describes an exam spike (start, end, multiplier,
//     exam-heavy traffic flag) — the §IV.A scalability stressor
//     table5, figure2 and examples/examday inject.
//   - The MOOC-scale family (mooc.go) models courses that outgrow a
//     campus: LogisticGrowth / LinearGrowth make the active population
//     a curve instead of a constant (Config.Growth),
//     SuperposeTimezones / GlobalCohort build the flattened day shape
//     of a multi-timezone cohort (plugs into Config.Diurnal), and
//     DeadlineStorm / JoinStorm (Config.Storms, Config.Joins) are the
//     procrastination ramp with a submission cliff and the
//     near-simultaneous lecture join rush. Generator.Envelope exposes
//     the piecewise thinning bound that keeps generation O(arrivals)
//     on those nonstationary shapes (BenchmarkMOOCAcceptance pins the
//     acceptance rate at 10^5 students); table9, figure10 and
//     examples/mooc consume them.
package workload
