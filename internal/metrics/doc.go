// Package metrics provides the measurement substrate for elearncloud
// simulations: latency histograms with percentile queries, time
// series, an availability tracker, and plain-text/CSV table
// rendering used by the benchmark harness to print the paper's tables
// and figures.
//
// Entry points:
//
//   - Histogram (NewHistogram; DefaultLatency for the standard
//     request-latency bucketing) records samples into geometric
//     buckets and answers Summarize → Summary (P50/P95/P99/Max — the
//     figure2 columns); ExactQuantile is the unbucketed reference the
//     histogram's tests check its quantiles against.
//   - TimeSeries (of Point) and Availability accumulate the windowed
//     and uptime views a scenario run reports.
//   - Table (NewTable → AddRow / AddNote → String or CSV) is the one
//     renderer every artifact goes through: aligned plain text for the
//     golden store, CSV under elbench -csv. Byte-stability of
//     Table.String is what the whole golden-verify machinery leans on,
//     so changes here are output drift by definition.
//   - Fmt, FmtMillis, FmtPercent, FmtDollars are the shared formatters
//     that keep units consistent across artifacts and CLIs.
//
// Everything in the package is deterministic and allocation-light; no
// substrate imports anything above sim.
package metrics
