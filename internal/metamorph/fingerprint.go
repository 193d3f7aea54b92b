package metamorph

import (
	"crypto/sha256"
	"fmt"
	"strconv"
	"strings"
	"time"

	"elearncloud/internal/deploy"
	"elearncloud/internal/metrics"
	"elearncloud/internal/scenario"
)

// Fingerprint renders every observable field of a result into a stable
// multi-line string. Two runs are "byte-identical" for the parallelism
// invariant exactly when their fingerprints are equal; on a mismatch
// the differing line names the field that drifted.
func Fingerprint(r *scenario.Result) string {
	var b strings.Builder
	line := func(name string, v float64) {
		fmt.Fprintf(&b, "%s=%s\n", name, strconv.FormatFloat(v, 'g', -1, 64))
	}
	fmt.Fprintf(&b, "kind=%v scaler=%v duration=%v\n", r.Kind, r.Scaler, r.Duration)
	fmt.Fprintf(&b, "served=%d rejected=%d offline=%d violations=%d killed=%d\n",
		r.Served, r.Rejected, r.Offline, r.PolicyViolations, r.KilledJobs)
	fmt.Fprintf(&b, "arrivals=%d inFlight=%d carriedIn=%d\n", r.Arrivals, r.InFlight, r.CarriedIn)
	fmt.Fprintf(&b, "latency.count=%d\n", r.Latency.Count())
	line("latency.sum", r.Latency.Sum())
	line("latency.p50", r.Latency.P50())
	line("latency.p95", r.Latency.P95())
	line("latency.max", r.Latency.Max())
	fmt.Fprintf(&b, "peakServers=%d privateHosts=%d\n", r.PeakServers, r.PrivateHosts)
	line("vmHoursPublic", r.VMHoursPublic)
	line("vmHoursPrivate", r.VMHoursPrivate)
	line("egressGB", r.EgressGB)
	line("cdnGB", r.CDNGB)
	line("cdnHitRatio", r.CDNHitRatio)
	fmt.Fprintf(&b, "lostWork=%v disconnects=%d\n", r.LostWork, r.Disconnects)
	line("netAvailability", r.NetAvailability)
	fmt.Fprintf(&b, "breaches=%d exposures=%d dataLoss=%d\n",
		r.Breaches, r.SensitiveExposures, r.DataLossEvents)
	line("bytesLost", r.BytesLost)
	fmt.Fprintf(&b, "events=%d shards=%d shardEvents=%v\n", r.Events, r.Shards, r.ShardEvents)
	line("fluidSimHours", r.FluidSimHours)
	line("desSimHours", r.DESSimHours)
	fmt.Fprintf(&b, "cost=%+v\n", r.Cost)
	fmt.Fprintf(&b, "servers=%s\n", seriesSig(r.Servers))
	fmt.Fprintf(&b, "utilization=%s\n", seriesSig(r.Utilization))
	fmt.Fprintf(&b, "p95series=%s\n", seriesSig(r.P95Series))
	return b.String()
}

// seriesSig digests a time series into "len:sha256-prefix" so the
// fingerprint stays short while still pinning every sample.
func seriesSig(ts *metrics.TimeSeries) string {
	if ts == nil {
		return "nil"
	}
	h := sha256.New()
	for _, p := range ts.Points() {
		fmt.Fprintf(h, "%d %s\n", p.At, strconv.FormatFloat(p.Value, 'g', -1, 64))
	}
	return fmt.Sprintf("%d:%x", ts.Len(), h.Sum(nil)[:8])
}

// DescribeConfig renders a config as a handful of compact lines — the
// repro the minimizer prints. Defaults are omitted, so a shrunk config
// reads as just the load shape that still fails.
func DescribeConfig(cfg scenario.Config) []string {
	var lines []string
	head := fmt.Sprintf("kind=%v students=%d", cfg.Kind, cfg.Students)
	if cfg.Growth != nil {
		head = fmt.Sprintf("kind=%v growth=%v", cfg.Kind, cfg.Growth)
	}
	if cfg.ReqPerStudentHour != 0 {
		head += fmt.Sprintf(" req/h=%g", cfg.ReqPerStudentHour)
	}
	if cfg.Seed != 0 {
		head += fmt.Sprintf(" seed=%#x", cfg.Seed)
	}
	lines = append(lines, head)

	run := fmt.Sprintf("duration=%v scaler=%v", cfg.Duration, cfg.Scaler)
	if cfg.Diurnal != nil {
		run += fmt.Sprintf(" diurnal(peak=%.2f)", cfg.Diurnal.Peak())
	}
	if cfg.MaxPublicServers != 0 {
		run += fmt.Sprintf(" maxPublic=%d", cfg.MaxPublicServers)
	}
	if cfg.Shards > 1 {
		run += fmt.Sprintf(" shards=%d", cfg.Shards)
	}
	lines = append(lines, run)

	for _, s := range cfg.Storms {
		lines = append(lines, fmt.Sprintf("storm deadline=%v ramp=%v peak=%gx exam=%v",
			s.Deadline, s.Ramp, s.PeakMult, s.ExamTraffic))
	}
	for _, j := range cfg.Joins {
		lines = append(lines, fmt.Sprintf("join start=%v window=%v peak=%gx",
			j.Start, j.Window, j.PeakMult))
	}
	for _, c := range cfg.Crowds {
		lines = append(lines, fmt.Sprintf("crowd %v-%v %gx exam=%v",
			c.Start, c.End, c.Mult, c.ExamTraffic))
	}

	var opts []string
	if cfg.Kind != deploy.Public && cfg.HostFailureAt > 0 {
		opts = append(opts, fmt.Sprintf("hostFailure=%v+%v", cfg.HostFailureAt, cfg.HostRecoveryAfter))
	}
	if cfg.EnableThreats {
		opts = append(opts, "threats")
	}
	if cfg.EnableCDN {
		opts = append(opts, "cdn")
	}
	if cfg.Calendar != nil {
		opts = append(opts, "calendar")
	}
	if cfg.Access.Name != "" && cfg.Access.Name != "urban-broadband" {
		opts = append(opts, "access="+cfg.Access.Name)
	}
	if len(opts) > 0 {
		lines = append(lines, strings.Join(opts, " "))
	}
	return lines
}

// ReproCommand is the one-line command that regenerates caseSeed's
// config in its family and re-runs the shrink loop on it.
func ReproCommand(family string, caseSeed uint64) string {
	return fmt.Sprintf("go run ./cmd/elfuzz -family %s -case-seed %#x -minimize", family, caseSeed)
}

// horizonOf is shared by checks that need the effective run horizon.
func horizonOf(cfg scenario.Config) time.Duration {
	if cfg.Duration > 0 {
		return cfg.Duration
	}
	return 6 * time.Hour
}
