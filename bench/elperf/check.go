package main

import (
	"fmt"
	"io"
	"math"

	"elearncloud/internal/scenario"
)

// maxInFlight is the share of a direct run's arrivals that may still be
// in flight at the horizon: admitted but neither served, rejected nor
// offline.
const maxInFlight = 0.01

// checkLedger returns why res breaks the run's bookkeeping, or nil.
func checkLedger(res *scenario.Result, hybrid bool) error {
	if hybrid {
		if d := res.FluidSimHours + res.DESSimHours - res.Duration.Hours(); math.Abs(d) > 1e-6 {
			return fmt.Errorf("fluid %gh + DES %gh misses the %gh horizon by %gh",
				res.FluidSimHours, res.DESSimHours, res.Duration.Hours(), d)
		}
		if res.Served == 0 {
			return fmt.Errorf("hybrid run served nothing")
		}
		if res.Cost.Total() == 0 {
			return fmt.Errorf("hybrid run billed nothing")
		}
		return nil
	}
	settled := res.Served + res.Rejected + res.Offline
	if settled > res.Arrivals {
		return fmt.Errorf("served %d + rejected %d + offline %d exceeds %d arrivals",
			res.Served, res.Rejected, res.Offline, res.Arrivals)
	}
	if inFlight := res.Arrivals - settled; float64(inFlight) > maxInFlight*float64(res.Arrivals) {
		return fmt.Errorf("%d of %d arrivals still in flight at the horizon", inFlight, res.Arrivals)
	}
	return nil
}

// writeDigest renders the fields of res a speed-only change must leave
// identical, in a fixed format, so a hash over the renderings of a
// pass's runs is the pass's sim_digest.
func writeDigest(w io.Writer, name string, res *scenario.Result) {
	fmt.Fprintf(w, "%s arrivals=%d served=%d rejected=%d offline=%d events=%d peak=%d vmh=%v/%v egress=%v p50=%v p95=%v p99=%v cost=%v\n",
		name, res.Arrivals, res.Served, res.Rejected, res.Offline, res.Events, res.PeakServers,
		res.VMHoursPublic, res.VMHoursPrivate, res.EgressGB,
		res.Latency.P50(), res.Latency.P95(), res.Latency.P99(), res.Cost.Total())
}
