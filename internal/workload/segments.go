package workload

// This file extracts the hybrid fidelity plan from a generator's
// envelope segments: which stretches of the horizon are quiet enough
// for flow-level integration, and which burst windows (deadline
// storms, join spikes, flash crowds) demand request-level DES. The
// envelope already re-bounds itself around every window edge, so the
// classification inherits its segmentation for free — a burst can
// never hide inside a segment, because no segment straddles a window
// boundary.

import "time"

// BurstWindow is one contiguous stretch of the horizon whose bounded
// arrival rate exceeds the quiet baseline by at least the planner's
// intensity factor — a candidate DES window in a hybrid run.
type BurstWindow struct {
	// Start and End delimit the window, [Start, End), guard margins
	// and grid alignment included.
	Start, End time.Duration
	// PeakBound is the maximum envelope rate bound (req/s) over the
	// window's classified segments — what a DES warm-start sizes its
	// fleet against.
	PeakBound float64
}

// BurstWindows walks the envelope segmentation over [0, horizon) and
// returns the stretches where the crowd/storm/join multiplier bound
// reaches factor, each padded by guard on both sides, aligned outward
// to the grid (start floored, end ceiled), clamped to [0, horizon],
// and merged where padding makes neighbors touch. Windows come back
// sorted and disjoint. A config with no burst shapes — or a factor
// above every shape's peak — yields nil: the whole horizon is quiet.
//
// The classification is a pure function of (config, horizon, factor,
// guard, grid): no RNG is consulted, so the same plan is produced on
// every shard, at any -parallel, on every run.
func (g *Generator) BurstWindows(horizon time.Duration, factor float64, guard, grid time.Duration) []BurstWindow {
	if horizon <= 0 || factor <= 0 {
		return nil
	}
	if guard < 0 {
		guard = 0
	}
	var wins []BurstWindow
	for t := time.Duration(0); t < horizon; {
		until := g.segmentEnd(t)
		if until > horizon {
			until = horizon
		}
		if g.burstMult(t, until) >= factor {
			bound := g.segmentBound(t, until)
			start, end := t-guard, until+guard
			if n := len(wins); n > 0 && start <= wins[n-1].End {
				if end > wins[n-1].End {
					wins[n-1].End = end
				}
				if bound > wins[n-1].PeakBound {
					wins[n-1].PeakBound = bound
				}
			} else {
				wins = append(wins, BurstWindow{Start: start, End: end, PeakBound: bound})
			}
		}
		t = until
	}
	return mergeWindows(alignWindows(wins, grid, horizon))
}

// alignWindows snaps each window outward to the grid and clamps it to
// [0, horizon]. A non-positive grid skips alignment (clamping still
// applies).
func alignWindows(wins []BurstWindow, grid, horizon time.Duration) []BurstWindow {
	out := wins[:0]
	for _, w := range wins {
		if grid > 0 {
			w.Start -= ((w.Start % grid) + grid) % grid // floor, safe for negatives
			if rem := w.End % grid; rem != 0 {
				w.End += grid - rem
			}
		}
		if w.Start < 0 {
			w.Start = 0
		}
		if w.End > horizon {
			w.End = horizon
		}
		if w.End > w.Start {
			out = append(out, w)
		}
	}
	return out
}

// mergeWindows coalesces sorted windows that overlap or touch.
func mergeWindows(wins []BurstWindow) []BurstWindow {
	if len(wins) < 2 {
		return wins
	}
	out := wins[:1]
	for _, w := range wins[1:] {
		last := &out[len(out)-1]
		if w.Start <= last.End {
			if w.End > last.End {
				last.End = w.End
			}
			if w.PeakBound > last.PeakBound {
				last.PeakBound = w.PeakBound
			}
		} else {
			out = append(out, w)
		}
	}
	return out
}
