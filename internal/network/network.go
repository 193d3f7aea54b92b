package network

import (
	"fmt"

	"elearncloud/internal/sim"
)

// Link is one network segment (last-mile DSL, Internet backbone, campus
// LAN, provider edge).
type Link struct {
	// Name labels the link in reports.
	Name string
	// Latency is the one-way propagation+queueing latency in seconds.
	Latency sim.Dist
	// Mbps is the nominal bandwidth in megabits per second.
	Mbps float64
	// Dedicated marks per-user capacity: a last-mile line belongs to one
	// subscriber, so flows of *different* users do not share it and
	// EffectiveMbps never degrades with concurrency. Shared backbone and
	// campus links leave this false.
	Dedicated bool

	fail      *FailureProcess
	transfers int // active flows sharing the link
}

// NewLink builds a link. Latency must be non-nil and Mbps positive.
func NewLink(name string, latency sim.Dist, mbps float64) *Link {
	if latency == nil {
		panic("network: NewLink with nil latency")
	}
	if mbps <= 0 {
		panic("network: NewLink with non-positive bandwidth")
	}
	return &Link{Name: name, Latency: latency, Mbps: mbps}
}

// AttachFailure associates a failure process with the link; while the
// process is down the link is down.
func (l *Link) AttachFailure(f *FailureProcess) { l.fail = f }

// Up reports whether the link is currently usable.
func (l *Link) Up() bool { return l.fail == nil || l.fail.Up() }

// Failure returns the attached failure process, or nil.
func (l *Link) Failure() *FailureProcess { return l.fail }

// EffectiveMbps returns the per-flow bandwidth a new flow would get now.
// Dedicated links always grant full line rate (concurrency on them comes
// from different users' private lines, not contention).
func (l *Link) EffectiveMbps() float64 {
	if l.Dedicated {
		return l.Mbps
	}
	n := l.transfers
	if n < 1 {
		n = 1
	}
	return l.Mbps / float64(n)
}

// Path is an ordered sequence of links from a client to a service.
type Path struct {
	// Name labels the path ("student->public-cloud").
	Name string

	links []*Link
}

// NewPath builds a path over links. At least one link is required.
func NewPath(name string, links ...*Link) *Path {
	if len(links) == 0 {
		panic("network: NewPath with no links")
	}
	return &Path{Name: name, links: links}
}

// Up reports whether every link on the path is up.
func (p *Path) Up() bool {
	for _, l := range p.links {
		if !l.Up() {
			return false
		}
	}
	return true
}

// Latency samples the one-way path latency in seconds.
func (p *Path) Latency(rng *sim.RNG) float64 {
	sum := 0.0
	for _, l := range p.links {
		sum += l.Latency.Sample(rng)
	}
	return sum
}

// BottleneckMbps returns the smallest effective per-flow bandwidth along
// the path given current concurrency.
func (p *Path) BottleneckMbps() float64 {
	min := p.links[0].EffectiveMbps()
	for _, l := range p.links[1:] {
		if v := l.EffectiveMbps(); v < min {
			min = v
		}
	}
	return min
}

// TransferTime samples the total time in seconds to move payloadBytes
// over the path: round-trip setup latency plus the serialized transfer at
// the bottleneck's effective bandwidth.
func (p *Path) TransferTime(rng *sim.RNG, payloadBytes float64) float64 {
	lat := p.Latency(rng) * 2 // request + response
	if payloadBytes <= 0 {
		return lat
	}
	bits := payloadBytes * 8
	return lat + bits/(p.BottleneckMbps()*1e6)
}

// Begin registers a flow on every link of the path. Concurrency
// degrades effective bandwidth for everyone (fair-share approximation)
// until End removes the flow again.
func (p *Path) Begin() {
	for _, l := range p.links {
		l.transfers++
	}
}

// End removes one flow Begin registered from every link of the path. It
// panics if a link's flow count goes negative: an End without its Begin
// is a bookkeeping bug.
func (p *Path) End() {
	for _, l := range p.links {
		l.transfers--
		if l.transfers < 0 {
			panic(fmt.Sprintf("network: link %q transfer count went negative", l.Name))
		}
	}
}
