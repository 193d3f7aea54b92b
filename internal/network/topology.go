package network

import (
	"fmt"
	"math"

	"elearncloud/internal/sim"
)

// AccessProfile parameterizes the client side of a topology: how good the
// users' Internet is. The paper motivates rural deployments, so profiles
// range from campus LAN to poor rural DSL.
type AccessProfile struct {
	// Name labels the profile ("campus-lan", "urban-broadband", "rural").
	Name string
	// LatencyMean and LatencySigma parameterize a LogNormal one-way
	// last-mile latency, in seconds.
	LatencyMean  float64
	LatencySigma float64
	// Mbps is the last-mile bandwidth.
	Mbps float64
	// MTBF / MTTR, in seconds, of the last-mile connection; zero MTBF
	// means the connection never fails.
	MTBF float64
	MTTR float64
}

// Validate rejects a profile BuildTopology cannot build or that would
// silently model nothing: a bandwidth or latency mean that is not a
// finite positive number, a negative or non-finite latency sigma, a
// negative or non-finite MTBF, and a failing line (MTBF > 0) without a
// finite positive MTTR.
func (a AccessProfile) Validate() error {
	finitePositive := func(x float64) bool { return x > 0 && !math.IsInf(x, 1) }
	switch {
	case !finitePositive(a.Mbps):
		return fmt.Errorf("network: access profile %q Mbps = %v, need a finite value > 0", a.Name, a.Mbps)
	case !finitePositive(a.LatencyMean):
		return fmt.Errorf("network: access profile %q LatencyMean = %v, need a finite value > 0", a.Name, a.LatencyMean)
	case !(a.LatencySigma >= 0) || math.IsInf(a.LatencySigma, 1):
		return fmt.Errorf("network: access profile %q LatencySigma = %v, need a finite value >= 0", a.Name, a.LatencySigma)
	case !(a.MTBF >= 0) || math.IsInf(a.MTBF, 1):
		return fmt.Errorf("network: access profile %q MTBF = %v, need a finite value >= 0 (0 never fails)", a.Name, a.MTBF)
	case a.MTBF > 0 && !finitePositive(a.MTTR):
		return fmt.Errorf("network: access profile %q MTTR = %v, need a finite value > 0 when MTBF > 0", a.Name, a.MTTR)
	}
	return nil
}

// Standard access profiles used across experiments.
var (
	// CampusLAN is the on-premise baseline: sub-millisecond, reliable.
	CampusLAN = AccessProfile{
		Name: "campus-lan", LatencyMean: 0.0005, LatencySigma: 0.2, Mbps: 1000,
	}
	// UrbanBroadband is a good home connection.
	UrbanBroadband = AccessProfile{
		Name: "urban-broadband", LatencyMean: 0.015, LatencySigma: 0.4, Mbps: 50,
		MTBF: 14 * 24 * 3600, MTTR: 600,
	}
	// RuralDSL is the paper's motivating rural learner: slow and flaky.
	RuralDSL = AccessProfile{
		Name: "rural-dsl", LatencyMean: 0.045, LatencySigma: 0.6, Mbps: 4,
		MTBF: 2 * 24 * 3600, MTTR: 1800,
	}
)

// Topology bundles the paths from a user population to each deployment
// target. Build one per scenario with BuildTopology.
type Topology struct {
	// ToCloud reaches a public-cloud region over the Internet.
	ToCloud *Path
	// ToCampus reaches the on-premise/private datacenter.
	ToCampus *Path
	// ToEdge reaches the nearest CDN edge: the last mile plus a short
	// metro hop, skipping the backbone entirely.
	ToEdge *Path
	// LastMile is the shared access link (nil for pure-LAN profiles).
	LastMile *Link
}

// BuildTopology constructs the standard three-segment topology:
//
//	client --last-mile--> internet backbone --> provider edge   (ToCloud)
//	client --last-mile--> campus core                           (ToCampus)
//
// For the CampusLAN profile the last mile *is* the campus network, so
// ToCampus skips the backbone and never fails.
func BuildTopology(eng *sim.Engine, access AccessProfile) *Topology {
	rng := eng.Stream("network/" + access.Name)

	lastMile := NewLink("last-mile/"+access.Name,
		sim.LogNormal(access.LatencyMean, access.LatencySigma), access.Mbps)
	// The last mile stands for every user's own access line: bandwidth
	// is per-subscriber (no cross-user sharing), but outages hit the
	// region at once.
	lastMile.Dedicated = true
	if access.MTBF > 0 && access.MTTR > 0 {
		lastMile.AttachFailure(NewFailureProcess(eng, rng.Stream("fail"), access.MTBF, access.MTTR))
	}

	backbone := NewLink("internet-backbone",
		sim.LogNormal(0.02, 0.3), 10_000)
	providerEdge := NewLink("provider-edge",
		sim.LogNormal(0.002, 0.3), 10_000)
	campusCore := NewLink("campus-core",
		sim.LogNormal(0.0005, 0.2), 10_000)
	cdnEdge := NewLink("cdn-edge",
		sim.LogNormal(0.008, 0.3), 40_000)

	t := &Topology{LastMile: lastMile}
	t.ToCloud = NewPath("to-cloud/"+access.Name, lastMile, backbone, providerEdge)
	t.ToEdge = NewPath("to-edge/"+access.Name, lastMile, cdnEdge)
	if access.Name == CampusLAN.Name {
		t.ToCampus = NewPath("to-campus/"+access.Name, lastMile, campusCore)
	} else {
		// Off-campus users still traverse the Internet to reach the
		// campus datacenter.
		t.ToCampus = NewPath("to-campus/"+access.Name, lastMile, backbone, campusCore)
	}
	return t
}
