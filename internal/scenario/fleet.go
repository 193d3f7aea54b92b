package scenario

import (
	"sort"

	"elearncloud/internal/cloud"
	"elearncloud/internal/deploy"
	"elearncloud/internal/lms"
	"elearncloud/internal/scale"
	"elearncloud/internal/sim"
)

// serverEntry pairs a VM with the app server running on it.
type serverEntry struct {
	vm  *cloud.VM
	srv *lms.AppServer
}

// fleet manages a pool of (VM, app server) pairs on one datacenter and
// implements scale.Target so autoscalers can drive it. The app server is
// registered with the cluster immediately on provisioning; the cluster
// keeps it on its booting list, and its balancer skips it, until the VM
// finishes booting. A server always leaves the cluster, or stops
// accepting, before its VM terminates (retireOne, FailHost), as the
// cluster requires.
type fleet struct {
	eng     *sim.Engine
	dc      *cloud.Datacenter
	cluster *lms.Cluster
	max     int // 0 = unbounded

	entries []*serverEntry
	peak    int
}

var _ scale.Target = (*fleet)(nil)

// newFleet wires a fleet; max bounds ScaleTo (0 = unbounded).
func newFleet(eng *sim.Engine, dc *cloud.Datacenter, cluster *lms.Cluster, max int) *fleet {
	if eng == nil || dc == nil || cluster == nil {
		panic("scenario: newFleet with nil dependency")
	}
	return &fleet{eng: eng, dc: dc, cluster: cluster, max: max}
}

// Desired implements scale.Target: current fleet size including booting
// servers.
func (f *fleet) Desired() int { return len(f.entries) }

// Peak returns the largest fleet size reached.
func (f *fleet) Peak() int { return f.peak }

// Load implements scale.Target.
func (f *fleet) Load() float64 { return f.cluster.Load() }

// Arrivals implements scale.Target: the cluster's dedicated
// submission counter. A derived Served()+Rejected()+Active() sum is NOT
// monotone — retireOne drains servers gracefully, so Active() drops
// before the drained jobs reach Served() — and a dip would wrap the
// fitter's unsigned delta into an astronomical rate observation.
func (f *fleet) Arrivals() uint64 {
	return f.cluster.Arrivals()
}

// ScaleTo implements scale.Target: grows by provisioning, shrinks by
// gracefully retiring the least-loaded newest servers. Growth stops
// silently at datacenter capacity (the private-cloud reality).
func (f *fleet) ScaleTo(n int) {
	if n < 0 {
		n = 0
	}
	if f.max > 0 && n > f.max {
		n = f.max
	}
	for len(f.entries) < n {
		vm, err := f.dc.Provision()
		if err != nil {
			return // datacenter full: fixed capacity reached
		}
		srv := lms.NewAppServer(f.eng, vm)
		f.cluster.Add(srv)
		f.entries = append(f.entries, &serverEntry{vm: vm, srv: srv})
		if len(f.entries) > f.peak {
			f.peak = len(f.entries)
		}
	}
	for len(f.entries) > n {
		f.retireOne()
	}
}

// retireOne removes the best scale-in candidate: among the newest
// servers, the one with the fewest in-flight jobs (booting servers are
// ideal victims — zero jobs).
func (f *fleet) retireOne() {
	if len(f.entries) == 0 {
		return
	}
	best := len(f.entries) - 1
	for i := len(f.entries) - 1; i >= 0; i-- {
		if f.entries[i].srv.Active() < f.entries[best].srv.Active() {
			best = i
		}
		if f.entries[best].srv.Active() == 0 {
			break
		}
	}
	e := f.entries[best]
	f.entries = append(f.entries[:best], f.entries[best+1:]...)
	f.cluster.Remove(e.srv)
	vm := e.vm
	e.srv.Retire(func() { f.dc.Terminate(vm) })
}

// FailHost destroys every server on the given host: in-flight jobs are
// aborted and handed back to their submitters (AppServer.Kill), the
// servers leave the cluster, and the VMs terminate. Callers mark the
// host failed on the datacenter afterward.
func (f *fleet) FailHost(hostID int) {
	kept := f.entries[:0]
	for _, e := range f.entries {
		if h := e.vm.Host(); h != nil && h.ID == hostID {
			e.srv.Kill()
			f.cluster.Remove(e.srv)
			f.dc.Terminate(e.vm)
			continue
		}
		kept = append(kept, e)
	}
	f.entries = kept
}

// fluidFleet is the fluid model's public fleet: a scale.Target that
// startScaler drives exactly as it drives a request-level fleet, whose
// servers are boot instants and whose load is an M/G/1
// processor-sharing occupancy rather than a queue.
type fluidFleet struct {
	eng *sim.Engine
	max int
	// ready holds each server's first serving instant, oldest first.
	ready []sim.Time
	// rate is the arrival rate routed to the fleet (req/s) and meanSvc
	// its mean service demand (s), both set each fluid tick; arrivals
	// is the rate integrated through the current tick.
	rate, meanSvc, arrivals float64
}

// Desired implements scale.Target: servers including booting ones.
func (f *fluidFleet) Desired() int { return len(f.ready) }

// ScaleTo implements scale.Target, clamping n to [0, max]. A new
// server serves after the public flavor's mean boot; scale-in drops the
// newest servers, so booting ones go first.
func (f *fluidFleet) ScaleTo(n int) {
	n = min(max(n, 0), f.max)
	for len(f.ready) < n {
		f.ready = append(f.ready, f.eng.Now()+deploy.PublicBoot())
	}
	f.ready = f.ready[:n]
}

// Load implements scale.Target: the mean jobs in service per live
// server, ρ/(1−ρ) at utilization ρ, up to the admission limit a
// saturated server holds. With no live server it is 0, as
// Cluster.Load's is.
func (f *fluidFleet) Load() float64 {
	now := f.eng.Now()
	live := sort.Search(len(f.ready), func(i int) bool { return f.ready[i] > now })
	if live == 0 {
		return 0
	}
	rho := f.rate * f.meanSvc / float64(live)
	if rho >= 1 {
		return lms.AdmissionLimit
	}
	return min(rho/(1-rho), lms.AdmissionLimit)
}

// Arrivals implements scale.Target: the routed rate integrated through
// the current tick, which never decreases.
func (f *fluidFleet) Arrivals() uint64 { return uint64(f.arrivals) }
