package scenario

import (
	"elearncloud/internal/cloud"
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
	spec    cloud.InstanceSpec
	max     int // 0 = unbounded

	entries []*serverEntry
	peak    int
}

var _ scale.Target = (*fleet)(nil)

// newFleet wires a fleet; max bounds ScaleTo (0 = unbounded).
func newFleet(eng *sim.Engine, dc *cloud.Datacenter, cluster *lms.Cluster, spec cloud.InstanceSpec, max int) *fleet {
	if eng == nil || dc == nil || cluster == nil {
		panic("scenario: newFleet with nil dependency")
	}
	return &fleet{eng: eng, dc: dc, cluster: cluster, spec: spec, max: max}
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
		vm, err := f.dc.Provision(f.spec, nil)
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
