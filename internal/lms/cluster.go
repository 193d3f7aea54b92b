package lms

// Cluster is a load-balanced pool of application servers fronted by a
// least-connections balancer. The autoscaler grows and shrinks it; the
// scenario submits requests to it.
type Cluster struct {
	name    string
	servers []*AppServer

	arrivals uint64
}

// NewCluster returns an empty cluster.
func NewCluster(name string) *Cluster {
	return &Cluster{name: name}
}

// Name returns the cluster's label.
func (c *Cluster) Name() string { return c.name }

// Add registers a server with the balancer.
func (c *Cluster) Add(s *AppServer) {
	if s == nil {
		panic("lms: Cluster.Add nil server")
	}
	c.servers = append(c.servers, s)
}

// Remove unregisters a server (it stops receiving new work; in-flight
// jobs are unaffected). Removing an unknown server is a no-op.
func (c *Cluster) Remove(s *AppServer) {
	for i, have := range c.servers {
		if have == s {
			c.servers = append(c.servers[:i], c.servers[i+1:]...)
			return
		}
	}
}

// Active returns total in-flight jobs across servers.
func (c *Cluster) Active() int {
	n := 0
	for _, s := range c.servers {
		n += s.Active()
	}
	return n
}

// Load returns mean in-flight jobs per accepting server, the signal the
// reactive autoscaler consumes. An empty cluster reports +Inf-free 0.
func (c *Cluster) Load() float64 {
	accepting := 0
	active := 0
	for _, s := range c.servers {
		if s.Accepting() {
			accepting++
			active += s.Active()
		}
	}
	if accepting == 0 {
		return 0
	}
	return float64(active) / float64(accepting)
}

// Arrivals returns the cluster-wide submission count: every Submit call,
// accepted or rejected, increments it exactly once. It is monotone by
// construction, even while gracefully draining servers take their
// unfinished jobs out of Active() — which is the contract
// scale.ArrivalMeter consumers difference against.
func (c *Cluster) Arrivals() uint64 { return c.arrivals }

// Submit routes a job to the accepting server with the fewest in-flight
// jobs (ties to the earliest-added server). It returns false if no server
// can take the job — the client sees an overload error. done, if non-nil,
// fires once when the job leaves its server: with served true when it
// completes, with false when Kill aborts it.
func (c *Cluster) Submit(service float64, done func(served bool)) bool {
	c.arrivals++
	var best *AppServer
	for _, s := range c.servers {
		if !s.Accepting() {
			continue
		}
		if best == nil || s.Active() < best.Active() {
			best = s
		}
	}
	if best == nil {
		return false
	}
	best.submit(service, done)
	return true
}
