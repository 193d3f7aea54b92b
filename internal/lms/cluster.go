package lms

import (
	"math/bits"

	"elearncloud/internal/cloud"
)

// Cluster is a load-balanced pool of application servers fronted by a
// least-connections balancer. The autoscaler grows and shrinks it; the
// scenario submits requests to it.
//
// The balancer picks in O(1). Each server has a position, its index in
// Add order, and the cluster files every accepting server under its
// in-flight count k: level[k] is the set of the positions of the
// accepting servers holding k jobs. Submit takes the lowest position in
// the lowest non-empty level, which is exactly the scan's rule — fewest
// in-flight jobs, ties to the earliest-added server. A server re-files
// itself whenever its count or its accepting state changes (submit,
// complete, Retire, Kill). A VM that finishes booting changes state
// without telling anyone, so servers whose VM is still provisioning
// wait on the booting list, and Submit and Load file any of them that
// now accept before they read the levels. A server's VM must not be
// terminated while the server is in the cluster and accepting: Remove,
// Retire or Kill it first (the scenario fleet does).
type Cluster struct {
	servers []*AppServer

	// Level k is a bitset of the positions of the accepting servers
	// with k in-flight jobs: the words 64-bit words of
	// bits[k*words:(k+1)*words]. size[k] counts its members, and
	// len(size) is the number of levels. No level below low has a
	// member.
	bits  []uint64
	size  []int
	words int
	low   int
	// booting lists the servers whose VM was still provisioning when
	// the cluster last looked.
	booting []*AppServer
	// accepting counts the filed servers and active their in-flight
	// jobs: the two sums Load divides.
	accepting, active int

	arrivals uint64
}

// NewCluster returns an empty cluster.
func NewCluster() *Cluster {
	return &Cluster{}
}

// Add registers a server with the balancer. Panics on a nil server or
// one already in a cluster.
func (c *Cluster) Add(s *AppServer) {
	if s == nil {
		panic("lms: Cluster.Add nil server")
	}
	if s.cluster != nil {
		panic("lms: Cluster.Add of a server already in a cluster")
	}
	s.cluster, s.pos = c, len(c.servers)
	c.servers = append(c.servers, s)
	if len(c.servers) > 64*c.words {
		wider := make([]uint64, len(c.size)*(c.words+1))
		for k := range c.size {
			copy(wider[k*(c.words+1):], c.level(k))
		}
		c.bits = wider
		c.words++
	}
	if s.vm.State() == cloud.VMProvisioning {
		c.booting = append(c.booting, s)
		return
	}
	c.refile(s)
}

// Remove unregisters a server (it stops receiving new work; in-flight
// jobs are unaffected). Removing an unknown server is a no-op. The
// servers after it move down one position, so Remove files every server
// again; it runs on scale-in and host failure only.
func (c *Cluster) Remove(s *AppServer) {
	if s == nil || s.cluster != c {
		return
	}
	i := s.pos
	copy(c.servers[i:], c.servers[i+1:])
	c.servers[len(c.servers)-1] = nil
	c.servers = c.servers[:len(c.servers)-1]
	for j, b := range c.booting {
		if b == s {
			c.booting = append(c.booting[:j], c.booting[j+1:]...)
			break
		}
	}
	s.cluster, s.filed = nil, -1
	clear(c.bits)
	clear(c.size)
	c.low, c.accepting, c.active = 0, 0, 0
	for j, have := range c.servers {
		have.pos, have.filed = j, -1
		c.refile(have)
	}
}

// level returns level k's bitset.
func (c *Cluster) level(k int) []uint64 {
	return c.bits[k*c.words : (k+1)*c.words]
}

// refile files s under its in-flight count if it accepts work and takes
// it out of the levels if it does not.
func (c *Cluster) refile(s *AppServer) {
	want := -1
	if s.Accepting() {
		want = len(s.jobs)
	}
	if want == s.filed {
		return
	}
	w, bit := s.pos>>6, uint64(1)<<(s.pos&63)
	if k := s.filed; k >= 0 {
		c.bits[k*c.words+w] &^= bit
		c.size[k]--
		c.accepting--
		c.active -= k
	}
	if want >= 0 {
		for len(c.size) <= want {
			c.bits = append(c.bits, make([]uint64, c.words)...)
			c.size = append(c.size, 0)
		}
		c.bits[want*c.words+w] |= bit
		c.size[want]++
		c.accepting++
		c.active += want
		if want < c.low {
			c.low = want
		}
	}
	s.filed = want
}

// fileBooted takes every server whose VM is no longer provisioning off
// the booting list and files it if it accepts work (a VM terminated
// while booting never does).
func (c *Cluster) fileBooted() {
	kept := c.booting[:0]
	for _, s := range c.booting {
		if s.vm.State() == cloud.VMProvisioning {
			kept = append(kept, s)
			continue
		}
		c.refile(s)
	}
	clear(c.booting[len(kept):])
	c.booting = kept
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
	if len(c.booting) > 0 {
		c.fileBooted()
	}
	if c.accepting == 0 {
		return 0
	}
	return float64(c.active) / float64(c.accepting)
}

// Arrivals returns the cluster-wide submission count: every Submit call,
// accepted or rejected, increments it exactly once. It is monotone by
// construction, even while gracefully draining servers take their
// unfinished jobs out of Active() — which is the contract
// scale.Target's Arrivals promises the growth fitter.
func (c *Cluster) Arrivals() uint64 { return c.arrivals }

// Submit routes a job to the accepting server with the fewest in-flight
// jobs (ties to the earliest-added server). It returns false if no server
// can take the job — the client sees an overload error. done, if non-nil,
// fires once when the job leaves its server: with served true when it
// completes, with false when Kill aborts it.
func (c *Cluster) Submit(service float64, done func(served bool)) bool {
	c.arrivals++
	if len(c.booting) > 0 {
		c.fileBooted()
	}
	if c.accepting == 0 {
		return false
	}
	k := c.low
	for c.size[k] == 0 {
		k++
	}
	c.low = k
	set := c.level(k)
	w := 0
	for set[w] == 0 {
		w++
	}
	c.servers[w<<6|bits.TrailingZeros64(set[w])].submit(service, done)
	return true
}
