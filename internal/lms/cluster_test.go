package lms

import (
	"math"
	"testing"
	"time"

	"elearncloud/internal/cloud"
	"elearncloud/internal/sim"
)

// bootCluster builds a cluster of n single-VM servers.
func bootCluster(t *testing.T, eng *sim.Engine, n, maxJobs int) (*Cluster, []*AppServer) {
	t.Helper()
	dc := cloud.NewDatacenter(eng, cloud.Config{
		Name:         "t",
		Hosts:        n,
		HostCapacity: cloud.Resources{CPU: 16, Mem: 64, Disk: 500},
	})
	c := NewCluster("web")
	var servers []*AppServer
	for i := 0; i < n; i++ {
		vm, err := dc.Provision(cloud.InstanceSpec{
			Name: "m", Res: cloud.Resources{CPU: 2, Mem: 4, Disk: 10},
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		s := NewAppServer(eng, vm, maxJobs)
		servers = append(servers, s)
		c.Add(s)
	}
	eng.Run(eng.Now()) // instant boots (nil BootDelay)
	return c, servers
}

func TestClusterRoutesToLeastLoaded(t *testing.T) {
	eng := sim.NewEngine(1)
	c, servers := bootCluster(t, eng, 2, 0)
	c.Submit(10, nil) // server 0
	c.Submit(10, nil) // server 1 (least-loaded)
	c.Submit(10, nil) // back to server 0 (tie -> earliest)
	if servers[0].Active() != 2 || servers[1].Active() != 1 {
		t.Fatalf("active = %d,%d; want 2,1", servers[0].Active(), servers[1].Active())
	}
}

func TestClusterRejectsWhenSaturated(t *testing.T) {
	eng := sim.NewEngine(1)
	c, _ := bootCluster(t, eng, 2, 1)
	if !c.Submit(10, nil) || !c.Submit(10, nil) {
		t.Fatal("cluster rejected within capacity")
	}
	if c.Submit(10, nil) {
		t.Fatal("cluster admitted past capacity")
	}
}

func TestClusterServedCount(t *testing.T) {
	eng := sim.NewEngine(1)
	c, _ := bootCluster(t, eng, 2, 0)
	served := 0
	for i := 0; i < 6; i++ {
		if !c.Submit(0.01, func(ok bool) {
			if ok {
				served++
			}
		}) {
			t.Fatal("rejected")
		}
	}
	eng.Run(time.Minute)
	if served != 6 {
		t.Fatalf("served = %d", served)
	}
	if c.Active() != 0 {
		t.Fatalf("Active = %d", c.Active())
	}
}

func TestClusterLoadSignal(t *testing.T) {
	eng := sim.NewEngine(1)
	c, _ := bootCluster(t, eng, 2, 0)
	if c.Load() != 0 {
		t.Fatalf("idle Load = %v", c.Load())
	}
	c.Submit(100, nil)
	c.Submit(100, nil)
	c.Submit(100, nil)
	if got := c.Load(); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("Load = %v, want 1.5", got)
	}
}

func TestClusterRemove(t *testing.T) {
	eng := sim.NewEngine(1)
	c, servers := bootCluster(t, eng, 2, 0)
	c.Remove(servers[0])
	if len(c.servers) != 1 {
		t.Fatalf("servers = %d", len(c.servers))
	}
	c.Remove(servers[0]) // no-op
	if len(c.servers) != 1 {
		t.Fatal("double remove changed size")
	}
	c.Submit(10, nil)
	if servers[0].Active() != 0 {
		t.Fatal("removed server received work")
	}
}

func TestClusterSkipsRetiredServers(t *testing.T) {
	eng := sim.NewEngine(1)
	c, servers := bootCluster(t, eng, 2, 0)
	servers[0].Retire(nil)
	c.Submit(10, nil)
	if servers[0].Active() != 0 {
		t.Fatal("retired server received work")
	}
	if servers[1].Active() != 1 {
		t.Fatal("healthy server did not receive work")
	}
}

func TestClusterEmptyRejects(t *testing.T) {
	c := NewCluster("empty")
	if c.Submit(1, nil) {
		t.Fatal("empty cluster admitted a job")
	}
	if c.Load() != 0 {
		t.Fatal("empty cluster Load != 0")
	}
}

// A server removed from the cluster drains its in-flight jobs: each
// job's done callback still reports it served.
func TestClusterCountsDrainedCompletions(t *testing.T) {
	eng := sim.NewEngine(1)
	c, servers := bootCluster(t, eng, 2, 0)
	served := 0
	for i := 0; i < 2; i++ {
		c.Submit(1, func(ok bool) {
			if ok {
				served++
			}
		})
	}
	c.Remove(servers[0])
	eng.Run(time.Minute)
	if served != 2 {
		t.Fatalf("served callbacks = %d, want 2", served)
	}
}

// TestClusterArrivalsMonotoneAcrossDrain pins the ArrivalMeter contract:
// Arrivals counts every Submit exactly once, accepted or rejected, and
// a server removed from the cluster while draining, which takes its
// in-flight job out of Active(), leaves the count unchanged.
func TestClusterArrivalsMonotoneAcrossDrain(t *testing.T) {
	eng := sim.NewEngine(1)
	c, servers := bootCluster(t, eng, 2, 1)
	for i := 0; i < 3; i++ {
		c.Submit(10, nil) // 2 accepted (capacity 1 each), 1 rejected
	}
	if c.Arrivals() != 3 {
		t.Fatalf("Arrivals = %d, want 3 (accepted and rejected both count)", c.Arrivals())
	}
	// Graceful drain: the server leaves the cluster with a job in flight.
	c.Remove(servers[0])
	if c.Active() != 1 {
		t.Fatalf("Active = %d after removing a busy server, want 1", c.Active())
	}
	if c.Arrivals() != 3 {
		t.Fatalf("Arrivals = %d after drain, want 3 (monotone)", c.Arrivals())
	}
}

func TestClusterAddNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewCluster("x").Add(nil)
}
