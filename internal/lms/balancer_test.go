package lms

import (
	"testing"
	"time"

	"elearncloud/internal/cloud"
	"elearncloud/internal/sim"
)

// scanPick is the balancer the per-count levels replace: a walk over
// every server for the accepting one with the fewest in-flight jobs,
// ties to the earliest-added.
func scanPick(c *Cluster) *AppServer {
	var best *AppServer
	for _, s := range c.servers {
		if !s.Accepting() {
			continue
		}
		if best == nil || s.Active() < best.Active() {
			best = s
		}
	}
	return best
}

// scanLoad is Load as a walk over every server.
func scanLoad(c *Cluster) float64 {
	accepting, active := 0, 0
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

// TestBalancerMatchesScan drives a cluster through a seeded random
// sequence of Add (VMs that boot after a random delay), Remove,
// Submit bursts, job completions, Retire, Kill and VMs terminated
// while booting, with server counts crossing the 64-position word
// boundary and bursts large enough to fill every server to the
// admission limit. Every Submit must pick the server the scan picks, or
// reject when the scan finds none, and Load must equal the scan's value
// throughout.
func TestBalancerMatchesScan(t *testing.T) {
	eng := sim.NewEngine(1)
	rng := sim.NewRNG(41)
	dc := cloud.NewDatacenter(eng, cloud.Config{Name: "t", Public: true, BootDelay: sim.LogNormal(20, 0.6)})
	c := NewCluster()
	var members []*AppServer // the servers in c, in no particular order
	add := func() {
		vm, err := dc.Provision()
		if err != nil {
			t.Fatal(err)
		}
		s := NewAppServer(eng, vm)
		c.Add(s)
		members = append(members, s)
	}
	drop := func(i int) *AppServer {
		s := members[i]
		members = append(members[:i], members[i+1:]...)
		return s
	}
	for i := 0; i < 60; i++ {
		add()
	}
	picks, rejects := 0, 0
	for step := 0; step < 40000; step++ {
		if got, want := c.Load(), scanLoad(c); got != want {
			t.Fatalf("step %d: Load %v, scan %v", step, got, want)
		}
		switch op := rng.Intn(100); {
		case op < 55:
			for n := 1 + rng.Intn(64); n > 0; n-- {
				want := scanPick(c)
				var before int
				if want != nil {
					before = want.Active()
				}
				total := c.Active()
				ok := c.Submit(rng.Float64()*20, nil)
				switch {
				case want == nil && ok:
					t.Fatalf("step %d: Submit admitted a job the scan rejects", step)
				case want == nil:
					rejects++
				case !ok:
					t.Fatalf("step %d: Submit rejected a job the scan admits", step)
				case want.Active() != before+1 || c.Active() != total+1:
					t.Fatalf("step %d: Submit did not pick the scan's server (position %d)", step, want.pos)
				default:
					picks++
				}
			}
		case op < 80:
			eng.Run(eng.Now() + time.Duration(rng.Intn(int(time.Second))))
		case op < 86:
			if len(members) < 110 {
				add()
			}
		case op < 90:
			if len(members) > 0 {
				s := drop(rng.Intn(len(members)))
				c.Remove(s)
				vm := s.vm
				s.Retire(func() { dc.Terminate(vm) })
			}
		case op < 93:
			if len(members) > 0 {
				members[rng.Intn(len(members))].Retire(nil)
			}
		case op < 95:
			if len(members) > 0 {
				s := drop(rng.Intn(len(members)))
				s.Kill()
				if rng.Intn(2) == 0 {
					c.Remove(s)
				}
			}
		case op < 97:
			for _, s := range members {
				if s.vm.State() == cloud.VMProvisioning {
					dc.Terminate(s.vm)
					break
				}
			}
		default:
			if len(members) < 40 {
				for i := 0; i < 10; i++ {
					add()
				}
			}
		}
	}
	if picks < 10000 || rejects < 100 {
		t.Fatalf("sequence too tame to be meaningful: %d picks, %d rejections", picks, rejects)
	}
}
