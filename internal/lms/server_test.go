package lms

import (
	"container/heap"
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"elearncloud/internal/cloud"
	"elearncloud/internal/sim"
)

// bootServer provisions one running VM with an app server on it.
func bootServer(t *testing.T, eng *sim.Engine) *AppServer {
	t.Helper()
	dc := cloud.NewDatacenter(eng, cloud.Config{Name: "t", Hosts: 1})
	vm, err := dc.Provision()
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(eng.Now()) // instant boot (nil BootDelay)
	if vm.State() != cloud.VMRunning {
		// Drain the boot event scheduled at now.
		if !eng.Step() {
			t.Fatal("no boot event pending")
		}
	}
	return NewAppServer(eng, vm)
}

// offer submits a job the way Cluster.Submit does: only to a server
// that is accepting work. It reports whether the job was admitted.
func offer(s *AppServer, service float64, done func(served bool)) bool {
	if !s.Accepting() {
		return false
	}
	s.submit(service, done)
	return true
}

// fixed is a degenerate distribution: every draw is its value.
type fixed float64

func (d fixed) Sample(*sim.RNG) float64 { return float64(d) }
func (d fixed) Mean() float64           { return float64(d) }
func (d fixed) String() string          { return fmt.Sprintf("fixed(%g)", float64(d)) }

func TestSingleJobTakesServiceTime(t *testing.T) {
	eng := sim.NewEngine(1)
	s := bootServer(t, eng)
	var doneAt sim.Time
	served := 0
	if !offer(s, 2.0, func(ok bool) {
		doneAt = eng.Now()
		if ok {
			served++
		}
	}) {
		t.Fatal("Submit rejected")
	}
	eng.Run(time.Minute)
	if got := sim.ToSeconds(doneAt); math.Abs(got-2.0) > 1e-9 {
		t.Fatalf("single job finished at %vs, want 2s", got)
	}
	if served != 1 {
		t.Fatalf("served = %d", served)
	}
}

func TestProcessorSharingSlowsConcurrentJobs(t *testing.T) {
	eng := sim.NewEngine(1)
	s := bootServer(t, eng)
	var t1, t2 sim.Time
	offer(s, 1.0, func(bool) { t1 = eng.Now() })
	offer(s, 1.0, func(bool) { t2 = eng.Now() })
	eng.Run(time.Minute)
	// Two equal jobs sharing the processor both finish at ~2s.
	if math.Abs(sim.ToSeconds(t1)-2.0) > 1e-6 || math.Abs(sim.ToSeconds(t2)-2.0) > 1e-6 {
		t.Fatalf("PS finish times = %v, %v; want both ~2s", t1, t2)
	}
}

func TestProcessorSharingShortJobOverlap(t *testing.T) {
	eng := sim.NewEngine(1)
	s := bootServer(t, eng)
	var shortDone, longDone sim.Time
	offer(s, 3.0, func(bool) { longDone = eng.Now() })
	eng.Schedule(time.Second, "short", func() {
		offer(s, 0.5, func(bool) { shortDone = eng.Now() })
	})
	eng.Run(time.Minute)
	// Long job runs alone 0..1s (1s of work done), then shares.
	// Short job: needs 0.5s of work at half speed = 1s wall -> done at 2s.
	// Long job: remaining 2.0 at t=1; shares until t=2 (does 0.5), then
	// alone for 1.5 -> done at 3.5s.
	if got := sim.ToSeconds(shortDone); math.Abs(got-2.0) > 1e-6 {
		t.Fatalf("short done at %v, want 2.0", got)
	}
	if got := sim.ToSeconds(longDone); math.Abs(got-3.5) > 1e-6 {
		t.Fatalf("long done at %v, want 3.5", got)
	}
}

func TestAdmissionLimitRejects(t *testing.T) {
	eng := sim.NewEngine(1)
	s := bootServer(t, eng)
	for i := 0; i < AdmissionLimit; i++ {
		if !offer(s, 10, nil) {
			t.Fatalf("job %d of %d rejected", i+1, AdmissionLimit)
		}
	}
	if offer(s, 10, nil) {
		t.Fatal("job admitted past the limit")
	}
	if s.Active() != AdmissionLimit {
		t.Fatalf("Active = %d, want %d", s.Active(), AdmissionLimit)
	}
}

func TestRetireDrainsThenSignalsIdle(t *testing.T) {
	eng := sim.NewEngine(1)
	s := bootServer(t, eng)
	offer(s, 1.0, nil)
	idleAt := sim.Time(-1)
	s.Retire(func() { idleAt = eng.Now() })
	if offer(s, 1.0, nil) {
		t.Fatal("retired server admitted a job")
	}
	eng.Run(time.Minute)
	if got := sim.ToSeconds(idleAt); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("idle at %v, want 1s", got)
	}
}

func TestRetireIdleServerSignalsImmediately(t *testing.T) {
	eng := sim.NewEngine(1)
	s := bootServer(t, eng)
	called := false
	s.Retire(func() { called = true })
	if !called {
		t.Fatal("idle retire did not signal immediately")
	}
}

func TestKillAbortsJobs(t *testing.T) {
	eng := sim.NewEngine(1)
	s := bootServer(t, eng)
	completed, handedBack := false, 0
	offer(s, 1.0, func(served bool) {
		if served {
			completed = true
		} else {
			handedBack++
		}
	})
	offer(s, 1.0, nil)
	if n := s.Kill(); n != 2 {
		t.Fatalf("Kill aborted %d, want 2", n)
	}
	if handedBack != 1 {
		t.Fatalf("Kill handed back %d jobs, want 1", handedBack)
	}
	eng.Run(time.Minute)
	if completed {
		t.Fatal("killed job still completed")
	}
	if s.Active() != 0 || s.Accepting() {
		t.Fatal("killed server still active/accepting")
	}
}

func TestInterferenceSlowsService(t *testing.T) {
	eng := sim.NewEngine(21)
	dc := cloud.NewDatacenter(eng, cloud.Config{Name: "pub", Public: true})
	vm, err := dc.Provision()
	if err != nil {
		t.Fatal(err)
	}
	if !eng.Step() {
		t.Fatal("no boot event")
	}
	// The boot drew the VM's co-tenant interference; the resampler's
	// first redraw comes minutes later, after the job is done.
	speed := vm.SpeedFactor()
	if !(speed < 1) {
		t.Fatalf("SpeedFactor = %v, want < 1 on a public VM", speed)
	}
	s := NewAppServer(eng, vm)
	var doneAt sim.Time
	offer(s, 1.0, func(bool) { doneAt = eng.Now() })
	eng.Run(time.Minute)
	if got, want := sim.ToSeconds(doneAt), 1/speed; math.Abs(got-want) > 1e-6 {
		t.Fatalf("job on a VM at speed %v finished at %vs, want %vs", speed, got, want)
	}
}

// Property: jobs are conserved — everything submitted is eventually
// either served, still active, or aborted by Kill; nothing is lost or
// double-counted.
func TestServerJobConservationProperty(t *testing.T) {
	f := func(demands []uint8, killAfter uint8) bool {
		eng := sim.NewEngine(uint64(killAfter) + 1)
		dc := cloud.NewDatacenter(eng, cloud.Config{Name: "p", Hosts: 1})
		vm, err := dc.Provision()
		if err != nil {
			return false
		}
		eng.Step() // boot
		s := NewAppServer(eng, vm)
		accepted, served := 0, 0
		done := func(ok bool) {
			if ok {
				served++
			}
		}
		// Eight jobs per demand, so long inputs reach the admission
		// limit and see rejections.
		for _, d := range demands {
			for range 8 {
				if offer(s, float64(d%50)/100+0.01, done) {
					accepted++
				}
			}
			// Let some work drain between submissions.
			if d%3 == 0 {
				eng.Step()
			}
		}
		killed := 0
		if killAfter%2 == 0 {
			killed = s.Kill()
		} else {
			eng.Run(time.Hour)
		}
		return accepted == served+s.Active()+killed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitToUnbootedVMRejected(t *testing.T) {
	eng := sim.NewEngine(1)
	dc := cloud.NewDatacenter(eng, cloud.Config{Name: "t", Hosts: 1, BootDelay: fixed(120)})
	vm, err := dc.Provision()
	if err != nil {
		t.Fatal(err)
	}
	s := NewAppServer(eng, vm)
	if offer(s, 1, nil) {
		t.Fatal("job admitted to provisioning VM")
	}
}

// refJobHeap is container/heap's view of the job heap: the reference
// the typed heap's array order is checked against.
type refJobHeap []*psJob

func (h refJobHeap) Len() int           { return len(h) }
func (h refJobHeap) Less(i, j int) bool { return jobBefore(h[i], h[j]) }
func (h refJobHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refJobHeap) Push(x any)        { *h = append(*h, x.(*psJob)) }
func (h *refJobHeap) Pop() any {
	old := *h
	j := old[len(old)-1]
	*h = old[:len(old)-1]
	return j
}

// TestJobHeapMatchesContainerHeap: the typed job heap pops the same
// jobs as container/heap and keeps the same array order after every
// push and pop, with threshold ties broken by id. Kill walks that array.
func TestJobHeapMatchesContainerHeap(t *testing.T) {
	rng := sim.NewRNG(3)
	var typed jobHeap
	var ref refJobHeap
	for id := 0; id < 20000; id++ {
		if len(typed) > 0 && rng.Intn(5) < 2 {
			got, want := typed.pop(), heap.Pop(&ref).(*psJob)
			if got != want {
				t.Fatalf("step %d: popped job %d, container/heap pops %d", id, got.id, want.id)
			}
		} else {
			j := &psJob{id: id, threshold: float64(rng.Intn(50))}
			typed.push(j)
			heap.Push(&ref, j)
		}
		for i := range typed {
			if typed[i] != ref[i] {
				t.Fatalf("step %d: array order differs at %d", id, i)
			}
		}
	}
}
