package lms

import (
	"container/heap"

	"elearncloud/internal/cloud"
	"elearncloud/internal/sim"
)

// AppServer is one LMS application server running on a VM, modeled as an
// egalitarian processor-sharing queue: all admitted jobs progress
// simultaneously, each receiving speed/n of the VM's capacity. Processor
// sharing is the standard model for threaded web application servers and
// produces the right overload behavior for exam-spike experiments.
//
// The implementation uses the virtual-time formulation: a per-job
// progress accumulator advances at speed/n; a job with service demand s
// admitted at accumulator value P completes when the accumulator reaches
// P+s. Completions therefore pop from a min-heap in threshold order,
// making every operation O(log n) even with hundreds of concurrent jobs.
type AppServer struct {
	eng *sim.Engine
	vm  *cloud.VM

	maxJobs int // admission limit; further arrivals are rejected
	jobs    jobHeap
	nextJob int

	progress   float64 // per-job work delivered since server start
	lastUpdate sim.Time
	lastSpeed  float64
	completion *sim.Event
	// completeFn is s.complete, bound once so that scheduling a
	// completion allocates nothing.
	completeFn func()
	// free recycles the records of completed jobs.
	free []*psJob

	retired bool
	onIdle  func()

	served   uint64
	rejected uint64
}

type psJob struct {
	id        int
	threshold float64 // progress value at which the job completes
	done      func(served bool)
	// owner is the cluster that routed the job, or nil. It counts the
	// job's completion even after Cluster.Remove, while the server drains.
	owner *Cluster
}

// jobHeap is a min-heap on (threshold, id).
type jobHeap []*psJob

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, j int) bool {
	if h[i].threshold != h[j].threshold {
		return h[i].threshold < h[j].threshold
	}
	return h[i].id < h[j].id
}
func (h jobHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *jobHeap) Push(x any)   { *h = append(*h, x.(*psJob)) }
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return j
}

// NewAppServer attaches a server to a VM. maxJobs bounds concurrent
// admitted requests (the server's thread pool); non-positive means 256.
func NewAppServer(eng *sim.Engine, vm *cloud.VM, maxJobs int) *AppServer {
	if eng == nil || vm == nil {
		panic("lms: NewAppServer with nil engine or vm")
	}
	if maxJobs <= 0 {
		maxJobs = 256
	}
	s := &AppServer{
		eng:        eng,
		vm:         vm,
		maxJobs:    maxJobs,
		lastUpdate: eng.Now(),
		lastSpeed:  vm.SpeedFactor(),
	}
	s.completeFn = s.complete
	return s
}

// VM returns the server's virtual machine.
func (s *AppServer) VM() *cloud.VM { return s.vm }

// Active returns the number of in-flight jobs.
func (s *AppServer) Active() int { return len(s.jobs) }

// Served returns the number of completed jobs.
func (s *AppServer) Served() uint64 { return s.served }

// Rejected returns the number of admission-rejected jobs.
func (s *AppServer) Rejected() uint64 { return s.rejected }

// Retired reports whether the server has stopped accepting work.
func (s *AppServer) Retired() bool { return s.retired }

// Accepting reports whether a new job would be admitted right now.
func (s *AppServer) Accepting() bool {
	return !s.retired && s.vm.State() == cloud.VMRunning && len(s.jobs) < s.maxJobs
}

// Submit admits a job with the given CPU service demand (seconds at
// nominal speed) and returns true, or returns false if the server is
// retired, its VM is not running, or the admission limit is reached.
// done, if non-nil, fires once when the job leaves the server: with
// served true when it completes, with false when Kill aborts it.
func (s *AppServer) Submit(service float64, done func(served bool)) bool {
	return s.submit(service, done, nil)
}

// submit is Submit for a job routed by owner (nil for a direct submit).
func (s *AppServer) submit(service float64, done func(served bool), owner *Cluster) bool {
	if !s.Accepting() {
		s.rejected++
		return false
	}
	if service <= 0 {
		service = 1e-6
	}
	s.advance()
	var j *psJob
	if n := len(s.free); n > 0 {
		j = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		j = new(psJob)
	}
	*j = psJob{id: s.nextJob, threshold: s.progress + service, done: done, owner: owner}
	s.nextJob++
	heap.Push(&s.jobs, j)
	s.reschedule()
	return true
}

// Retire stops the server from accepting new jobs. onIdle (optional)
// fires once the last in-flight job completes — immediately if the server
// is already idle. The autoscaler uses this for graceful scale-down.
func (s *AppServer) Retire(onIdle func()) {
	s.retired = true
	s.onIdle = onIdle
	if len(s.jobs) == 0 && s.onIdle != nil {
		cb := s.onIdle
		s.onIdle = nil
		cb()
	}
}

// advance applies elapsed processor-sharing progress using the speed
// captured at the last update.
func (s *AppServer) advance() {
	now := s.eng.Now()
	if now > s.lastUpdate && len(s.jobs) > 0 {
		elapsed := sim.ToSeconds(now - s.lastUpdate)
		s.progress += elapsed * s.lastSpeed / float64(len(s.jobs))
	}
	s.lastUpdate = now
	s.lastSpeed = s.vm.SpeedFactor()
}

// reschedule cancels any pending completion event and schedules the next
// one for the head of the threshold heap.
func (s *AppServer) reschedule() {
	if s.completion != nil {
		s.eng.Cancel(s.completion)
		s.completion = nil
	}
	if len(s.jobs) == 0 {
		if s.retired && s.onIdle != nil {
			cb := s.onIdle
			s.onIdle = nil
			cb()
		}
		return
	}
	speed := s.lastSpeed
	if speed <= 0 {
		speed = 0.05
	}
	remaining := s.jobs[0].threshold - s.progress
	if remaining < 0 {
		remaining = 0
	}
	wait := sim.Seconds(remaining * float64(len(s.jobs)) / speed)
	s.completion = s.eng.Schedule(wait, "lms/complete", s.completeFn)
}

// complete finishes the job at the head of the threshold heap: advance,
// pop, count, done, reschedule.
func (s *AppServer) complete() {
	s.completion = nil
	s.advance()
	j := heap.Pop(&s.jobs).(*psJob)
	s.served++
	if j.owner != nil {
		j.owner.served++
	}
	done := j.done
	*j = psJob{}
	s.free = append(s.free, j)
	if done != nil {
		done(true)
	}
	s.reschedule()
}

// Kill aborts all in-flight jobs and returns how many were aborted. Each
// aborted job's done fires with served false, which hands the job back
// to its submitter. Used when a VM dies under the server (host failure)
// — clients see these as errors.
func (s *AppServer) Kill() int {
	if s.completion != nil {
		s.eng.Cancel(s.completion)
		s.completion = nil
	}
	killed := s.jobs
	s.jobs = nil
	s.retired = true
	if s.onIdle != nil {
		cb := s.onIdle
		s.onIdle = nil
		cb()
	}
	for _, j := range killed {
		if j.done != nil {
			j.done(false)
		}
	}
	return len(killed)
}
