package lms

import (
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

	// cluster is the cluster the server is in (nil outside one), pos its
	// position there, and filed the in-flight count the cluster files it
	// under (-1 while it does not accept work). See Cluster.
	cluster *Cluster
	pos     int
	filed   int
}

type psJob struct {
	id        int
	threshold float64 // progress value at which the job completes
	done      func(served bool)
}

// jobHeap is a binary min-heap on (threshold, id). It moves jobs the
// way container/heap does, so its array order, which Kill walks, is the
// same as container/heap's would be.
type jobHeap []*psJob

// jobBefore is the heap's order: threshold, then admission order.
func jobBefore(a, b *psJob) bool {
	if a.threshold != b.threshold {
		return a.threshold < b.threshold
	}
	return a.id < b.id
}

// push adds j to the heap.
func (h *jobHeap) push(j *psJob) {
	*h = append(*h, j)
	q := *h
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !jobBefore(j, q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = j
}

// pop removes and returns the earliest job; the heap must not be empty.
func (h *jobHeap) pop() *psJob {
	q := *h
	n := len(q) - 1
	top, last := q[0], q[n]
	q[n] = nil
	q = q[:n]
	*h = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && jobBefore(q[r], q[c]) {
			c = r
		}
		if !jobBefore(q[c], last) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = last
	return top
}

// AdmissionLimit bounds a server's concurrently admitted requests (its
// thread pool): the most in-flight jobs a saturated server holds.
const AdmissionLimit = 256

// NewAppServer attaches a server to a VM, admitting up to
// AdmissionLimit concurrent requests.
func NewAppServer(eng *sim.Engine, vm *cloud.VM) *AppServer {
	if eng == nil || vm == nil {
		panic("lms: NewAppServer with nil engine or vm")
	}
	s := &AppServer{
		eng:        eng,
		vm:         vm,
		lastUpdate: eng.Now(),
		lastSpeed:  vm.SpeedFactor(),
		filed:      -1,
	}
	s.completeFn = s.complete
	return s
}

// Active returns the number of in-flight jobs.
func (s *AppServer) Active() int { return len(s.jobs) }

// Accepting reports whether a new job would be admitted right now.
func (s *AppServer) Accepting() bool {
	return !s.retired && s.vm.State() == cloud.VMRunning && len(s.jobs) < AdmissionLimit
}

// submit admits a job with the given CPU service demand (seconds at
// nominal speed); the caller has checked Accepting. done, if non-nil,
// fires once when the job leaves the server: with served true when it
// completes, with false when Kill aborts it.
func (s *AppServer) submit(service float64, done func(served bool)) {
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
	*j = psJob{id: s.nextJob, threshold: s.progress + service, done: done}
	s.nextJob++
	s.jobs.push(j)
	s.refile()
	s.reschedule()
}

// refile tells the server's cluster, if any, that its in-flight count or
// its accepting state may have changed.
func (s *AppServer) refile() {
	if s.cluster != nil {
		s.cluster.refile(s)
	}
}

// Retire stops the server from accepting new jobs. onIdle (optional)
// fires once the last in-flight job completes — immediately if the server
// is already idle. The autoscaler uses this for graceful scale-down.
func (s *AppServer) Retire(onIdle func()) {
	s.retired = true
	s.onIdle = onIdle
	s.refile()
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

// reschedule dates the completion of the head of the threshold heap:
// it moves the pending completion event in place, or schedules one if
// none is pending. A completion is pending exactly while the server
// holds jobs.
func (s *AppServer) reschedule() {
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
	at := s.eng.Now() + sim.Seconds(remaining*float64(len(s.jobs))/speed)
	if s.completion != nil {
		s.eng.Reschedule(s.completion, at)
		return
	}
	s.completion = s.eng.ScheduleAt(at, "lms/complete", s.completeFn)
}

// complete finishes the job at the head of the threshold heap: advance,
// pop, done, reschedule.
func (s *AppServer) complete() {
	s.completion = nil
	s.advance()
	j := s.jobs.pop()
	s.refile()
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
	s.refile()
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
