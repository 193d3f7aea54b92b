package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// runtimeCounters are the cumulative Go runtime counters read around
// each pass.
type runtimeCounters struct {
	mallocs, allocBytes, gcCycles uint64
	gcCPU                         float64
}

var counterSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/tiny/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

// readCounters samples the runtime counters. Heap objects plus tiny
// objects is the same count runtime.MemStats.Mallocs reports.
func readCounters() runtimeCounters {
	s := make([]metrics.Sample, len(counterSamples))
	for i, name := range counterSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return runtimeCounters{
		mallocs:    s[0].Value.Uint64() + s[1].Value.Uint64(),
		allocBytes: s[2].Value.Uint64(),
		gcCycles:   s[3].Value.Uint64(),
		gcCPU:      s[4].Value.Float64(),
	}
}

func (a runtimeCounters) sub(b runtimeCounters) runtimeCounters {
	return runtimeCounters{
		mallocs:    a.mallocs - b.mallocs,
		allocBytes: a.allocBytes - b.allocBytes,
		gcCycles:   a.gcCycles - b.gcCycles,
		gcCPU:      a.gcCPU - b.gcCPU,
	}
}

// cpuSeconds returns the process's user plus system CPU time, GC work
// included.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // RUSAGE_SELF cannot fail on Linux
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// liveHeap records the live heap each GC cycle reports. A sentinel
// object whose finalizer re-arms a fresh sentinel observes every cycle
// without polling; the finalizer runs on the runtime's finalizer
// goroutine, hence the mutex.
type liveHeap struct {
	mu   sync.Mutex
	live []uint64
}

// sentinel holds a pointer so the allocator never batches it into a
// tiny block, where a finalizer could run late or never.
type sentinel struct {
	_ *int
	_ [8]byte
}

func newLiveHeap() *liveHeap {
	l := &liveHeap{}
	l.arm()
	return l
}

func (l *liveHeap) arm() {
	runtime.SetFinalizer(new(sentinel), func(*sentinel) {
		l.observe()
		l.arm()
	})
}

func (l *liveHeap) observe() {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.live = append(l.live, s[0].Value.Uint64())
}

func (l *liveHeap) reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.live = l.live[:0]
}

// peak returns the 90th percentile (nearest rank) of the live heaps
// the cycles since the last reset reported. The top readings are noise:
// objects allocated while a cycle marks count as live, and a map that
// grows during a cycle is live twice over, so which cycles catch such a
// moment decides the maximum. The 90th percentile reads the level the
// program holds at its busiest.
func (l *liveHeap) peak() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.live) == 0 {
		return 0
	}
	s := slices.Clone(l.live)
	slices.Sort(s)
	return s[(len(s)*90+99)/100-1]
}

// setupChildren is how many times a run measures set-up; setup_s is
// their median.
const setupChildren = 15

// measureSetup starts this binary setupChildren times in set-up-only
// mode and returns the median time from starting a child to its exit:
// process start, runtime and package init, and config and generator
// construction, which is what precedes the first timed pass.
func measureSetup(workload string, seed uint64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, fmt.Errorf("set-up: %w", err)
	}
	times := make([]float64, setupChildren)
	for i := range times {
		cmd := exec.Command(exe, "-setup-only", "-workload", workload, "-seed", strconv.FormatUint(seed, 10))
		cmd.Stderr = os.Stderr
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("set-up child: %w", err)
		}
		times[i] = time.Since(start).Seconds()
	}
	return median(times), nil
}

// median returns the median of xs, or 0 for none. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the
// exclusive method of Python's statistics.quantiles(xs, n=4), the rule
// BENCHMARK.json's spreads are judged by. It needs two or more values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}
