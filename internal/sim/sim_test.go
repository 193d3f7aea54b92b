package sim

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(3*time.Second, "c", func() { got = append(got, 3) })
	e.Schedule(1*time.Second, "a", func() { got = append(got, 1) })
	e.Schedule(2*time.Second, "b", func() { got = append(got, 2) })
	if err := e.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestEngineFIFOAmongSimultaneousEvents(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Second, "same", func() { got = append(got, i) })
	}
	if err := e.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("FIFO violated: got %v", got)
		}
	}
}

func TestEngineClockAdvances(t *testing.T) {
	e := NewEngine(1)
	var at Time
	e.Schedule(5*time.Second, "probe", func() { at = e.Now() })
	if err := e.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if at != 5*time.Second {
		t.Fatalf("Now at event = %v, want 5s", at)
	}
	if e.Now() != 5*time.Second {
		t.Fatalf("final Now = %v, want 5s", e.Now())
	}
}

func TestEngineHorizonStopsAndAdvancesClock(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.Schedule(10*time.Second, "late", func() { fired = true })
	if err := e.Run(4 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if e.Now() != 4*time.Second {
		t.Fatalf("Now = %v, want horizon 4s", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
}

func TestEngineScheduleInPastClamps(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.Schedule(2*time.Second, "outer", func() {
		e.ScheduleAt(0, "past", func() { order = append(order, "past") })
		e.Schedule(0, "now", func() { order = append(order, "now") })
	})
	if err := e.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != 2 || order[0] != "past" || order[1] != "now" {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 2*time.Second {
		t.Fatalf("Now = %v", e.Now())
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.Schedule(time.Second, "x", func() { fired = true })
	e.Cancel(ev)
	if !ev.Canceled() {
		t.Fatal("event not marked canceled")
	}
	if err := e.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired {
		t.Fatal("canceled event fired")
	}
	// Double-cancel and cancel-after-fire must be no-ops.
	e.Cancel(ev)
	ev2 := e.Schedule(time.Second, "y", func() {})
	if err := e.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	e.Cancel(ev2)
}

func TestEngineStop(t *testing.T) {
	e := NewEngine(1)
	count := 0
	for i := 1; i <= 10; i++ {
		e.Schedule(Time(i)*time.Second, "n", func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	if err := e.Run(0); err != ErrStopped {
		t.Fatalf("Run = %v, want ErrStopped", err)
	}
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
}

func TestEngineEvery(t *testing.T) {
	e := NewEngine(1)
	ticks := 0
	stop := e.Every(time.Second, "tick", func() { ticks++ })
	e.Schedule(5500*time.Millisecond, "stop", func() { stop() })
	if err := e.Run(10 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ticks != 5 {
		t.Fatalf("ticks = %d, want 5", ticks)
	}
}

func TestEngineEveryPanicsOnNonPositivePeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-positive period")
		}
	}()
	NewEngine(1).Every(0, "bad", func() {})
}

func TestEngineDeterminism(t *testing.T) {
	run := func(seed uint64) []float64 {
		e := NewEngine(seed)
		var out []float64
		r := e.Stream("load")
		for i := 0; i < 50; i++ {
			d := Seconds(r.Exp(1.0))
			e.Schedule(d*Time(i+1), "ev", func() {
				out = append(out, ToSeconds(e.Now()))
			})
		}
		if err := e.Run(0); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return out
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if i < len(c) && a[i] != c[i] {
			same = false
			break
		}
	}
	if same && len(a) == len(c) {
		t.Fatal("different seeds produced identical runs")
	}
}

// Property: for any batch of delays, events fire in nondecreasing time
// order and the count matches.
func TestEngineOrderingProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		e := NewEngine(7)
		var times []Time
		for _, d := range delays {
			d := Time(d) * time.Millisecond
			e.Schedule(d, "p", func() { times = append(times, e.Now()) })
		}
		if err := e.Run(0); err != nil {
			return false
		}
		if len(times) != len(delays) {
			return false
		}
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleNilFnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for nil Fn")
		}
	}()
	NewEngine(1).Schedule(time.Second, "nil", nil)
}

func TestSecondsRoundTrip(t *testing.T) {
	for _, s := range []float64{0, 0.001, 1, 3600, 86400} {
		if got := ToSeconds(Seconds(s)); got != s {
			t.Fatalf("round trip %g -> %g", s, got)
		}
	}
}

func TestFiredCounts(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 7; i++ {
		e.Schedule(Time(i)*time.Millisecond, "n", func() {})
	}
	if err := e.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if e.Fired() != 7 {
		t.Fatalf("Fired = %d, want 7", e.Fired())
	}
}

// TestPendingExactAfterCancel checks that Pending counts only live events
// as soon as a batch of cancels returns, and that no canceled event fires.
func TestPendingExactAfterCancel(t *testing.T) {
	e := NewEngine(3)
	rng := NewRNG(17)
	events := make([]*Event, 100)
	for i := range events {
		at := Time(rng.Intn(int(40 * time.Second)))
		events[i] = e.ScheduleAt(at, "x", func() {})
	}
	for i := 0; i < 37; i++ {
		e.Cancel(events[i])
	}
	if got := e.Pending(); got != 63 {
		t.Fatalf("Pending after cancels = %d, want 63", got)
	}
	if err := e.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := e.Fired(); got != 63 {
		t.Fatalf("Fired = %d, want 63", got)
	}
}

// TestWheelEqualTimeFIFO pins FIFO among equal-time events: they fire in
// scheduling order even when one is scheduled at the same instant while
// that instant is being drained. (The name predates the single queue.)
func TestWheelEqualTimeFIFO(t *testing.T) {
	e := NewEngine(1)
	var got []string
	at := 5 * time.Millisecond
	for _, name := range []string{"first", "second", "third"} {
		name := name
		e.ScheduleAt(at, name, func() {
			got = append(got, name)
			if name == "first" {
				e.ScheduleAt(at, "nested", func() { got = append(got, "nested") })
			}
		})
	}
	if err := e.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"first", "second", "third", "nested"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fire order = %v, want %v", got, want)
	}
}

// TestWheelHorizon checks the peek path: Run fires the event inside the
// horizon, leaves the later one pending and parks the clock at the
// horizon. (The name predates the single queue.)
func TestWheelHorizon(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	e.Schedule(time.Second, "near", func() { fired++ })
	e.Schedule(10*time.Second, "far", func() { fired++ })
	if err := e.Run(5 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != 1 || e.Pending() != 1 || e.Now() != 5*time.Second {
		t.Fatalf("fired=%d pending=%d now=%v", fired, e.Pending(), e.Now())
	}
}

// TestEventFreeList pins struct reuse: both a fired and a canceled
// event's struct must come back from the free list for the next schedule.
func TestEventFreeList(t *testing.T) {
	e := NewEngine(1)
	ev1 := e.Schedule(time.Millisecond, "a", func() {})
	if !e.Step() {
		t.Fatal("Step returned false")
	}
	ev2 := e.Schedule(time.Millisecond, "b", func() {})
	if ev1 != ev2 {
		t.Fatal("fired event struct was not reused from the free list")
	}
	e.Cancel(ev2)
	if !ev2.Canceled() {
		t.Fatal("canceled event not marked canceled")
	}
	ev3 := e.Schedule(time.Millisecond, "c", func() {})
	if ev3 != ev2 {
		t.Fatal("canceled event struct was not reused from the free list")
	}
}

// queueModel is what queueDriver needs from an event queue, so the same
// randomized workload can drive the engine and the brute-force reference.
type queueModel interface {
	schedule(d Time, name string, fn func()) (cancel func())
	now() Time
	fired() uint64
	run() error
}

type engineModel struct{ e *Engine }

func (m engineModel) schedule(d Time, name string, fn func()) func() {
	ev := m.e.Schedule(d, name, fn)
	return func() { m.e.Cancel(ev) }
}

func (m engineModel) now() Time     { return m.e.Now() }
func (m engineModel) fired() uint64 { return m.e.Fired() }
func (m engineModel) run() error    { return m.e.Run(0) }

// refQueue is the reference queue: an unordered slice, scanned in full
// for the minimum (at, seq) on every pop.
type refQueue struct {
	clock   Time
	seq     uint64
	n       uint64
	pending []*refEvent
}

type refEvent struct {
	at  Time
	seq uint64
	fn  func()
}

func (r *refQueue) schedule(d Time, _ string, fn func()) func() {
	ev := &refEvent{at: r.clock + d, seq: r.seq, fn: fn}
	r.seq++
	r.pending = append(r.pending, ev)
	return func() {
		for i, p := range r.pending {
			if p == ev {
				r.pending = append(r.pending[:i], r.pending[i+1:]...)
				return
			}
		}
	}
}

func (r *refQueue) now() Time     { return r.clock }
func (r *refQueue) fired() uint64 { return r.n }

func (r *refQueue) run() error {
	for len(r.pending) > 0 {
		b := 0
		for i, p := range r.pending {
			q := r.pending[b]
			if p.at < q.at || p.at == q.at && p.seq < q.seq {
				b = i
			}
		}
		ev := r.pending[b]
		r.pending = append(r.pending[:b], r.pending[b+1:]...)
		r.clock = ev.at
		r.n++
		ev.fn()
	}
	return nil
}

// queueDriver runs a randomized schedule/cancel workload against one
// queue and records the exact fire/cancel sequence. It honors the Event
// pooling contract: the driver forgets a handle the moment its event
// fires or is canceled, so it never Cancels a recycled struct.
type queueDriver struct {
	q       queueModel
	rng     *RNG
	log     []string
	pending []pendingEvent
	next    int
}

type pendingEvent struct {
	name   string
	cancel func()
}

func (d *queueDriver) forget(name string) {
	for i, p := range d.pending {
		if p.name == name {
			d.pending = append(d.pending[:i], d.pending[i+1:]...)
			return
		}
	}
}

// randomDelay mixes zero delays (ties with the event firing now), near
// delays that sift a few levels, and far ones that sink to the leaves.
func (d *queueDriver) randomDelay() Time {
	switch d.rng.Intn(10) {
	case 0:
		return 0
	case 1, 2, 3:
		return Time(d.rng.Intn(int(50 * time.Millisecond)))
	case 4, 5, 6, 7:
		return Time(d.rng.Intn(int(2 * time.Second)))
	case 8:
		return Time(d.rng.Intn(int(40 * time.Second)))
	default:
		return Time(d.rng.Intn(int(5 * time.Minute)))
	}
}

func (d *queueDriver) schedule() {
	d.next++
	name := fmt.Sprintf("ev%d", d.next)
	cancel := d.q.schedule(d.randomDelay(), name, func() {
		d.forget(name)
		d.log = append(d.log, fmt.Sprintf("%s@%d", name, d.q.now()))
		if d.q.fired() < 20000 {
			for i, n := 0, d.rng.Intn(4); i < n; i++ {
				d.schedule()
			}
		}
		if len(d.pending) > 0 && d.rng.Float64() < 0.25 {
			victim := d.pending[d.rng.Intn(len(d.pending))]
			d.log = append(d.log, "cancel:"+victim.name)
			d.forget(victim.name)
			victim.cancel()
		}
	})
	d.pending = append(d.pending, pendingEvent{name, cancel})
}

// TestQueueMatchesReference is the queue's differential test: the engine
// must fire and cancel a randomized workload in exactly the order the
// brute-force reference does — the (At, seq) order every golden rests on.
func TestQueueMatchesReference(t *testing.T) {
	run := func(q queueModel) *queueDriver {
		d := &queueDriver{q: q, rng: NewRNG(99)}
		for i := 0; i < 64; i++ {
			d.schedule()
		}
		if err := q.run(); err != nil {
			t.Fatalf("run: %v", err)
		}
		return d
	}
	eng := NewEngine(7)
	got, want := run(engineModel{eng}), run(&refQueue{})
	if len(got.log) != len(want.log) {
		t.Fatalf("log length: engine %d, reference %d", len(got.log), len(want.log))
	}
	for i := range got.log {
		if got.log[i] != want.log[i] {
			t.Fatalf("logs diverge at %d: engine %q, reference %q", i, got.log[i], want.log[i])
		}
	}
	if len(got.log) < 20000 {
		t.Fatalf("workload too small to be meaningful: %d entries", len(got.log))
	}
	if got.q.fired() != want.q.fired() || got.q.now() != want.q.now() {
		t.Fatalf("engine fired %d by %v, reference %d by %v",
			got.q.fired(), got.q.now(), want.q.fired(), want.q.now())
	}
	if eng.Pending() != 0 {
		t.Fatalf("Pending = %d after drain", eng.Pending())
	}
}

// BenchmarkEngineStep measures the event hot loop in the two regimes the
// simulator's workloads split on: dense, 4096 self-rescheduling chains
// with 1–100 ms delays (a large MOOC run's pending set), and sparse, 16
// chains with 1–60 min delays (a week-long run's timers and failure
// processes).
func BenchmarkEngineStep(b *testing.B) {
	for _, bc := range []struct {
		name   string
		chains int
		lo, hi Time
	}{
		{"dense", 4096, time.Millisecond, 100 * time.Millisecond},
		{"sparse", 16, time.Minute, time.Hour},
	} {
		b.Run(bc.name, func(b *testing.B) {
			e := NewEngine(1)
			rng := NewRNG(2)
			delay := func() Time { return bc.lo + Time(rng.Intn(int(bc.hi-bc.lo))) }
			for i := 0; i < bc.chains; i++ {
				var fn func()
				fn = func() { e.Schedule(delay(), "tick", fn) }
				e.Schedule(delay(), "tick", fn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}
