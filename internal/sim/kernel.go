// Package sim provides the deterministic discrete-event simulation substrate
// on which the EbbRT reproduction runs: a virtual-time event kernel, a
// seedable random number generator, and latency statistics.
//
// All macro-experiments in the paper (Figures 4-7, Table 2) execute on this
// kernel so that results are exactly reproducible run-to-run. Virtual time
// is measured in nanoseconds and stored as an int64, which covers simulations
// of roughly 292 years - far beyond anything the harnesses schedule.
package sim

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Common virtual-time unit constants.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Duration converts a standard library duration to virtual nanoseconds.
func Duration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Std converts a virtual time span back to a standard library duration.
func (t Time) Std() time.Duration { return time.Duration(t) }

// Micros reports t as fractional microseconds, convenient for experiment
// output that mirrors the paper's latency tables.
func (t Time) Micros() float64 { return float64(t) / 1e3 }

// String renders the time with microsecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fus", t.Micros()) }

// Event is a scheduled callback. It may be cancelled before it fires.
type Event struct {
	at       Time
	seq      uint64
	fn       func()
	canceled bool
	fired    bool
}

// At reports the virtual time the event is scheduled to fire.
func (e *Event) At() Time { return e.at }

// Cancel prevents the event from firing. Cancelling an event that has
// already fired or been cancelled is a no-op. Cancel reports whether the
// event was still pending.
func (e *Event) Cancel() bool {
	if e.canceled || e.fired {
		return false
	}
	e.canceled = true
	return true
}

// Kernel is a single-threaded discrete-event executor. Events scheduled for
// the same instant fire in scheduling order (FIFO), making every simulation
// deterministic. Kernel is not safe for concurrent use.
//
// Run, RunUntil and Step fire events on a driver goroutine while the
// caller waits, so an event callback can park its goroutine mid-way (the
// event package's blocking contexts) without stalling the simulation: it
// calls Detach first, which hands the rest of the call's loop to a fresh
// driver. Exactly one goroutine touches the kernel at any moment, so
// determinism holds. A panic in a callback is re-raised in the caller.
type Kernel struct {
	now   Time
	seq   uint64
	queue eventQueue
	// fired counts events executed; useful for debugging runaway loops.
	fired uint64
	// drv is the goroutine driving the current Run, RunUntil or Step
	// call; nil between calls.
	drv *driver
}

// NewKernel returns an empty kernel at virtual time zero.
func NewKernel() *Kernel { return &Kernel{} }

// Now reports the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Pending reports the number of events that are scheduled and not cancelled.
func (k *Kernel) Pending() int {
	n := 0
	for _, e := range k.queue {
		if !e.canceled {
			n++
		}
	}
	return n
}

// Fired reports how many events have executed since the kernel was created.
func (k *Kernel) Fired() uint64 { return k.fired }

// At schedules fn to run at virtual time t. Scheduling in the past is a
// programming error and panics: it would silently reorder causality.
func (k *Kernel) At(t Time, fn func()) *Event {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	e := &Event{at: t, seq: k.seq, fn: fn}
	k.seq++
	k.queue.push(e)
	return e
}

// After schedules fn to run d nanoseconds of virtual time from now.
// Negative delays are clamped to zero.
func (k *Kernel) After(d Time, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return k.At(k.now+d, fn)
}

// Step executes the earliest pending event, advancing virtual time to its
// timestamp. It reports false when no events remain.
func (k *Kernel) Step() bool { return k.drive(math.MaxInt64, true) }

// Run executes events until none remain.
func (k *Kernel) Run() { k.drive(math.MaxInt64, false) }

// RunUntil executes events with timestamps <= t, then advances the clock to
// exactly t (even if the queue drained earlier).
func (k *Kernel) RunUntil(t Time) {
	k.drive(t, false)
	if k.now < t {
		k.now = t
	}
}

// RunFor executes events for d nanoseconds of virtual time from now.
func (k *Kernel) RunFor(d Time) { k.RunUntil(k.now + d) }

// Detach hands the loop of the current Run, RunUntil or Step call to a
// fresh driver goroutine: the paper's SaveContext, seen from the kernel.
// The calling event callback must then park its goroutine, touch the
// kernel again only when another goroutine hands it control, and never
// return into the kernel: it ends with runtime.Goexit.
func (k *Kernel) Detach() {
	d := k.drv
	if d == nil {
		panic("sim: Detach outside Run, RunUntil or Step")
	}
	d.detached = true
	k.drv = &driver{call: d.call}
	go k.loop(k.drv)
}

// call is one Run, RunUntil or Step invocation.
type call struct {
	limit  Time     // fire events at or before limit
	single bool     // Step: stop after one event
	fired  bool     // an event fired (Step's result)
	done   chan any // the final driver sends nil, or a callback's panic
}

// driver is one goroutine driving a call's loop.
type driver struct {
	call     *call
	detached bool // a callback on this goroutine passed the loop on
}

// errGoexit is re-raised in the caller when a callback ends its driver
// goroutine (runtime.Goexit, testing's FailNow) without detaching.
var errGoexit = errors.New("sim: event callback exited its goroutine without Detach")

// drive runs one call's loop on a driver goroutine and waits for it.
func (k *Kernel) drive(limit Time, single bool) bool {
	c := &call{limit: limit, single: single, done: make(chan any, 1)}
	outer := k.drv
	k.drv = &driver{call: c}
	go k.loop(k.drv)
	p := <-c.done
	k.drv = outer
	if p != nil {
		panic(p)
	}
	return c.fired
}

// loop fires events for d's call until it is satisfied.
func (k *Kernel) loop(d *driver) {
	c := d.call
	ended := false
	defer func() {
		if ended || d.detached {
			return // finished, or a detached callback's goroutine retiring
		}
		p := recover()
		if p == nil {
			p = errGoexit
		}
		c.done <- p
	}()
	for !(c.single && c.fired) {
		e := k.queue.popUntil(c.limit)
		if e == nil {
			break
		}
		c.fired = true
		k.now = e.at
		e.fired = true
		k.fired++
		e.fn()
	}
	ended = true
	c.done <- nil
}

// eventQueue is a binary min-heap of events ordered by (time, sequence).
// The order is total, so the pop sequence is fully determined.
type eventQueue []*Event

func (e *Event) before(o *Event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

func (q *eventQueue) push(e *Event) {
	h := append(*q, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	*q = h
}

// popUntil removes and returns the earliest live event at or before
// limit, discarding cancelled events it meets at the top; nil if none.
func (q *eventQueue) popUntil(limit Time) *Event {
	for h := *q; len(h) > 0; h = *q {
		e := h[0]
		if !e.canceled && e.at > limit {
			return nil
		}
		n := len(h) - 1
		last := h[n]
		h[n] = nil
		h = h[:n]
		if n > 0 {
			siftDown(h, last)
		}
		*q = h
		if !e.canceled {
			return e
		}
	}
	return nil
}

// siftDown places e, taken from the tail, into the hole at the root.
func siftDown(h []*Event, e *Event) {
	n := len(h)
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(e) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = e
}
