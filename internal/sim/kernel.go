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

// Event is a handle to a scheduled callback: a small value that names
// the kernel slot the event holds plus the generation it was issued
// under. Popping an event frees its slot for reuse under the next
// generation, so a handle kept past its event can never cancel a later
// event that reuses the slot. The zero Event names no event.
type Event struct {
	k    *Kernel
	slot int32
	gen  uint32
}

// Cancel prevents the event from firing. Cancelling an event that has
// already fired or been cancelled, or the zero Event, is a no-op. Cancel
// reports whether the event was still pending.
func (e Event) Cancel() bool {
	if e.k == nil {
		return false
	}
	s := &e.k.slots[e.slot]
	if s.gen != e.gen || s.canceled {
		return false
	}
	s.canceled = true
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
	// slots holds per-event cancellation state, indexed by the queue
	// entries and the handles; free lists the slots not in use.
	slots []slot
	free  []int32
	// fired counts events executed; useful for debugging runaway loops.
	fired uint64
	// drv is the goroutine driving the current Run, RunUntil or Step
	// call; nil between calls.
	drv *driver
	// spare is a finished call kept for the next Run, RunUntil or Step,
	// and startDriver is k.loop on k.drv as a func value made once: with
	// both, a call allocates nothing.
	spare       *call
	startDriver func()
}

// slot is the cancellation state of the event holding it.
type slot struct {
	gen      uint32
	canceled bool
}

// NewKernel returns an empty kernel at virtual time zero.
func NewKernel() *Kernel {
	k := &Kernel{}
	k.startDriver = func() { k.loop(k.drv) }
	return k
}

// Now reports the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Pending reports the number of events that are scheduled and not cancelled.
func (k *Kernel) Pending() int {
	n := 0
	for _, e := range k.queue {
		if !k.slots[e.slot].canceled {
			n++
		}
	}
	return n
}

// Fired reports how many events have executed since the kernel was created.
func (k *Kernel) Fired() uint64 { return k.fired }

// At schedules fn to run at virtual time t. Scheduling in the past is a
// programming error and panics: it would silently reorder causality.
func (k *Kernel) At(t Time, fn func()) Event {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	var s int32
	if n := len(k.free); n > 0 {
		s = k.free[n-1]
		k.free = k.free[:n-1]
	} else {
		s = int32(len(k.slots))
		k.slots = append(k.slots, slot{})
	}
	k.queue.push(entry{at: t, seq: k.seq, fn: fn, slot: s})
	k.seq++
	return Event{k: k, slot: s, gen: k.slots[s].gen}
}

// After schedules fn to run d nanoseconds of virtual time from now.
// Negative delays are clamped to zero.
func (k *Kernel) After(d Time, fn func()) Event {
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
	go k.startDriver()
}

// call is one Run, RunUntil or Step invocation.
type call struct {
	limit  Time     // fire events at or before limit
	single bool     // Step: stop after one event
	fired  bool     // an event fired (Step's result)
	done   chan any // the final driver sends nil, or a callback's panic
	// drv0 is the driver the call starts on. A call whose drv0 detached
	// is never reused: that driver's goroutine still reads it.
	drv0 driver
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
	c := k.spare
	if c == nil {
		c = &call{done: make(chan any, 1)}
	}
	k.spare = nil
	c.limit, c.single, c.fired = limit, single, false
	c.drv0 = driver{call: c}
	outer := k.drv
	k.drv = &c.drv0
	go k.startDriver()
	p := <-c.done
	k.drv = outer
	if !c.drv0.detached {
		k.spare = c
	}
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
		e, ok := k.pop(c.limit)
		if !ok {
			break
		}
		c.fired = true
		k.now = e.at
		k.fired++
		e.fn()
	}
	ended = true
	c.done <- nil
}

// pop removes and returns the earliest live event at or before limit,
// releasing the slot of every event it takes off the queue and
// discarding the cancelled ones it meets at the top.
func (k *Kernel) pop(limit Time) (entry, bool) {
	for len(k.queue) > 0 {
		top := &k.queue[0]
		s := &k.slots[top.slot]
		if !s.canceled && top.at > limit {
			break
		}
		e := k.queue.popTop()
		canceled := s.canceled
		s.gen++
		s.canceled = false
		k.free = append(k.free, e.slot)
		if !canceled {
			return e, true
		}
	}
	return entry{}, false
}

// entry is one scheduled event as the queue holds it, by value.
type entry struct {
	at   Time
	seq  uint64
	fn   func()
	slot int32
}

func (e *entry) before(o *entry) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// eventQueue is a binary min-heap of entries ordered by (time, sequence).
// The order is total, so the pop sequence is fully determined.
type eventQueue []entry

func (q *eventQueue) push(e entry) {
	h := append(*q, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	*q = h
}

// popTop removes and returns the root of a non-empty heap.
func (q *eventQueue) popTop() entry {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = entry{}
	h = h[:n]
	if n > 0 {
		siftDown(h, last)
	}
	*q = h
	return top
}

// siftDown places e, taken from the tail, into the hole at the root.
func siftDown(h []entry, e entry) {
	n := len(h)
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&e) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = e
}
