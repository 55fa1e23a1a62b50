// Package event implements EbbRT's non-preemptive event-driven execution
// environment (paper §2.3, §3.2).
//
// One event loop runs per core. A registered handler is invoked with
// interrupts disabled and runs to completion without preemption. When an
// event completes the manager (1) opens a brief interrupt window and
// dispatches any pending hardware interrupts, (2) dispatches one synthetic
// (Spawned) event, (3) invokes all IdleHandlers, and (4) enables interrupts
// and halts - restarting the loop whenever any step invoked a handler. This
// gives hardware interrupts and synthetic events priority over repeatedly
// invoked idle handlers, which is what lets device drivers implement
// adaptive polling.
//
// Handlers account for the virtual CPU time they consume via Ctx.Charge;
// the core is busy for that long before the loop continues. A handler is
// called directly on the simulation kernel's loop and runs to completion
// there, as on EbbRT's per-core event stack. Only an event that blocks
// (Ctx.Block, the paper's save/restore of event state) leaves the loop:
// its goroutine keeps the saved stack and the kernel's loop carries on on
// a fresh goroutine (see activation.go).
package event

import (
	"fmt"
	"runtime"

	"ebbrt/internal/machine"
	"ebbrt/internal/sim"
)

// Reserved interrupt vectors.
const (
	// VecIPI is the inter-processor interrupt used to kick a halted core
	// when another core spawns an event on it.
	VecIPI = 0
	// VecTimer is the per-core timer interrupt.
	VecTimer = 1
	// vecFirstAllocatable is the first vector handed to devices.
	vecFirstAllocatable = 32
)

// Costs are the runtime-level costs of the native environment. They are
// deliberately small: the paper's point is that the path from interrupt to
// application is short.
type Costs struct {
	// EventDispatch is charged per handler invocation (loop bookkeeping,
	// branch to handler).
	EventDispatch sim.Time
	// IdlePoll is the minimum charge for one pass over the idle handlers,
	// bounding the virtual-time cost of a polling spin.
	IdlePoll sim.Time
	// ContextSave is charged when an event saves its state to block, and
	// again when it is reactivated (paper §3.2 save/restore).
	ContextSave sim.Time
}

// DefaultCosts returns the calibrated native runtime costs.
func DefaultCosts() Costs {
	return Costs{
		EventDispatch: 60 * sim.Nanosecond,
		IdlePoll:      80 * sim.Nanosecond,
		ContextSave:   120 * sim.Nanosecond,
	}
}

// Handler is an event handler. It runs non-preemptively on one core.
type Handler func(*Ctx)

// synthItem is one entry of the synthetic event queue: either a fresh
// spawned handler or the resumption of a blocked event context.
type synthItem struct {
	fn  Handler
	act *activation
}

// Manager is the per-core EventManager Ebb.
type Manager struct {
	core  *machine.Core
	k     *sim.Kernel
	costs Costs

	handlers map[int]Handler
	nextVec  int

	synth      sim.FIFO[synthItem]
	idle       []*IdleHandler
	timerReady sim.FIFO[*timer]
	// timers holds timer records free for reuse.
	timers []*timer
	// step is m.process as a func value, made once: every event
	// schedules it, and a fresh method value would allocate each time.
	step func()

	// Dispatched counts handler invocations, for tests and stats.
	Dispatched uint64
}

// IdleHandler is a registered idle callback; keep the pointer to remove it.
type IdleHandler struct {
	fn      Handler
	removed bool
}

// NewManager creates the event manager for a core and installs itself as
// the core's interrupt dispatcher. The core starts halted with interrupts
// enabled, awaiting its first event.
func NewManager(core *machine.Core, costs Costs) *Manager {
	m := &Manager{
		core:     core,
		k:        core.M.K,
		costs:    costs,
		handlers: map[int]Handler{},
		nextVec:  vecFirstAllocatable,
	}
	m.step = m.process
	m.handlers[VecIPI] = func(*Ctx) {}
	m.handlers[VecTimer] = func(c *Ctx) {
		// Timers that fire while these run raise VecTimer again.
		for n := m.timerReady.Len(); n > 0; n-- {
			t, _ := m.timerReady.Pop()
			fn := t.fn
			t.release()
			if fn != nil { // nil: cancelled while it waited
				fn(c)
			}
		}
	}
	core.SetDispatcher(m.onIRQ)
	core.EnableInterrupts()
	core.Halt()
	return m
}

// Core returns the core this manager drives.
func (m *Manager) Core() *machine.Core { return m.core }

// Kernel returns the simulation kernel.
func (m *Manager) Kernel() *sim.Kernel { return m.k }

// AllocateVector allocates a fresh interrupt vector bound to h, the
// interface device drivers use (paper §3.2).
func (m *Manager) AllocateVector(h Handler) int {
	v := m.nextVec
	m.nextVec++
	m.handlers[v] = h
	return v
}

// Bind replaces the handler for an existing vector.
func (m *Manager) Bind(vec int, h Handler) { m.handlers[vec] = h }

// Spawn queues fn to run as a synthetic event on this core. Spawned events
// run once; for recurring work install an IdleHandler.
func (m *Manager) Spawn(fn Handler) {
	m.synth.Push(synthItem{fn: fn})
	m.kick()
}

// After schedules fn to run as a timer event after d of virtual time and
// returns a handle that can cancel it.
func (m *Manager) After(d sim.Time, fn Handler) Timer {
	var t *timer
	if n := len(m.timers); n > 0 {
		t = m.timers[n-1]
		m.timers = m.timers[:n-1]
	} else {
		t = &timer{m: m}
		t.fire = t.expire
	}
	t.fn = fn
	t.ev = m.k.After(d, t.fire)
	return Timer{t: t, gen: t.gen}
}

// Timer is a handle to a timer set with Manager.After. The zero Timer
// names no timer.
type Timer struct {
	t   *timer
	gen uint32
}

// Cancel stops the timer's handler from running and reports whether it
// was still pending. It holds until the handler runs: both while the
// timer's kernel event is scheduled and after it has fired, while the
// handler waits behind VecTimer for the core. Cancelling a timer whose
// handler has run or that was already cancelled, or the zero Timer, is a
// no-op.
func (h Timer) Cancel() bool {
	t := h.t
	if t == nil || t.gen != h.gen || t.fn == nil {
		return false
	}
	t.fn = nil
	if t.ev.Cancel() {
		t.release() // never fired; a latched one is released on dispatch
	}
	return true
}

// timer is one timer from After until its handler runs or it is
// cancelled. Records are reused through the manager's free list, each
// under a new generation, so a handle kept past its timer names nothing.
type timer struct {
	m    *Manager
	gen  uint32
	fn   Handler   // nil once cancelled
	ev   sim.Event // the kernel event, until it fires
	fire func()    // t.expire, bound once
}

// expire is the timer's kernel event: it latches the timer behind the
// core's timer interrupt.
func (t *timer) expire() {
	t.ev = sim.Event{}
	t.m.timerReady.Push(t)
	t.m.core.RaiseIRQ(VecTimer)
}

func (t *timer) release() {
	t.gen++
	t.fn = nil
	t.ev = sim.Event{}
	t.m.timers = append(t.m.timers, t)
}

// AddIdleHandler installs fn to be invoked on every pass of the event loop
// when the core would otherwise halt - the polling building block.
func (m *Manager) AddIdleHandler(fn Handler) *IdleHandler {
	ih := &IdleHandler{fn: fn}
	m.idle = append(m.idle, ih)
	m.kick()
	return ih
}

// RemoveIdleHandler uninstalls a previously added idle handler.
func (m *Manager) RemoveIdleHandler(ih *IdleHandler) {
	ih.removed = true
	for i, cur := range m.idle {
		if cur == ih {
			m.idle = append(m.idle[:i], m.idle[i+1:]...)
			return
		}
	}
}

// IdleHandlerCount reports installed idle handlers (drivers use it to tell
// whether they are in polling mode; tests too).
func (m *Manager) IdleHandlerCount() int { return len(m.idle) }

// kick wakes a halted core so the loop notices queued synthetic work.
func (m *Manager) kick() {
	if m.core.Halted() {
		m.core.RaiseIRQ(VecIPI)
	}
}

// onIRQ is the interrupt entry point: the core was halted with interrupts
// enabled and vector vec fired.
func (m *Manager) onIRQ(vec int) {
	m.core.DisableInterrupts()
	m.runHandler(vec, m.core.M.Cfg.Costs.InterruptEntry)
}

// runHandler executes the handler for vec, charging base cost plus whatever
// the handler itself charges, then continues the loop at completion time.
func (m *Manager) runHandler(vec int, base sim.Time) {
	h, ok := m.handlers[vec]
	if !ok {
		panic(fmt.Sprintf("event: core %d received unbound vector %d", m.core.ID, vec))
	}
	m.exec(h, base+m.costs.EventDispatch)
}

// exec runs fn in place on the kernel's loop, then schedules the next
// loop step after the charged time. If fn blocks, Block has already
// continued the loop at the charge accumulated so far, and this goroutine
// now belongs to the event: finish reports the event's end to whichever
// goroutine resumed it.
func (m *Manager) exec(fn Handler, base sim.Time) {
	m.Dispatched++
	ctx := &Ctx{m: m, charge: base}
	defer ctx.finish()
	fn(ctx)
	if ctx.act == nil {
		m.k.After(ctx.charge, m.step)
	}
}

// resumeActivation continues a previously blocked activation as an event.
func (m *Manager) resumeActivation(act *activation) {
	m.Dispatched++
	ctx := act.ctx
	ctx.charge = m.costs.EventDispatch + m.costs.ContextSave
	act.resume <- struct{}{}
	switch <-act.state {
	case actBlocked:
		ctx.charge += m.costs.ContextSave
	case actPanicked:
		panic(act.panicked)
	}
	m.k.After(ctx.charge, m.step)
}

// process is the event loop: it runs each time the core finishes an event.
func (m *Manager) process() {
	// (1) pending hardware interrupts get priority.
	if vec, ok := m.core.PopPending(); ok {
		m.runHandler(vec, m.core.M.Cfg.Costs.InterruptEntry)
		return
	}
	// (2) one synthetic event (spawn or blocked-context resumption).
	if item, ok := m.synth.Pop(); ok {
		if item.act != nil {
			m.resumeActivation(item.act)
		} else {
			m.exec(item.fn, 0)
		}
		return
	}
	// (3) all idle handlers, as one pass.
	if len(m.idle) > 0 {
		snapshot := append([]*IdleHandler(nil), m.idle...)
		m.exec(func(c *Ctx) {
			for _, ih := range snapshot {
				if !ih.removed {
					ih.fn(c)
				}
			}
			if c.charge < m.costs.IdlePoll {
				c.charge = m.costs.IdlePoll
			}
		}, 0)
		return
	}
	// (4) nothing to do: enable interrupts and halt.
	m.core.EnableInterrupts()
	m.core.Halt()
}

// Ctx is the context of the currently executing event. It provides virtual
// CPU accounting and the save/restore blocking facility. A Ctx is only
// valid during its event's execution: charging one whose event has
// finished panics, since the charge would be lost.
type Ctx struct {
	m      *Manager
	act    *activation // nil until the event first blocks
	charge sim.Time
	done   bool // the event has finished
}

// Manager returns the event manager for the executing core.
func (c *Ctx) Manager() *Manager { return c.m }

// Core returns the executing core.
func (c *Ctx) Core() *machine.Core { return c.m.core }

// Now reports the virtual time at which the current event was dispatched.
func (c *Ctx) Now() sim.Time { return c.m.k.Now() }

// Charge accounts d of CPU time to the current event.
func (c *Ctx) Charge(d sim.Time) {
	c.live()
	if d > 0 {
		c.charge += d
	}
}

// live panics if c's event has finished.
func (c *Ctx) live() {
	if c.done {
		panic("event: Ctx used after its event finished")
	}
}

// ChargeCycles accounts n CPU cycles at the core's clock rate.
func (c *Ctx) ChargeCycles(n float64) { c.Charge(c.m.core.Cycles(n)) }

// Charged reports the total accounted so far.
func (c *Ctx) Charged() sim.Time {
	c.live()
	return c.charge
}

// Block suspends the current event (the paper's "save event state"),
// letting the core process other events. register receives a resume
// function; invoking it reactivates this event as if by ActivateContext.
// Block satisfies future.Blocker, so f.Block(ctx) awaits a future with
// blocking semantics.
//
// Block must be called from an event the loop dispatched (a spawned,
// interrupt, timer, idle or resumed event) during Run, RunUntil or Step,
// not from a handler that another handler's Spawn or RaiseIRQ ran
// synchronously: the first Block hands the loop on, so nothing beneath
// the blocking event on its stack may still have work to do.
func (c *Ctx) Block(register func(resume func())) {
	first := c.act == nil
	if first {
		c.act = &activation{
			state:  make(chan actState),
			resume: make(chan struct{}),
			ctx:    c,
		}
	}
	act := c.act
	resumed := false
	register(func() {
		if resumed {
			panic("event: context resumed twice")
		}
		resumed = true
		c.m.synth.Push(synthItem{act: act})
		c.m.kick()
	})
	if first {
		// SaveContext: the core is free once the save is charged, and
		// the rest of the loop moves to a fresh goroutine.
		c.charge += c.m.costs.ContextSave
		c.m.k.After(c.charge, c.m.step)
		c.m.k.Detach()
	} else {
		act.state <- actBlocked
	}
	<-act.resume
}

// finish runs as exec returns. An event that never blocked needs
// nothing: its goroutine is still the loop's. One that blocked is on its
// own goroutine, above loop frames that have since moved on, so it
// reports done (or its panic) to the goroutine that resumed it and exits
// instead of returning into them.
func (c *Ctx) finish() {
	c.done = true
	act := c.act
	if act == nil {
		return
	}
	if p := recover(); p != nil {
		act.panicked = p
		act.state <- actPanicked
	} else {
		act.state <- actDone
	}
	runtime.Goexit()
}
