package event

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"ebbrt/internal/future"
	"ebbrt/internal/sim"
)

// blockOn parks the current event until p resolves, returning
// its value.
func blockOn(t *testing.T, c *Ctx, p future.Promise[int]) int {
	v, err := p.Future().Block(c)
	if err != nil {
		t.Errorf("Block: %v", err)
	}
	return v
}

func TestBlockFromIRQTimerAndIdleHandlers(t *testing.T) {
	k, _, mgrs := newTestEnv(1)
	m := mgrs[0]
	pIRQ, pTimer, pIdle := future.NewPromise[int](), future.NewPromise[int](), future.NewPromise[int]()
	got := map[string]int{}
	at := map[string]sim.Time{}
	record := func(name string, c *Ctx, v int) {
		got[name] = v
		at[name] = c.Now()
	}

	vec := m.AllocateVector(func(c *Ctx) { record("irq", c, blockOn(t, c, pIRQ)) })
	// A device raises the vector from a kernel event while the core is
	// halted, so the handler is dispatched straight from the interrupt.
	k.At(1*sim.Microsecond, func() { m.Core().RaiseIRQ(vec) })
	m.After(2*sim.Microsecond, func(c *Ctx) { record("timer", c, blockOn(t, c, pTimer)) })
	var ih *IdleHandler
	ih = m.AddIdleHandler(func(c *Ctx) {
		m.RemoveIdleHandler(ih)
		record("idle", c, blockOn(t, c, pIdle))
	})
	// Other work keeps running while all three are parked.
	ran := false
	m.After(5*sim.Microsecond, func(*Ctx) { ran = true })
	m.After(10*sim.Microsecond, func(*Ctx) { pIdle.SetValue(1) })
	m.After(20*sim.Microsecond, func(*Ctx) { pIRQ.SetValue(2) })
	m.After(30*sim.Microsecond, func(*Ctx) { pTimer.SetValue(3) })
	k.Run()

	if !ran {
		t.Fatal("event behind the blocked handlers never ran")
	}
	for name, want := range map[string]int{"idle": 1, "irq": 2, "timer": 3} {
		if got[name] != want {
			t.Fatalf("%s handler resumed with %d, want %d (got %v)", name, got[name], want, got)
		}
		if at[name] < sim.Time(want)*10*sim.Microsecond {
			t.Fatalf("%s handler resumed at %v, before its fulfillment", name, at[name])
		}
	}
}

// interleavedBlocks runs one event per core on 4 cores. Each blocks
// three times; the resumes come from a timer on the next core, in an
// order that interleaves the cores differently every round. It returns
// the order and virtual times at which the events resumed.
func interleavedBlocks(t *testing.T) []string {
	k, _, mgrs := newTestEnv(4)
	const rounds = 3
	var trace []string
	promises := make([][]future.Promise[int], len(mgrs))
	for i, m := range mgrs {
		i, m := i, m
		promises[i] = make([]future.Promise[int], rounds)
		for r := range promises[i] {
			promises[i][r] = future.NewPromise[int]()
		}
		m.Spawn(func(c *Ctx) {
			for r := 0; r < rounds; r++ {
				v := blockOn(t, c, promises[i][r])
				c.Charge(sim.Time(100*(i+1)) * sim.Nanosecond)
				trace = append(trace, fmt.Sprintf("core%d r%d v%d @%d", c.Core().ID, r, v, c.Now()))
			}
		})
	}
	for r := 0; r < rounds; r++ {
		for j := range mgrs {
			target := (j*3 + r) % len(mgrs)
			p := promises[target][r]
			resumer := mgrs[(target+1)%len(mgrs)]
			v := r*10 + j
			resumer.After(sim.Time(r*50+j*7+1)*sim.Microsecond, func(*Ctx) { p.SetValue(v) })
		}
	}
	k.Run()
	return trace
}

func TestInterleavedBlockResumeDeterministic(t *testing.T) {
	a, b := interleavedBlocks(t), interleavedBlocks(t)
	if len(a) != 12 {
		t.Fatalf("%d resumes completed, want 12: %v", len(a), a)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("two identical runs diverged at %d:\n%v\n%v", i, a, b)
		}
	}
}

// runPanics runs k and returns what it panicked with, or nil.
func runPanics(k *sim.Kernel) (p any) {
	defer func() { p = recover() }()
	k.Run()
	return nil
}

func TestHandlerPanicReachesRunCaller(t *testing.T) {
	t.Run("before-block", func(t *testing.T) {
		k, _, mgrs := newTestEnv(1)
		mgrs[0].Spawn(func(*Ctx) { panic("early") })
		if p := runPanics(k); p != "early" {
			t.Fatalf("Run panicked with %v, want early", p)
		}
	})
	t.Run("after-resume", func(t *testing.T) {
		k, _, mgrs := newTestEnv(1)
		m := mgrs[0]
		p := future.NewPromise[int]()
		m.Spawn(func(c *Ctx) {
			blockOn(t, c, p)
			panic("late")
		})
		m.After(10*sim.Microsecond, func(*Ctx) { p.SetValue(1) })
		if got := runPanics(k); got != "late" {
			t.Fatalf("Run panicked with %v, want late", got)
		}
	})
	t.Run("after-resume-in-later-call", func(t *testing.T) {
		// The event blocks during one RunUntil and panics during the next.
		k, _, mgrs := newTestEnv(1)
		m := mgrs[0]
		p := future.NewPromise[int]()
		m.Spawn(func(c *Ctx) {
			blockOn(t, c, p)
			panic("later")
		})
		m.After(10*sim.Microsecond, func(*Ctx) { p.SetValue(1) })
		k.RunUntil(5 * sim.Microsecond)
		if got := runPanics(k); got != "later" {
			t.Fatalf("Run panicked with %v, want later", got)
		}
	})
}

func TestStepAroundBlock(t *testing.T) {
	k, _, mgrs := newTestEnv(1)
	m := mgrs[0]
	p := future.NewPromise[int]()
	blocked, finished := false, false
	m.Spawn(func(c *Ctx) {
		blocked = true
		blockOn(t, c, p)
		finished = true
	})
	// Step until the event has blocked: each step that fired an event,
	// the blocking one included, reports true.
	for !blocked {
		if !k.Step() {
			t.Fatal("Step reported an empty queue before the event ran")
		}
	}
	if finished {
		t.Fatal("event finished before it was resumed")
	}
	m.After(10*sim.Microsecond, func(*Ctx) { p.SetValue(1) })
	steps := 0
	for k.Step() {
		steps++
	}
	if !finished {
		t.Fatal("event never finished")
	}
	if steps == 0 {
		t.Fatal("Step fired nothing after the fulfillment was scheduled")
	}
	if k.Step() {
		t.Fatal("Step on a drained kernel reported true")
	}
}

func TestBlockResumeLeavesNoGoroutines(t *testing.T) {
	const events, blocks = 100, 100 // 10k block/resume cycles
	base := runtime.NumGoroutine()
	k, _, mgrs := newTestEnv(2)
	done := 0
	for i := 0; i < events; i++ {
		m := mgrs[i%len(mgrs)]
		m.Spawn(func(c *Ctx) {
			for j := 0; j < blocks; j++ {
				c.Block(func(resume func()) {
					m.After(sim.Microsecond, func(*Ctx) { resume() })
				})
			}
			done++
		})
	}
	// Many calls, so blocked events straddle drivers of different calls.
	for k.Pending() > 0 {
		k.RunFor(50 * sim.Microsecond)
	}
	if done != events {
		t.Fatalf("%d of %d events finished", done, events)
	}
	// A retiring goroutine may still be on its way out.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after 10k block/resume cycles, baseline %d", n, base)
	}
}

// BenchmarkDispatch measures one non-blocking event: a spawned handler
// that spawns its successor, so each op is one pass of the loop.
func BenchmarkDispatch(b *testing.B) {
	k, _, mgrs := newTestEnv(1)
	m := mgrs[0]
	n := 0
	var h Handler
	h = func(*Ctx) {
		n++
		if n < b.N {
			m.Spawn(h)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	m.Spawn(h)
	k.Run()
}

// BenchmarkBlockResume measures one block/resume cycle of an event that
// blocks b.N times, each resumed as soon as it has saved its context.
func BenchmarkBlockResume(b *testing.B) {
	k, _, mgrs := newTestEnv(1)
	m := mgrs[0]
	b.ReportAllocs()
	b.ResetTimer()
	m.Spawn(func(c *Ctx) {
		for i := 0; i < b.N; i++ {
			c.Block(func(resume func()) { resume() })
		}
	})
	k.Run()
}
