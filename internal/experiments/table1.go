package experiments

import (
	"fmt"
	"time"

	"ebbrt/internal/core"
)

// PaperGHz converts wall-clock nanoseconds to cycles at the paper's
// 2.6 GHz clock so Table 1 is comparable.
const PaperGHz = 2.6

// counterRep is the microbenchmark target: an object with an empty method.
type counterRep struct{ n int }

// Bump is the inlinable empty-ish method (a single field add keeps the
// compiler from eliding the loop entirely).
func (c *counterRep) Bump() { c.n++ }

// BumpNoInline is the same method with inlining disabled, the paper's
// "No Inline" row.
//
//go:noinline
func (c *counterRep) BumpNoInline() { c.n++ }

// bumper is the interface used for the "Virtual" row: dynamic dispatch
// through an interface, Go's analogue of a C++ virtual call with
// devirtualization disabled.
type bumper interface{ BumpVirtual() }

// BumpVirtual implements bumper.
func (c *counterRep) BumpVirtual() { c.n++ }

// secondRep exists so the call site is polymorphic and the compiler
// cannot devirtualize the interface call.
type secondRep struct{ n int }

// BumpVirtual implements bumper.
func (s *secondRep) BumpVirtual() { s.n++ }

// DispatchRow is one row of Table 1: cycles per 1000 invocations.
type DispatchRow struct {
	Method string
	Cycles float64
}

// The loop bodies are dedicated noinline functions so the measurement is
// the dispatch itself, not closure-call overhead, and so the compiler
// cannot hoist the dispatch out of the loop.

//go:noinline
func loopInline(rep *counterRep, iters int) {
	for i := 0; i < iters; i++ {
		rep.Bump()
	}
}

//go:noinline
func loopNoInline(rep *counterRep, iters int) {
	for i := 0; i < iters; i++ {
		rep.BumpNoInline()
	}
}

//go:noinline
func loopVirtual(targets []bumper, iters int) {
	for i := 0; i < iters; i++ {
		targets[i&1].BumpVirtual()
	}
}

//go:noinline
func loopEbb(ref core.Ref[counterRep], iters int) {
	for i := 0; i < iters; i++ {
		ref.Get(0).Bump()
	}
}

// timed runs each loop (which contains its own iteration loop) several
// times and returns, per loop, the best observed cycles per 1000
// dispatches at the paper's clock. The trials go round-robin across the
// loops, so a burst of host noise lands on every method alike instead of
// on whichever one happened to be running; taking each minimum then
// filters the noise, which matters on small virtualized hosts.
func timed(iters int, loops ...func(int)) []float64 {
	const trials = 7
	best := make([]float64, len(loops))
	for t := 0; t < trials; t++ {
		for i, fn := range loops {
			start := time.Now()
			fn(iters)
			ns := float64(time.Since(start).Nanoseconds())
			if best[i] == 0 || ns < best[i] {
				best[i] = ns
			}
		}
	}
	for i := range best {
		best[i] = best[i] / float64(iters) * 1000 * PaperGHz
	}
	return best
}

// Table1 reproduces the object-dispatch cost table: the cost of 1000
// invocations for each dispatch flavour, including the Ebb fast path on
// the native table and on the hosted hash table (the paper reports the
// hosted path at roughly 19x the native one).
func Table1(iters int) []DispatchRow {
	if iters <= 0 {
		iters = 20_000_000
	}
	rep := &counterRep{}

	// Interface dispatch with a polymorphic call site.
	targets := []bumper{rep, &secondRep{}}

	nativeDom := core.NewDomain(1, core.NativeTable)
	nativeRef := core.Allocate(nativeDom, func(int) *counterRep { return &counterRep{} })
	nativeRef.Get(0) // fault in the representative

	hostedDom := core.NewDomain(1, core.HostedTable)
	hostedRef := core.Allocate(hostedDom, func(int) *counterRep { return &counterRep{} })
	hostedRef.Get(0)

	methods := []string{"Inline", "No Inline", "Virtual", "Inline Ebb", "Hosted Ebb"}
	cycles := timed(iters,
		func(n int) { loopInline(rep, n) },
		func(n int) { loopNoInline(rep, n) },
		func(n int) { loopVirtual(targets, n) },
		func(n int) { loopEbb(nativeRef, n) },
		func(n int) { loopEbb(hostedRef, n) },
	)
	rows := make([]DispatchRow, len(methods))
	for i, m := range methods {
		rows[i] = DispatchRow{Method: m, Cycles: cycles[i]}
	}
	return rows
}

// FormatTable1 renders rows like the paper's Table 1.
func FormatTable1(rows []DispatchRow) string {
	out := fmt.Sprintf("%-12s %10s\n", "Method", "Cycles")
	for _, r := range rows {
		out += fmt.Sprintf("%-12s %10.0f\n", r.Method, r.Cycles)
	}
	return out
}
