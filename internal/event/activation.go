package event

// Event activations: the saved state of an event that blocked (paper
// §3.2 save/restore). Handlers normally run in place on the kernel's
// loop; the first Ctx.Block of an event allocates its activation, hands
// the loop to a fresh goroutine (sim.Kernel.Detach) and parks, so the
// blocked event keeps its stack on its own goroutine. Resuming it is a
// synthetic event: the loop's goroutine sends on resume and waits on
// state while the event runs until it blocks again or finishes.
// Determinism holds because exactly one goroutine ever runs at a time.

type actState int

const (
	actDone actState = iota
	actBlocked
	actPanicked
)

type activation struct {
	state    chan actState
	resume   chan struct{}
	ctx      *Ctx
	panicked any // the event's panic value, sent with actPanicked
}
