package main

import (
	"math"
	"runtime"
	"strings"
	"time"

	"ebbrt/internal/apps/appnet"
	"ebbrt/internal/apps/memcached"
	"ebbrt/internal/cluster"
	"ebbrt/internal/gpos"
	"ebbrt/internal/sim"
)

var clockBase = time.Now()

// nowNano reads the host's monotonic clock.
func nowNano() int64 { return int64(time.Since(clockBase)) }

// countingStore wraps a backend's store in a traced run: it counts the
// data calls, times them on the host clock, and sums the virtual CPU the
// store's OpCost charges. It changes no result, so the traced run's
// virtual-clock numbers must equal the untraced run's.
type countingStore struct {
	memcached.Store
	calls   uint64
	hostNs  int64
	costVns int64
}

func (s *countingStore) timed(t0 int64) {
	s.calls++
	s.hostNs += nowNano() - t0
}

func (s *countingStore) Get(key string) (*memcached.Entry, bool) {
	t0 := nowNano()
	e, ok := s.Store.Get(key)
	s.timed(t0)
	return e, ok
}

func (s *countingStore) Set(key string, e *memcached.Entry) bool {
	t0 := nowNano()
	ok := s.Store.Set(key, e)
	s.timed(t0)
	return ok
}

func (s *countingStore) Add(key string, e *memcached.Entry) bool {
	t0 := nowNano()
	ok := s.Store.Add(key, e)
	s.timed(t0)
	return ok
}

func (s *countingStore) Delete(key string) bool {
	t0 := nowNano()
	ok := s.Store.Delete(key)
	s.timed(t0)
	return ok
}

func (s *countingStore) OpCost(activeCores int) sim.Time {
	d := s.Store.OpCost(activeCores)
	s.costVns += int64(d)
	return d
}

// counters is a snapshot of every layer's own counters across a
// deployment; two snapshots' difference is one window's work.
type counters struct {
	events, dispatches    uint64
	txFrames, txBytes     uint64
	retransmits           uint64
	requests              uint64
	storeCalls            uint64
	storeHostNs, storeVns int64
	evictions             uint64
	peakFill              float64
	batch                 cluster.BatchStats
	hot                   cluster.HotKeyStats
}

func (d *deployment) snapshot() counters {
	var c counters
	c.events = d.k.Fired()
	for _, n := range d.cl.Sys.Nodes {
		for _, m := range n.Runtime.Mgrs() {
			c.dispatches += m.Dispatched
		}
		for _, nic := range n.Machine.NICs {
			c.txFrames += nic.TxFrames.N
			c.txBytes += nic.TxBytes.N
		}
		switch rt := n.Runtime.(type) {
		case *appnet.Native:
			c.retransmits += rt.Itf.TcpStats().Retransmits
		case *gpos.Runtime:
			c.retransmits += rt.Itf.TcpStats().Retransmits
		}
	}
	for _, b := range d.cl.Backends {
		c.requests += b.Srv.Requests
	}
	for _, s := range d.stores {
		c.storeCalls += s.calls
		c.storeHostNs += s.hostNs
		c.storeVns += s.costVns
		if bs, ok := s.Store.(*memcached.BoundedStore); ok {
			st := bs.Stats()
			c.evictions += st.Evictions
			if f := float64(st.PeakBytes) / float64(st.BudgetBytes); f > c.peakFill {
				c.peakFill = f
			}
		}
	}
	if cli := d.client; cli != nil {
		c.batch = cli.BatchStats()
		c.hot = cli.HotKeyStats()
	}
	return c
}

// minus returns the work done between snapshot o and c. Peak fill is a
// high-water mark, so c's is kept.
func (c counters) minus(o counters) counters {
	r := c
	r.events -= o.events
	r.dispatches -= o.dispatches
	r.txFrames -= o.txFrames
	r.txBytes -= o.txBytes
	r.retransmits -= o.retransmits
	r.requests -= o.requests
	r.storeCalls -= o.storeCalls
	r.storeHostNs -= o.storeHostNs
	r.storeVns -= o.storeVns
	r.evictions -= o.evictions
	r.batch.Ops -= o.batch.Ops
	r.batch.Rounds -= o.batch.Rounds
	r.batch.Singles -= o.batch.Singles
	r.batch.Batches -= o.batch.Batches
	r.hot.Hits -= o.hot.Hits
	r.hot.Misses -= o.hot.Misses
	r.hot.Invalidations -= o.hot.Invalidations
	return r
}

// Host-profile attribution. A CPU sample or an allocation is charged to
// a layer by its stack, leaf first: garbage collection wherever it runs,
// then allocation, then the runtime's scheduler (goroutine handoff
// between the simulator's event contexts, futex), and otherwise the
// package of the first frame outside the Go runtime, so a runtime helper
// (memmove, map access) counts against the layer that called it.

// layerOf maps a function name to the layer it belongs to, "" for the Go
// runtime.
func layerOf(fn string) string {
	for _, p := range []struct{ prefix, layer string }{
		{"ebbrt/internal/apps/memcached.", "memcached"},
		{"ebbrt/internal/apps/appnet.", "appnet"},
		{"ebbrt/internal/sim.", "sim"},
		{"container/heap.", "sim"},
		{"ebbrt/internal/event.", "event"},
		{"ebbrt/internal/netstack.", "netstack"},
		{"ebbrt/internal/future.", "future"},
		{"ebbrt/internal/gpos.", "gpos"},
		{"ebbrt/internal/iobuf.", "iobuf"},
		{"ebbrt/internal/machine.", "machine"},
		{"ebbrt/internal/cluster.", "cluster"},
		{"ebbrt/internal/hosted.", "hosted"},
		{"ebbrt/internal/rcu.", "rcu"},
		{"ebbrt/internal/mem.", "mem"},
		{"ebbrt/internal/core.", "core"},
		{"main.", "bench"},
		{"runtime.", ""},
		{"runtime/", ""},
		{"internal/", ""},
		{"sync.", ""},
		{"sync/", ""},
	} {
		if strings.HasPrefix(fn, p.prefix) {
			return p.layer
		}
	}
	return "other"
}

var (
	gcFuncs = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
		"runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination",
		"runtime.markroot", "runtime.gcDrain", "runtime.sweepone", "runtime.forEachP"}
	mallocFuncs = []string{"runtime.mallocgc", "runtime.newobject", "runtime.makeslice",
		"runtime.growslice", "runtime.makemap", "runtime.newarray", "runtime.rawstring",
		"runtime.rawbyteslice", "runtime.mapassign", "runtime.concatstring"}
	schedFuncs = []string{"runtime.schedule", "runtime.findRunnable", "runtime.park_m",
		"runtime.gopark", "runtime.goready", "runtime.ready", "runtime.chansend", "runtime.chanrecv",
		"runtime.futex", "runtime.mcall", "runtime.selectgo", "runtime.notesleep", "runtime.notewakeup",
		"runtime.stopm", "runtime.startm", "runtime.wakep", "runtime.lock2", "runtime.unlock2",
		"runtime.goexit", "runtime.execute", "runtime.gogo", "runtime.usleep", "runtime.osyield",
		"runtime.newproc", "runtime.semasleep",
		"runtime.semawakeup", "runtime.runqget", "runtime.runqput", "runtime.casgstatus"}
)

func hasPrefixIn(fn string, set []string) bool {
	for _, p := range set {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// classify charges one stack (function names, leaf first) to a layer.
func classify(stack []string) string {
	for _, fn := range stack {
		if hasPrefixIn(fn, gcFuncs) {
			return "gc"
		}
	}
	// The runtime frames beneath the first frame outside the runtime.
	n := 0
	for n < len(stack) && layerOf(stack[n]) == "" {
		n++
	}
	for _, set := range []struct {
		funcs []string
		layer string
	}{{mallocFuncs, "malloc"}, {schedFuncs, "runtime_sched"}} {
		for _, fn := range stack[:n] {
			if hasPrefixIn(fn, set.funcs) {
				return set.layer
			}
		}
	}
	if n < len(stack) {
		return layerOf(stack[n])
	}
	return "runtime_other"
}

// allocSnapshot is the process's allocation profile, keyed by stack.
type allocSnapshot map[[32]uintptr][2]int64 // bytes, objects

func takeAllocSnapshot() allocSnapshot {
	// The profile lags by up to two collections; run them so the window's
	// allocations are in it.
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		n, ok = runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
	}
	s := allocSnapshot{}
	for _, r := range recs {
		s[r.Stack0] = [2]int64{r.AllocBytes, r.AllocObjects}
	}
	return s
}

// allocShares attributes the bytes allocated between two snapshots to
// layers, in percent, unscaling each stack's samples by the sampling
// rate as pprof does.
func allocShares(before, after allocSnapshot, rate int) map[string]float64 {
	bytes := map[string]float64{}
	total := 0.0
	for stk, a := range after {
		b := before[stk]
		db, do := a[0]-b[0], a[1]-b[1]
		if db <= 0 || do <= 0 {
			continue
		}
		avg := float64(db) / float64(do)
		scale := 1 / (1 - math.Exp(-avg/float64(rate)))
		w := float64(db) * scale
		var names []string
		frames := runtime.CallersFrames(trimStack(stk[:]))
		for {
			f, more := frames.Next()
			names = append(names, f.Function)
			if !more {
				break
			}
		}
		bytes[allocLayer(names)] += w
		total += w
	}
	out := map[string]float64{}
	for l, b := range bytes {
		out[l] = 100 * b / total
	}
	return out
}

// allocLayer charges an allocation to the first layer outside the runtime.
func allocLayer(stack []string) string {
	for _, fn := range stack {
		if l := layerOf(fn); l != "" {
			return l
		}
	}
	return "runtime_other"
}

func trimStack(s []uintptr) []uintptr {
	for i, pc := range s {
		if pc == 0 {
			return s[:i]
		}
	}
	return s
}
