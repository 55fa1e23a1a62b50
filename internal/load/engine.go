// Package load is the evaluation's load generator: one engine, Run,
// that offers the Facebook ETC workload (paper §4.2) to a Target and
// scores what comes back. Three kinds of target sit behind it:
//
//   - Conns: mutilate-style pooled, pipelined connections to memcached
//     servers, over the binary or the ASCII text protocol, with the
//     keyspace sharded across servers;
//   - KV: replicated-cluster client Ebbs, one per hosted frontend,
//     optionally issuing reads as multigets;
//   - HTTP: wrk-style keep-alive connections to a webserver (paper
//     §4.3, Table 2).
//
// The engine is open-loop: each target source draws Poisson arrivals at
// its share of the target rate regardless of completions, so server
// queueing shows up as latency - the methodology behind the paper's
// latency-vs-throughput curves. A zero rate runs wrk's closed loop
// instead. Every target is scored by the same rule into one measured
// window, one timeline and one per-key summary.
package load

import (
	"fmt"

	"ebbrt/internal/event"
	"ebbrt/internal/sim"
)

// Config drives one measured run.
type Config struct {
	// TargetRPS is the open-loop Poisson arrival rate, split evenly over
	// the target's sources. Zero runs the closed loop: Connections ops
	// outstanding, each completion issuing the next on the same lane
	// (so a Conns target runs it against one shard only).
	TargetRPS float64
	// Connections is a Conns target's pool size per shard, an HTTP
	// target's connection count, and the closed loop's concurrency.
	Connections int
	// Warmup runs load before measurement begins.
	Warmup sim.Time
	// Duration is the measured window.
	Duration sim.Time
	// Bucket is the timeline resolution (default Duration/50).
	Bucket sim.Time
	// Seed feeds the workload and the arrival processes.
	Seed uint64
	// ETC is the workload shape; the zero value selects DefaultETC.
	ETC ETCConfig
	// Events are faults (or any side effect) injected at fixed offsets
	// from measurement start.
	Events []ChaosEvent
	// MultiGet, when > 1, turns each read arrival into a batch of that
	// many keys: the first from NextOp, the rest drawn from the same
	// popularity distribution. Every key scores as one operation, so
	// throughput stays comparable with single-key runs. Only KV targets
	// take batches.
	MultiGet int
}

// DefaultMutilate mirrors the paper's mutilate setup at the given rate:
// 16 connections of pipeline depth 4 over TCP.
func DefaultMutilate(targetRPS float64) Config {
	return Config{
		Connections: 16,
		TargetRPS:   targetRPS,
		Warmup:      30 * sim.Millisecond,
		Duration:    250 * sim.Millisecond,
		ETC:         DefaultETC(),
	}
}

// DefaultWrk is the "moderate load" the paper applies to the webserver:
// one closed-loop keep-alive connection, like wrk itself.
func DefaultWrk() Config {
	return Config{
		Connections: 1,
		Warmup:      30 * sim.Millisecond,
		Duration:    800 * sim.Millisecond,
	}
}

// ChaosEvent is a scheduled fault (or any side effect) injected during
// a measured run; At is relative to measurement start.
type ChaosEvent struct {
	At sim.Time
	Fn func()
}

// OpOutcome classifies one finished key-op as the engine scores it.
type OpOutcome uint8

const (
	// OK: the operation succeeded (a read was served, a write stored or
	// reached its quorum).
	OK OpOutcome = iota
	// Miss: the server answered without success - for a read, an
	// authoritative key-not-found.
	Miss
	// NetErr: the operation failed in the network or at a quorum.
	NetErr
)

// LoadBucket is one timeline slot of a measured run.
type LoadBucket struct {
	// Start is the bucket's offset from measurement start.
	Start sim.Time
	// Completed counts operations that finished (successfully) in this
	// bucket, by completion time.
	Completed uint64
	// Hits and Misses partition completed reads.
	Hits, Misses uint64
	// NetErrs counts operations that failed with a network/quorum error.
	NetErrs uint64
}

// Result is one measured run.
type Result struct {
	TargetRPS   float64
	AchievedRPS float64
	Mean        sim.Time
	P99         sim.Time
	// Completed counts scored operations: every latency sample.
	Completed uint64
	Hits      uint64
	Misses    uint64
	NetErrs   uint64
	// Timeline is the per-bucket completion record, for locating a
	// failure window inside the run.
	Timeline []LoadBucket
	// BucketWidth is the timeline resolution used.
	BucketWidth sim.Time
	// MeasuredFrom is the absolute virtual time measurement started,
	// for correlating external events (evictions) with the timeline.
	MeasuredFrom sim.Time
	// Keys is the measured window's per-key frequency summary (the
	// offered hot-key share).
	Keys KeyStats
	// PerShard breaks Completed down by the target's shards - a Conns
	// target's servers, a KV target's frontends - exposing which shard a
	// skewed tail concentrates on.
	PerShard []uint64
}

// String renders the point like the paper's axes.
func (r Result) String() string {
	return fmt.Sprintf("target=%.0f achieved=%.0f mean=%.1fus p99=%.1fus n=%d",
		r.TargetRPS, r.AchievedRPS, r.Mean.Micros(), r.P99.Micros(), r.Completed)
}

// WindowStats aggregates the timeline buckets fully inside [from, to)
// - offsets from measurement start - into throughput (completed
// operations per second) and read hit rate. Experiments use it to
// compare phases of one run: before/after a kill, a join, or a
// decommission.
func (r Result) WindowStats(from, to sim.Time) (rps, hitRate float64) {
	var completed, hits, misses uint64
	var covered sim.Time
	for _, b := range r.Timeline {
		if b.Start >= from && b.Start+r.BucketWidth <= to {
			completed += b.Completed
			hits += b.Hits
			misses += b.Misses
			covered += r.BucketWidth
		}
	}
	if covered == 0 {
		return 0, 0
	}
	rps = float64(completed) / (float64(covered) / 1e9)
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	return rps, hitRate
}

// Target is a system under load. route picks the manager an op is
// submitted on (and records its shard and lane); submit then runs there
// and must lead to exactly one e.finish per key of the op, unless the
// op's response is lost in flight.
type Target interface {
	// start prepares the target on e's workload - prepopulating stores,
	// opening connections - runs the kernel until it can take load, and
	// returns that kernel, the target's arrival sources and its shards.
	start(e *engine) (k *sim.Kernel, sources, shards int)
	route(e *engine, o *op) *event.Manager
	submit(c *event.Ctx, e *engine, o *op)
}

// op is one arrival: a key-op, or a batched read of MultiGet keys.
type op struct {
	src     int // arrival source
	shard   int // the target's shard it was routed to
	lane    int // the target's connection or core it runs on
	arrival sim.Time
	key     int   // key index (the batch's first key)
	keys    []int // a batched read's key indices; nil for one key
	get     bool
	pending int // keys not yet finished
}

// engine is one running measurement, scoring into res.
type engine struct {
	cfg     Config
	target  Target
	work    *Workload
	k       *sim.Kernel
	rec     *sim.Recorder
	keyFreq *keyCounter
	res     Result

	measStart, measEnd sim.Time
}

// Run offers cfg's load to t and measures it: the target starts, Warmup
// passes under load, then Duration is measured, and the run drains for
// 20ms so requests in flight at the cutoff can land.
func Run(t Target, cfg Config) Result {
	if cfg.ETC.KeySpace == 0 {
		cfg.ETC = DefaultETC()
	}
	if cfg.Bucket <= 0 {
		cfg.Bucket = cfg.Duration / 50
	}
	if _, kv := t.(*kvTarget); cfg.MultiGet > 1 && !kv {
		panic("load: MultiGet needs a KV target")
	}
	e := &engine{
		cfg:    cfg,
		target: t,
		work:   NewWorkload(cfg.ETC, cfg.Seed),
		rec:    sim.NewRecorder(int(cfg.TargetRPS * float64(cfg.Duration) / 1e9)),
	}
	e.keyFreq = newKeyCounter(len(e.work.Keys))
	k, sources, shards := t.start(e)
	e.k = k
	e.measStart = k.Now() + cfg.Warmup
	e.measEnd = e.measStart + cfg.Duration
	e.res = Result{
		TargetRPS:    cfg.TargetRPS,
		Timeline:     make([]LoadBucket, (cfg.Duration+cfg.Bucket-1)/cfg.Bucket),
		BucketWidth:  cfg.Bucket,
		MeasuredFrom: e.measStart,
		PerShard:     make([]uint64, shards),
	}
	r := &e.res
	for i := range r.Timeline {
		r.Timeline[i].Start = sim.Time(i) * cfg.Bucket
	}
	for _, ev := range cfg.Events {
		k.At(e.measStart+ev.At, ev.Fn)
	}
	if cfg.TargetRPS > 0 {
		for i := 0; i < sources; i++ {
			// Source 0's stream is mutilate's; the others decorrelate.
			rng := sim.NewRng(cfg.Seed ^ 0x9e3779b9 ^ uint64(i)*0xbf58476d1ce4e5b9)
			e.arrive(rng, i, cfg.TargetRPS/float64(sources))
		}
	} else {
		for i := 0; i < cfg.Connections; i++ {
			e.issue(e.newOp(0, k.Now()))
		}
	}
	k.RunUntil(e.measEnd + 20*sim.Millisecond)

	r.AchievedRPS = float64(r.Completed) / (float64(cfg.Duration) / 1e9)
	r.Mean, r.P99 = e.rec.Mean(), e.rec.Percentile(99)
	r.Keys = e.keyFreq.stats(DefaultStatsTopK)
	return *r
}

// arrive is one source's open-loop Poisson process: each arrival draws
// its gap, then its op, then its route.
func (e *engine) arrive(rng *sim.Rng, src int, rate float64) {
	e.k.After(sim.Time(rng.Exp(1e9/rate)), func() {
		if e.k.Now() >= e.measEnd {
			return
		}
		e.issue(e.newOp(src, e.k.Now()))
		e.arrive(rng, src, rate)
	})
}

// newOp draws one arrival's operation from the workload, counting its
// keys into the per-key summary when it falls inside the window.
func (e *engine) newOp(src int, arrival sim.Time) *op {
	key, get := e.work.NextOp()
	o := &op{src: src, arrival: arrival, key: key, get: get, pending: 1}
	if get && e.cfg.MultiGet > 1 {
		o.keys = make([]int, e.cfg.MultiGet)
		o.keys[0] = key
		for j := 1; j < len(o.keys); j++ {
			o.keys[j] = e.work.NextKey()
		}
		o.pending = len(o.keys)
	}
	if arrival >= e.measStart {
		if o.keys == nil {
			e.keyFreq.note(key)
		}
		for _, k := range o.keys {
			e.keyFreq.note(k)
		}
	}
	return o
}

// issue routes an op and submits it on the manager the target chose.
func (e *engine) issue(o *op) {
	mgr := e.target.route(e, o)
	mgr.Spawn(func(c *event.Ctx) { e.target.submit(c, e, o) })
}

// finish scores one finished key of o and, in the closed loop, issues
// the next op on o's lane once all of o's keys are in. A lane whose op
// failed in the network stops, so a dead connection cannot spin the
// loop in place.
func (e *engine) finish(c *event.Ctx, o *op, out OpOutcome) {
	now := c.Now()
	e.score(now, o, out)
	o.pending--
	if o.pending == 0 && e.cfg.TargetRPS == 0 && now < e.measEnd && out != NetErr {
		next := e.newOp(o.src, now)
		next.shard, next.lane = o.shard, o.lane
		e.target.submit(c, e, next)
	}
}

// score is the one in-window scoring rule: a key-op that arrived inside
// the window and finished inside the timeline counts into the bucket it
// finished in. Network errors and read misses are tallied but take no
// latency sample; everything else completes.
func (e *engine) score(now sim.Time, o *op, out OpOutcome) {
	if o.arrival < e.measStart || now > e.measEnd {
		return
	}
	r := &e.res
	i := int((now - e.measStart) / e.cfg.Bucket)
	if i >= len(r.Timeline) {
		return
	}
	b := &r.Timeline[i]
	switch {
	case out == NetErr:
		r.NetErrs++
		b.NetErrs++
		return
	case o.get && out == Miss:
		r.Misses++
		b.Misses++
		return
	}
	r.Completed++
	b.Completed++
	r.PerShard[o.shard]++
	if o.get {
		r.Hits++
		b.Hits++
	}
	e.rec.Add(now - o.arrival)
}
