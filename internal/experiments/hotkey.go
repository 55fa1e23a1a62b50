package experiments

import (
	"fmt"

	"ebbrt/internal/cluster"
	"ebbrt/internal/event"
	"ebbrt/internal/load"
	"ebbrt/internal/sim"
)

// HotKeyOptions tunes the hot-key caching experiment: the skewed-tail
// scaling sweep with the client Ebb's hot-key cache off vs on, offered
// hotRPS per 1-core backend. The zero value selects the experiment's
// defaults.
type HotKeyOptions struct {
	// BackendCounts is the sweep (default {1, 2, 4, 8}).
	BackendCounts []int
	// Duration is the measured window per point (default 60ms).
	Duration sim.Time
	// KeySpace sizes the ETC population (default 6000).
	KeySpace int
	// Cache carries the hot-key cache knobs for the cache-on runs
	// (Enable is forced; zero fields select cluster defaults).
	Cache cluster.HotKeyOptions
}

func (o *HotKeyOptions) applyDefaults() {
	if len(o.BackendCounts) == 0 {
		o.BackendCounts = []int{1, 2, 4, 8}
	}
	orDefault(&o.Duration, 60*sim.Millisecond)
	orDefault(&o.KeySpace, 6000)
	o.Cache.Enable, o.Cache.StalenessProbe = true, true
	o.Cache = o.Cache.WithDefaults()
}

// The skewed workload every hot-key experiment drives. Zipf skew 1.2 is
// the tail the ROADMAP describes, where the top key alone draws ~20% of
// accesses. 280000 RPS per backend is high enough that the hot shard
// saturates in the uncached skewed tail, and the 12-core frontend must
// not be the uncached bottleneck. The rogue writer overwrites the 32
// hottest keys at 2000 RPS. The clients run without request timeouts:
// these experiments drive healthy backends into saturation, where a
// timeout would turn honest queueing into bursts of failed operations
// instead of letting the uncached curve cap at the hot shard's service
// rate.
const (
	hotZipfSkew    = 1.2
	hotRPS         = 280000
	hotClientCores = 12
	rogueKeys      = 32
	rogueRPS       = 2000
)

// HotKeyRow is one backend count measured with the cache off and on.
type HotKeyRow struct {
	Backends int
	Off      load.Result
	On       load.Result
	// OffSpeedup / OnSpeedup are each mode's achieved RPS over its own
	// single-backend baseline - the scaling curves being compared.
	OffSpeedup float64
	OnSpeedup  float64
	// Cache is the cache-on run's hot-key counters.
	Cache cluster.HotKeyStats
}

// HotKeyResult is the full sweep plus the headline numbers.
type HotKeyResult struct {
	Opt  HotKeyOptions
	Rows []HotKeyRow
	// Improvement is OnSpeedup over OffSpeedup at the largest backend
	// count - how much of the skewed tail the cache recovers (the
	// acceptance target is >= 1.5 at 8 backends).
	Improvement float64
	// HotShare is the measured top-K key share of the offered stream
	// (from the load generator's per-key stats), the skew the cache is
	// absorbing.
	HotShare float64
	// Probe aggregates the cache-on runs' staleness probe: StaleServes
	// counts hits whose CAS lagged the owner, MaxStaleAge the oldest
	// such serve. TTLBounded reports MaxStaleAge <= TTL - the
	// bounded-staleness guarantee.
	Probe      cluster.HotKeyStats
	TTL        sim.Time
	TTLBounded bool
}

// HotKey sweeps backend counts under the skewed ETC workload through
// the frontend's client Ebb, once with the hot-key cache off and once
// with it on, and reports both scaling curves. The uncached curve caps
// where the hottest keys' owning shard saturates (the ROADMAP's
// Zipf-aware-placement blocker); the cached curve shows the client Ebb
// absorbing those reads before they reach the owner. A rogue uncached
// writer hammers the hottest keys during the cache-on runs so the
// staleness probe exercises - and verifies - the TTL bound.
func HotKey(opt HotKeyOptions) HotKeyResult {
	opt.applyDefaults()

	out := HotKeyResult{Opt: opt, TTL: opt.Cache.TTL, TTLBounded: true}
	for _, n := range opt.BackendCounts {
		row := HotKeyRow{Backends: n}
		row.Off = skewPoint(opt.KeySpace, opt.Duration, n, cluster.Options{Replicas: 1}).load
		on := skewPoint(opt.KeySpace, opt.Duration, n, cluster.Options{Replicas: 1, HotKey: opt.Cache})
		row.On, row.Cache = on.load, on.cache
		out.Probe.StaleServes += on.cache.StaleServes
		out.Probe.MaxStaleAge = max(out.Probe.MaxStaleAge, on.cache.MaxStaleAge)
		if on.cache.MaxStaleAge > opt.Cache.TTL {
			out.TTLBounded = false
		}
		out.Rows = append(out.Rows, row)
	}
	offBase := out.Rows[0].Off.AchievedRPS
	onBase := out.Rows[0].On.AchievedRPS
	for i := range out.Rows {
		if offBase > 0 {
			out.Rows[i].OffSpeedup = out.Rows[i].Off.AchievedRPS / offBase
		}
		if onBase > 0 {
			out.Rows[i].OnSpeedup = out.Rows[i].On.AchievedRPS / onBase
		}
	}
	last := out.Rows[len(out.Rows)-1]
	if last.OffSpeedup > 0 {
		out.Improvement = last.OnSpeedup / last.OffSpeedup
	}
	out.HotShare = last.On.Keys.TopShare
	return out
}

// skewRun is one measured run of the skewed workload.
type skewRun struct {
	load  load.Result
	cache cluster.HotKeyStats
	// spread is the deployment's write-spreading counters; maxShare the
	// hottest backend's fraction of all backend-served requests.
	spread   cluster.HotWriteStats
	maxShare float64
}

// skewPoint measures the skewed workload at hotRPS per backend on a
// fresh cluster shaped by copts. A run with the hot-key cache enabled
// is a fixed run: the rogue writer runs alongside it and the client's
// cache counters are collected.
func skewPoint(keySpace int, window sim.Time, backends int, copts cluster.Options) skewRun {
	copts.FrontendCores = hotClientCores
	run := bootCluster(backends, 1, copts, cluster.ClientOptions{})
	etc := etcOver(keySpace)
	etc.ZipfSkew = hotZipfSkew
	var events []load.ChaosEvent
	if copts.HotKey.Enable {
		events = append(events, rogueWriter(run.cl, etc, window))
	}
	var r skewRun
	r.load = run.drive(etc, load.Config{
		TargetRPS: hotRPS * float64(backends),
		Duration:  window,
		Events:    events,
	})
	if copts.HotKey.Enable {
		r.cache = run.clis[0].HotKeyStats()
	}
	var total, maxReq uint64
	for _, b := range run.cl.Backends {
		total += b.Srv.Requests
		maxReq = max(maxReq, b.Srv.Requests)
	}
	if total > 0 {
		r.maxShare = float64(maxReq) / float64(total)
	}
	r.spread = run.cl.HotWriteStats()
	return r
}

// rogueWriter is the staleness adversary of the cache-on runs: an
// independent client Ebb with no cache on the same frontend, overwriting
// the hottest keys behind the cached client's back for the measured
// window. Its writes move the owners' stamps, so every cached copy of a
// hot key goes stale until TTL expiry or sampled revalidation catches it
// - exactly the window the staleness probe measures. The returned chaos
// event starts it at measurement start.
func rogueWriter(cl *cluster.Cluster, etc load.ETCConfig, window sim.Time) load.ChaosEvent {
	front := cl.Sys.Frontend()
	rogue := cluster.NewClientWithOptions(cl, front, cluster.ClientOptions{
		HotKey: cluster.HotKeyOptions{Disable: true},
	})
	work := population(etc)
	rng := sim.NewRng(seed ^ 0x5bd1e995)
	k := cl.Sys.K
	mgrs := front.Runtime.Mgrs()
	end := sim.Time(0) // set when the event fires: measurement start + window
	var tick func()
	tick = func() {
		if end == 0 {
			end = k.Now() + window
		}
		if k.Now() >= end {
			return
		}
		keyIdx := rng.Intn(rogueKeys)
		val := []byte(fmt.Sprintf("rogue-%d-%d", keyIdx, k.Now()))
		mgrs[rng.Intn(len(mgrs))].Spawn(func(c *event.Ctx) {
			rogue.Set(c, work.Keys[keyIdx], val, 0, nil)
		})
		k.After(sim.Time(1e9/rogueRPS), tick)
	}
	return load.ChaosEvent{At: 0, Fn: tick}
}

// FormatHotKey renders the sweep as the cache-off vs cache-on scaling
// comparison plus the staleness verdict.
func FormatHotKey(r HotKeyResult) string {
	out := fmt.Sprintf("HotKey: skew %.2f over %d keys, %.0f RPS/backend, hot-key cache %d entries/core, TTL %.1fms\n",
		hotZipfSkew, r.Opt.KeySpace, float64(hotRPS),
		r.Opt.Cache.Capacity, float64(r.TTL)/1e6)
	out += fmt.Sprintf("%-9s %10s | %10s %8s | %10s %8s %7s | %8s\n",
		"Backends", "Offered", "off RPS", "speedup", "on RPS", "speedup", "hit%", "improve")
	for _, row := range r.Rows {
		improve := 0.0
		if row.OffSpeedup > 0 {
			improve = row.OnSpeedup / row.OffSpeedup
		}
		out += fmt.Sprintf("%-9d %10.0f | %10.0f %7.2fx | %10.0f %7.2fx %6.1f%% | %7.2fx\n",
			row.Backends, row.Off.TargetRPS,
			row.Off.AchievedRPS, row.OffSpeedup,
			row.On.AchievedRPS, row.OnSpeedup, 100*row.Cache.HitRate(), improve)
	}
	out += fmt.Sprintf("hot-key share (top %d keys): %.1f%% of offered ops\n",
		len(r.Rows[len(r.Rows)-1].On.Keys.TopK), 100*r.HotShare)
	out += fmt.Sprintf("skewed-tail improvement at %d backends: %.2fx\n",
		r.Rows[len(r.Rows)-1].Backends, r.Improvement)
	verdict := "PASS"
	if !r.TTLBounded {
		verdict = "FAIL"
	}
	out += fmt.Sprintf("staleness probe: %d stale serves, max stale age %.3fms <= TTL %.3fms: %s\n",
		r.Probe.StaleServes, float64(r.Probe.MaxStaleAge)/1e6, float64(r.TTL)/1e6, verdict)
	return out
}
