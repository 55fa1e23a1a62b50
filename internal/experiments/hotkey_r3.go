package experiments

import (
	"fmt"

	"ebbrt/internal/cluster"
	"ebbrt/internal/load"
	"ebbrt/internal/sim"
)

// ReplicatedHotKeyOptions tunes the replicated hot-key experiment: the
// skewed ETC workload at R>1 with the full hot-key fix - replica-wide
// version stamps, the client read cache, and salted hot-write spreading
// - measured against the cache-off, spread-off baseline on the same
// cluster shape: 8 backends at R=3 (the configuration whose CAS
// coherence hole this experiment reproduces closed), offered hotRPS
// each. The zero value selects the defaults.
type ReplicatedHotKeyOptions struct {
	// Duration is the measured window per run (default 60ms).
	Duration sim.Time
	// KeySpace sizes the ETC population (default 6000).
	KeySpace int
	// Cache carries the hot-key cache knobs for the fixed run (Enable
	// and StalenessProbe are forced).
	Cache cluster.HotKeyOptions
}

const (
	r3Backends = 8
	r3Replicas = 3
)

func (o *ReplicatedHotKeyOptions) applyDefaults() {
	orDefault(&o.Duration, 60*sim.Millisecond)
	orDefault(&o.KeySpace, 6000)
	o.Cache.Enable, o.Cache.StalenessProbe = true, true
	o.Cache = o.Cache.WithDefaults()
}

// ReplicatedHotKeyResult is the R>1 comparison plus its verdicts.
type ReplicatedHotKeyResult struct {
	Opt ReplicatedHotKeyOptions
	// Off is the baseline: same cluster shape, no cache, no spreading.
	Off load.Result
	// On is the fixed configuration: replica-coherent cache plus salted
	// write spreading, under the rogue writer.
	On load.Result
	// Improvement is On over Off achieved RPS - the headline number (the
	// acceptance target is >= 1.5 at 8 backends, R=3).
	Improvement float64
	// Cache is the fixed run's hot-key cache counters; HotWrite the
	// deployment's write-spreading counters.
	Cache    cluster.HotKeyStats
	HotWrite cluster.HotWriteStats
	// OffMaxShare / OnMaxShare are the hottest backend's share of all
	// backend-served requests in each run - how concentrated the skew
	// leaves the cluster before and after the fix.
	OffMaxShare float64
	OnMaxShare  float64
	// HotShare is the offered top-K key share (the skew being absorbed).
	HotShare float64
	// Staleness verdict for the fixed run, under the rogue writer: the
	// probe peeks every live owner of every shard, and the TTL is the
	// hard bound.
	TTL        sim.Time
	TTLBounded bool
}

// ReplicatedHotKey measures the hot-key fix end to end at R>1: one
// cache-off, spread-off baseline run and one run with replica-coherent
// caching plus salted hot-write spreading, both on the same cluster
// shape under the same skewed workload. A rogue uncached writer hammers
// the hottest keys during the fixed run, so the staleness probe - which
// peeks every live replica of every salted shard, meaningful now that
// stamps are replica-wide - verifies the TTL bound under adversarial
// writes at R=3.
func ReplicatedHotKey(opt ReplicatedHotKeyOptions) ReplicatedHotKeyResult {
	opt.applyDefaults()
	spreadOpt := cluster.HotWriteOptions{Enable: true}.WithDefaults()

	out := ReplicatedHotKeyResult{Opt: opt, TTL: opt.Cache.TTL}
	off := skewPoint(opt.KeySpace, opt.Duration, r3Backends, cluster.Options{Replicas: r3Replicas})
	on := skewPoint(opt.KeySpace, opt.Duration, r3Backends, cluster.Options{
		Replicas: r3Replicas, HotKey: opt.Cache, HotWrite: spreadOpt})
	out.Off, out.OffMaxShare = off.load, off.maxShare
	out.On, out.OnMaxShare, out.Cache, out.HotWrite = on.load, on.maxShare, on.cache, on.spread
	out.HotShare = on.load.Keys.TopShare
	out.TTLBounded = on.cache.MaxStaleAge <= opt.Cache.TTL
	if out.Off.AchievedRPS > 0 {
		out.Improvement = out.On.AchievedRPS / out.Off.AchievedRPS
	}
	return out
}

// FormatReplicatedHotKey renders the R>1 comparison.
func FormatReplicatedHotKey(r ReplicatedHotKeyResult) string {
	out := fmt.Sprintf("ReplicatedHotKey: %d backends, R=%d, skew %.2f over %d keys, %.0f RPS/backend\n",
		r3Backends, r3Replicas, hotZipfSkew, r.Opt.KeySpace, float64(hotRPS))
	out += fmt.Sprintf("%-22s %12s %10s %10s %12s\n",
		"", "achieved RPS", "p99 (us)", "netErrs", "hottest-node")
	out += fmt.Sprintf("%-22s %12.0f %10.1f %10d %11.1f%%\n",
		"baseline (no fix)", r.Off.AchievedRPS, r.Off.P99.Micros(), r.Off.NetErrs, 100*r.OffMaxShare)
	out += fmt.Sprintf("%-22s %12.0f %10.1f %10d %11.1f%%\n",
		"cache + write spread", r.On.AchievedRPS, r.On.P99.Micros(), r.On.NetErrs, 100*r.OnMaxShare)
	out += fmt.Sprintf("improvement at %d backends, R=%d: %.2fx (hit rate %.1f%%, hot share %.1f%%)\n",
		r3Backends, r3Replicas, r.Improvement, 100*r.Cache.HitRate(), 100*r.HotShare)
	out += fmt.Sprintf("write spreading: %d keys promoted, %d salted writes, %d targeted reads (%d fan-in fallbacks)\n",
		r.HotWrite.Promoted, r.HotWrite.SaltedWrites, r.HotWrite.SaltedReads, r.HotWrite.SaltedFanIns)
	verdict := "PASS"
	if !r.TTLBounded {
		verdict = "FAIL"
	}
	out += fmt.Sprintf("staleness probe (all owners, all shards): %d stale serves, max stale age %.3fms <= TTL %.3fms: %s\n",
		r.Cache.StaleServes, float64(r.Cache.MaxStaleAge)/1e6, float64(r.TTL)/1e6, verdict)
	return out
}
