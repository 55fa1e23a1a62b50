package experiments

import (
	"fmt"

	"ebbrt/internal/apps/memcached"
	"ebbrt/internal/cluster"
	"ebbrt/internal/event"
	"ebbrt/internal/load"
	"ebbrt/internal/sim"
)

// MemoryPressureOptions tunes the bounded-store experiment: the ETC
// workload offered a dataset mempPressure times the deployment's
// aggregate memory budget, so the slab-classed eviction policy - not
// the allocator - decides what stays resident. The zero value selects
// the defaults.
type MemoryPressureOptions struct {
	// TargetRPS is the offered load (default 120000).
	TargetRPS float64
	// Duration is the measured window (default 60ms).
	Duration sim.Time
	// Cache carries the hot-key cache knobs (Enable is forced on).
	Cache cluster.HotKeyOptions
}

func (o *MemoryPressureOptions) applyDefaults() {
	orDefault(&o.TargetRPS, 120000)
	orDefault(&o.Duration, 60*sim.Millisecond)
	o.Cache.Enable = true
	o.Cache = o.Cache.WithDefaults()
}

// The memory-pressure deployment and workload. Two 1-core backends
// each hold an 8 MiB budget, the page allocator's minimum block, and
// the offered dataset is twice the aggregate budget: half the
// population cannot be resident. A 1200-byte value mean is large
// enough that the population spans the slab classes; the skewed Zipf
// head is what the LRU should keep resident and the hot-key cache
// absorb; and every 10th key writes with a 1-second exptime, which the
// post-run probe advances past to verify not one is served from any
// layer.
const (
	mempBackends           = 2
	mempBudget      uint64 = 8 << 20
	mempPressure           = 2.0
	mempValueMean          = 1200
	mempExpireEvery        = 10
)

// MemoryPressureRow is one eviction policy measured under pressure.
type MemoryPressureRow struct {
	Policy  string
	Load    load.Result
	HitRate float64
	// Stores aggregates the backends' bounded-store counters; PeakBytes
	// and BudgetBytes are per-backend maxima (the bound being gated).
	Stores memcached.BoundedStoreStats
	// MemBounded reports PeakBytes <= BudgetBytes on every backend.
	MemBounded bool
	// Cache is the client's hot-key counters for this run.
	Cache cluster.HotKeyStats
	// ExpiredServed counts post-deadline reads of expiring keys that
	// still returned a value - from the store or any core's cache. The
	// acceptance gate is zero.
	ExpiredServed int
	// StoreLiveExpired counts expired entries a backend store still
	// reported as live after the deadline (must be zero; physically
	// resident-but-dead is fine, lazily reclaimed on touch).
	StoreLiveExpired int
	// ProbeKeys is how many expiring keys the probe checked.
	ProbeKeys int
}

// MemoryPressureResult is the LRU-vs-FIFO comparison.
type MemoryPressureResult struct {
	Opt  MemoryPressureOptions
	Rows []MemoryPressureRow
	// LRUAdvantage is the LRU row's hit rate minus the FIFO row's - what
	// recency tracking buys under a skewed workload at 2x pressure.
	LRUAdvantage float64
}

// mempKV adapts the client to the load generator, attaching an exptime
// to every write of a probe key so expiry runs under real pressure, and
// running the canonical cache-aside pattern: a read miss refills the
// key (the "database fetch + set" every memcached deployment does).
// The refill is what makes eviction policy observable - under demand
// fill, popularity drives insertion, so an LRU that keeps the re-read
// keys resident sustains a higher hit rate than a FIFO that ages them
// out regardless of use.
type mempKV struct {
	cli     *cluster.Client
	exptime map[string]int64
	fill    map[string][]byte
}

func (a mempKV) Get(c *event.Ctx, key []byte, done func(c *event.Ctx, o load.OpOutcome)) {
	a.cli.Get(c, key, func(c *event.Ctx, r cluster.Response) {
		o := outcome(r)
		if o == load.Miss {
			if v, ok := a.fill[string(key)]; ok {
				a.cli.SetWithExpiry(c, key, v, 0, a.exptime[string(key)], nil)
			}
		}
		done(c, o)
	})
}

func (a mempKV) Set(c *event.Ctx, key, value []byte, done func(c *event.Ctx, o load.OpOutcome)) {
	a.cli.SetWithExpiry(c, key, value, 0, a.exptime[string(key)], func(c *event.Ctx, r cluster.Response) {
		done(c, outcome(r))
	})
}

// MemoryPressure runs the ETC workload against bounded backend stores
// holding PressureFactor times less than the offered population, once
// per eviction policy, and reports hit rate, the memory bound, and the
// expiry probe. The hot-key cache stays on: under a Zipf head the cache
// absorbs the hottest reads, so the store's LRU capacity is spent on
// the warm middle - the "cache holds the tail" claim the README quotes.
func MemoryPressure(opt MemoryPressureOptions) MemoryPressureResult {
	opt.applyDefaults()

	out := MemoryPressureResult{Opt: opt}
	for _, policy := range []memcached.EvictionPolicy{memcached.EvictLRU, memcached.EvictFIFO} {
		out.Rows = append(out.Rows, memoryPressurePoint(opt, policy))
	}
	out.LRUAdvantage = out.Rows[0].HitRate - out.Rows[1].HitRate
	return out
}

func memoryPressurePoint(opt MemoryPressureOptions, policy memcached.EvictionPolicy) MemoryPressureRow {
	row := MemoryPressureRow{Policy: policy.String()}

	// The store factory runs inside NewCluster, before the kernel
	// reference exists; the clock indirects through kern so eviction
	// scans see real sim time once the deployment is live.
	var kern *sim.Kernel
	clock := func() sim.Time {
		if kern == nil {
			return 0
		}
		return kern.Now()
	}
	var stores []*memcached.BoundedStore
	run := bootCluster(mempBackends, 1, cluster.Options{
		HotKey: opt.Cache,
		Store: func() memcached.Store {
			s := memcached.NewBoundedStore(mempBudget, policy, clock)
			stores = append(stores, s)
			return s
		},
	}, cluster.ClientOptions{})
	cl, cli := run.cl, run.clis[0]
	kern = cl.Sys.K

	// Size the population to mempPressure x the aggregate budget.
	perItem := float64(mempValueMean + 45 + 56) // value + mean ETC key + item overhead
	etc := etcOver(int(mempPressure * float64(mempBudget) * mempBackends / perItem))
	etc.ValueMean = mempValueMean
	etc.ValueMax = 4096
	etc.ZipfSkew = hotZipfSkew

	// Every mempExpireEvery-th key writes with a 1-second exptime. The
	// population is rebuilt here to know the key bytes up front.
	work := population(etc)
	exptime := make(map[string]int64, len(work.Keys)/mempExpireEvery+1)
	fill := make(map[string][]byte, len(work.Keys))
	var probeKeys [][]byte
	for i, key := range work.Keys {
		fill[string(key)] = work.Values[i]
		if i%mempExpireEvery == 0 {
			exptime[string(key)] = 1
			probeKeys = append(probeKeys, key)
		}
	}

	row.Load = run.drive(etc, load.Config{TargetRPS: opt.TargetRPS, Duration: opt.Duration},
		mempKV{cli: cli, exptime: exptime, fill: fill})
	if reads := row.Load.Hits + row.Load.Misses; reads > 0 {
		row.HitRate = float64(row.Load.Hits) / float64(reads)
	}
	row.Cache = cli.HotKeyStats()

	row.MemBounded = true
	for _, s := range stores {
		st := s.Stats()
		row.Stores.Items += st.Items
		row.Stores.ItemBytes += st.ItemBytes
		row.Stores.Evictions += st.Evictions
		row.Stores.Expired += st.Expired
		row.Stores.Rejected += st.Rejected
		if st.PeakBytes > row.Stores.PeakBytes {
			row.Stores.PeakBytes = st.PeakBytes
		}
		row.Stores.BudgetBytes = st.BudgetBytes
		if st.PeakBytes > st.BudgetBytes {
			row.MemBounded = false
		}
	}

	// Expiry probe: cross every probe key's deadline (their last write
	// was at latest the end of measurement, so +2s clears all of them),
	// then read each through the client - hot-key cache included - and
	// peek each backend store. Nothing may serve.
	k := cl.Sys.K
	k.RunUntil(k.Now() + 2*sim.Second)
	row.ProbeKeys = len(probeKeys)
	cl.Sys.Frontend().Spawn(func(c *event.Ctx) {
		for _, key := range probeKeys {
			cli.Get(c, key, func(c *event.Ctx, r cluster.Response) {
				if r.OK() {
					row.ExpiredServed++
				}
			})
		}
	})
	k.RunUntil(k.Now() + 50*sim.Millisecond)
	for _, key := range probeKeys {
		for _, b := range cl.Backends {
			if e, ok := b.Srv.Store.Get(string(key)); ok && b.Srv.EntryLive(e, k.Now()) {
				row.StoreLiveExpired++
			}
		}
	}
	return row
}

// FormatMemoryPressure renders the policy comparison and the gates.
func FormatMemoryPressure(r MemoryPressureResult) string {
	o := r.Opt
	out := fmt.Sprintf("MemoryPressure: %d backends x %d MiB budget, %.1fx offered dataset, skew %.2f, %.0f RPS\n",
		mempBackends, mempBudget>>20, mempPressure, hotZipfSkew, o.TargetRPS)
	out += fmt.Sprintf("%-6s %10s %7s | %9s %9s %9s | %7s %8s | %8s\n",
		"Policy", "RPS", "hit%", "evicted", "expired", "items", "cache%", "bounded", "expProbe")
	for _, row := range r.Rows {
		bounded := "PASS"
		if !row.MemBounded {
			bounded = "FAIL"
		}
		probe := "PASS"
		if row.ExpiredServed > 0 || row.StoreLiveExpired > 0 {
			probe = "FAIL"
		}
		out += fmt.Sprintf("%-6s %10.0f %6.1f%% | %9d %9d %9d | %6.1f%% %8s | %8s\n",
			row.Policy, row.Load.AchievedRPS, 100*row.HitRate,
			row.Stores.Evictions, row.Stores.Expired, row.Stores.Items,
			100*row.Cache.HitRate(), bounded, probe)
	}
	out += fmt.Sprintf("LRU over FIFO: %+.1f hit-rate points at %.1fx pressure\n", 100*r.LRUAdvantage, mempPressure)
	out += fmt.Sprintf("peak footprint: %d of %d bytes per backend\n", r.Rows[0].Stores.PeakBytes, r.Rows[0].Stores.BudgetBytes)
	out += fmt.Sprintf("expiry probe: %d keys, %d served post-deadline, %d live-expired in stores\n",
		r.Rows[0].ProbeKeys, r.Rows[0].ExpiredServed+r.Rows[1].ExpiredServed,
		r.Rows[0].StoreLiveExpired+r.Rows[1].StoreLiveExpired)
	return out
}
