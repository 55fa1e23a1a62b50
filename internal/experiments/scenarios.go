package experiments

import (
	"fmt"
	"os"
	"strings"

	"ebbrt/internal/audit"
	"ebbrt/internal/cluster"
	"ebbrt/internal/sim"
	"ebbrt/internal/testbed"
)

// The scenario registry, in the order `ebbrt list` prints it. Each
// scenario's first preset is its full-scale default; the Smoke presets
// are the CI smoke set, at the scale and floors CI runs them.
func init() {
	registerPaper()
	registerCluster()
}

// pure adapts an experiment that cannot fail to Spec.Run.
func pure[O, R any](f func(O) R) func(O) (R, error) {
	return func(o O) (R, error) { return f(o), nil }
}

// none is the option set of a scenario with nothing to configure.
type none struct{}

// text formats a scenario whose run already renders text.
func text(s string) string { return s }

// titled prefixes a paper table with its title and the paper's numbers.
func titled[R any](title, paper string, format func(R) string) func(R) string {
	return func(r R) string { return title + "\n(paper: " + paper + ")\n\n" + format(r) }
}

func registerPaper() {
	Register("dispatch", Spec[int, []DispatchRow]{
		Doc:     "Table 1: object dispatch costs per 1000 invocations",
		Presets: []Preset[int]{{Name: "default", Opt: 20_000_000}, {Name: "quick", Opt: 2_000_000}},
		Run:     pure(Table1),
		Format: titled("Table 1: Object dispatch costs for 1000 invocations",
			"Inline 1052, No Inline 4047, Virtual 5038, Inline Ebb 1448; hosted ~19x native", FormatTable1),
	})
	allocText := titled("Figure 3: memory allocation microbenchmark (cycles per ten 8B alloc/free pairs)",
		"EbbRT linear to 24 cores; glibc 3.8x EbbRT at 24; jemalloc linear, 42% slower", FormatFigure3)
	Register("alloc", Spec[none, []Figure3Row]{
		Doc:     "Figure 3: allocator scalability, queueing model of each allocator's synchronization",
		Presets: []Preset[none]{{Name: "default"}},
		Run:     pure(func(none) []Figure3Row { return Figure3(nil, 0) }),
		Format:  allocText,
	})
	Register("alloc-real", Spec[none, []Figure3Row]{
		Doc:     "Figure 3 ablation: the real allocators under goroutine parallelism (many-core hosts)",
		Presets: []Preset[none]{{Name: "default"}},
		Run:     pure(func(none) []Figure3Row { return Figure3Real(nil, 0) }),
		Format:  allocText,
	})
	Register("netpipe", Spec[int, []Figure4Series]{
		Doc:     "Figure 4: NetPIPE goodput vs message size, EbbRT vs Linux",
		Presets: []Preset[int]{{Name: "default", Opt: 10}, {Name: "quick", Opt: 3}},
		Run:     func(reps int) ([]Figure4Series, error) { return Figure4(nil, reps) },
		Format: titled("Figure 4: NetPIPE goodput vs message size",
			"64B one-way 9.7us EbbRT vs 15.9us Linux; 4Gbps at 64kB vs 384kB", FormatFigure4),
	})
	Register("netpipe-forcecopy", Spec[int, []Figure4Series]{
		Doc:     "Figure 4 ablation: zero-copy EbbRT vs EbbRT copying every byte at the application",
		Presets: []Preset[int]{{Name: "default", Opt: 10}},
		Run:     ZeroCopyAblation,
		Format: func(s []Figure4Series) string {
			return "Zero-copy ablation: EbbRT vs EbbRT with forced per-byte copies\n\n" + FormatFigure4(s)
		},
	})

	fig5 := memcachedSweep{MemcachedOptions{Cores: 1, Store: "rcu", Duration: 250 * sim.Millisecond},
		[]float64{25000, 50000, 75000, 100000, 125000, 150000, 175000, 200000, 250000, 300000, 350000}}
	fig6, locked, nopoll := fig5, fig5, fig5
	fig6.Cores = 4
	fig6.Rates = []float64{100000, 200000, 300000, 400000, 500000, 600000, 700000, 800000, 900000, 1000000}
	locked.Store = "locked"
	nopoll.DisablePolling = true
	quick5, quick6 := fig5, fig6
	quick5.Duration, quick6.Duration = 60*sim.Millisecond, 60*sim.Millisecond
	quick5.Rates, quick6.Rates = []float64{50000, 150000, 250000}, []float64{200000, 600000, 1000000}
	memcached := func(doc string, presets ...Preset[memcachedSweep]) Spec[memcachedSweep, memcachedRun] {
		return Spec[memcachedSweep, memcachedRun]{Doc: doc, Presets: presets, Run: pure(runMemcached), Format: formatMemcached}
	}
	Register("memcached", memcached("Figures 5 and 6: memcached latency vs throughput under ETC",
		Preset[memcachedSweep]{Name: "default", Opt: fig5}, Preset[memcachedSweep]{Name: "multicore", Opt: fig6},
		Preset[memcachedSweep]{Name: "quick", Smoke: true, Opt: quick5}, Preset[memcachedSweep]{Name: "multicore-quick", Opt: quick6}))
	Register("memcached-locked", memcached("Figure 5 ablation: a locked store in place of the RCU table",
		Preset[memcachedSweep]{Name: "default", Opt: locked}))
	Register("memcached-nopoll", memcached("Figure 5 ablation: interrupt-driven receive, no adaptive polling",
		Preset[memcachedSweep]{Name: "default", Opt: nopoll}))

	Register("nodebench", Spec[none, []Figure7Row]{
		Doc:     "Figure 7: V8 suite scores of the node.js port, normalized to Linux",
		Presets: []Preset[none]{{Name: "default"}},
		Run:     pure(func(none) []Figure7Row { return Figure7() }),
		Format: titled("Figure 7: V8 suite scores normalized to Linux",
			"EbbRT wins all; overall +4.09%; Splay +13.9%", FormatFigure7),
	})
	Register("webserver", Spec[float64, []Table2Row]{
		Doc:     "Table 2: node.js webserver latency under closed-loop wrk load",
		Presets: []Preset[float64]{{Name: "default", Smoke: true}},
		Run:     pure(Table2),
		Format: titled("Table 2: node.js webserver latency",
			"EbbRT 90.54/123.00us, Linux 112.83/199.00us mean/p99", FormatTable2),
	})
	Register("paper", Spec[[]string, string]{
		Doc: "the paper's evaluation in order, one section per scenario above",
		Presets: []Preset[[]string]{
			{Name: "default", Opt: []string{"dispatch", "alloc", "netpipe", "memcached",
				"memcached/multicore", "nodebench", "webserver"}},
			{Name: "quick", Opt: []string{"dispatch/quick", "alloc", "netpipe/quick", "memcached/quick",
				"memcached/multicore-quick", "nodebench", "webserver"}},
		},
		Run:    runSequence,
		Format: text,
	})
}

func registerCluster() {
	Register("cluster-demo", Spec[none, string]{
		Doc:     "the frontend's cluster client Ebb setting and reading keys across a 4-backend ring",
		Presets: []Preset[none]{{Name: "default", Smoke: true}},
		Run:     pure(func(none) string { return ClientDemo() }),
		Format:  text,
	})
	Register("scaling", Spec[sweep, swept[ScalingRow]]{
		Doc: "aggregate ETC throughput vs backend count on the sharded cluster",
		Presets: []Preset[sweep]{
			{Name: "default", Opt: sweep{[]int{1, 2, 4, 8}, 300000, 150 * sim.Millisecond}},
			{Name: "smoke", Smoke: true, Opt: sweep{[]int{1, 2}, 150000, 60 * sim.Millisecond}},
			{Name: "guard", Smoke: true, Bench: "BENCH_hotkey.json", Bound: 3.0,
				Opt: sweep{[]int{1, 4}, 200000, 40 * sim.Millisecond}},
		},
		Run: pure(func(s sweep) swept[ScalingRow] {
			return swept[ScalingRow]{s, ClusterScaling(s.Backends, s.Rate, ScalingOptions{Duration: s.Duration})}
		}),
		Format: func(r swept[ScalingRow]) string { return r.header("Cluster scaling") + FormatScaling(r.rows) },
		Report: func(r swept[ScalingRow], bound float64) Report {
			first, last := r.rows[0], r.rows[len(r.rows)-1]
			speedup := 0.0
			if first.Result.AchievedRPS > 0 {
				speedup = last.Result.AchievedRPS / first.Result.AchievedRPS
			}
			return Report{
				Metrics: []Metric{{fmt.Sprintf("scaling_speedup_%d_backends", last.Backends), speedup}},
				Gates: []Gate{floor(fmt.Sprintf("floor_scaling_%d_backends", last.Backends),
					fmt.Sprintf("scaling speedup at %d backends", last.Backends), speedup, bound)},
			}
		},
	})
	Register("textproto", Spec[sweep, swept[TextVsBinaryRow]]{
		Doc: "the same ETC load over the ASCII text and the binary protocol, per cluster size",
		Presets: []Preset[sweep]{
			{Name: "default", Opt: sweep{[]int{1, 2, 4}, 200000, 120 * sim.Millisecond}},
			{Name: "smoke", Smoke: true, Opt: sweep{[]int{1, 2}, 20000, 60 * sim.Millisecond}},
		},
		Run: pure(func(s sweep) swept[TextVsBinaryRow] {
			return swept[TextVsBinaryRow]{s, TextVsBinary(s.Backends, s.Rate, ScalingOptions{Duration: s.Duration})}
		}),
		Format: func(r swept[TextVsBinaryRow]) string {
			return r.header("Text vs binary protocol") + FormatTextVsBinary(r.rows)
		},
	})
	Register("textproto-session", Spec[none, string]{
		Doc:     "a scripted ASCII memcached session against a cluster backend, byte-exact replies",
		Presets: []Preset[none]{{Name: "default", Smoke: true}},
		Run:     pure(func(none) string { return TextSession() }),
		Format:  text,
	})

	Register("availability", Spec[availabilityPreset, availabilityRun]{
		Doc: "a backend killed (and revived) under replicated load; the smoke preset audits the event log",
		Presets: []Preset[availabilityPreset]{
			{Name: "default"},
			{Name: "smoke", Smoke: true, Bench: "BENCH_events.json", Bound: 25, Opt: availabilityPreset{
				AvailabilityOptions: AvailabilityOptions{TargetRPS: 25000, Duration: 110 * sim.Millisecond,
					KillAt: 40 * sim.Millisecond, ReviveAt: 70 * sim.Millisecond},
				EventLog: "events_benchguard.jsonl",
			}},
		},
		Run:    runAvailability,
		Format: func(r availabilityRun) string { return FormatAvailability(r.res) },
		Report: availabilityReport,
	})
	Register("elasticity", Spec[ElasticityOptions, [2]ElasticityResult]{
		Doc: "a backend joins and another is decommissioned under load, streamed migration vs miss-faulting",
		Presets: []Preset[ElasticityOptions]{
			{Name: "default"},
			{Name: "smoke", Smoke: true, Opt: ElasticityOptions{TargetRPS: 15000, Duration: 120 * sim.Millisecond,
				JoinAt: 30 * sim.Millisecond, DecommissionAt: 80 * sim.Millisecond, KeySpace: 2000}},
		},
		Run: pure(func(o ElasticityOptions) [2]ElasticityResult {
			streamed, baseline := ElasticityCompare(o)
			return [2]ElasticityResult{streamed, baseline}
		}),
		Format: func(r [2]ElasticityResult) string {
			s, b := r[0], r[1]
			out := FormatElasticity(s) + "\n" + FormatElasticity(b) + "\n" +
				fmt.Sprintf("post-join hit rate:   %.4f streamed vs %.4f baseline\n", s.PostJoinHitRate, b.PostJoinHitRate) +
				fmt.Sprintf("post-decomm hit rate: %.4f streamed vs %.4f baseline\n", s.PostDecommHitRate, b.PostDecommHitRate)
			if s.RestoreRTime >= 0 {
				out += fmt.Sprintf("time to restore R:    %.2fms streamed vs never (baseline)\n", float64(s.RestoreRTime)/1e6)
			}
			return out
		},
		Report: func(r [2]ElasticityResult, _ float64) Report {
			return Report{Metrics: []Metric{
				{"streamed_post_join_hit_rate", r[0].PostJoinHitRate},
				{"baseline_post_join_hit_rate", r[1].PostJoinHitRate},
				{"streamed_post_decomm_hit_rate", r[0].PostDecommHitRate},
				{"baseline_post_decomm_hit_rate", r[1].PostDecommHitRate},
				{"restore_r_ms", float64(r[0].RestoreRTime) / 1e6},
			}}
		},
	})

	// The hot-key presets promote at a sketch count of 4: smoke windows
	// are short, so promotion must not eat most of the run.
	promote4 := cluster.HotKeyOptions{PromoteMin: 4}
	Register("hotkey", Spec[HotKeyOptions, HotKeyResult]{
		Doc: "skewed ETC vs backend count, client Ebb hot-key cache off vs on, rogue writer probing staleness",
		Presets: []Preset[HotKeyOptions]{
			{Name: "default", Opt: HotKeyOptions{Cache: promote4}},
			{Name: "smoke", Smoke: true, Bound: 1.1, Opt: HotKeyOptions{
				BackendCounts: []int{1, 4}, Duration: 40 * sim.Millisecond, KeySpace: 4000, Cache: promote4}},
			{Name: "guard", Smoke: true, Bench: "BENCH_hotkey.json", Bound: 1.3, Opt: HotKeyOptions{
				BackendCounts: []int{1, 8}, Duration: 40 * sim.Millisecond, KeySpace: 4000, Cache: promote4}},
		},
		Run:    pure(HotKey),
		Format: FormatHotKey,
		Report: func(r HotKeyResult, bound float64) Report {
			tail := r.Rows[len(r.Rows)-1]
			return Report{
				Metrics: []Metric{
					{"hotkey_backends", tail.Backends},
					{"hotkey_off_speedup", tail.OffSpeedup},
					{"hotkey_on_speedup", tail.OnSpeedup},
					{"hotkey_improvement", r.Improvement},
					{"hotkey_cache_hit_rate", tail.Cache.HitRate()},
					{"hot_key_share_top10", r.HotShare},
					{"max_stale_age_ms", float64(r.Probe.MaxStaleAge) / 1e6},
					{"ttl_ms", float64(r.TTL) / 1e6},
					{"ttl_bounded", r.TTLBounded},
				},
				Gates: []Gate{
					must("staleness probe within the TTL", r.TTLBounded),
					floor("floor_hotkey_improvement", "hot-key skewed-tail improvement", r.Improvement, bound),
				},
			}
		},
	})
	Register("hotkey-r3", Spec[ReplicatedHotKeyOptions, ReplicatedHotKeyResult]{
		Doc: "the hot-key fix at R=3, coherent cache plus salted write spreading, vs the uncached baseline",
		Presets: []Preset[ReplicatedHotKeyOptions]{
			{Name: "default", Opt: ReplicatedHotKeyOptions{Cache: promote4}},
			{Name: "smoke", Smoke: true, Bench: "BENCH_hotkey_r3.json", Bound: 1.5, Opt: ReplicatedHotKeyOptions{
				Duration: 40 * sim.Millisecond, KeySpace: 4000, Cache: promote4}},
		},
		Run:    pure(ReplicatedHotKey),
		Format: FormatReplicatedHotKey,
		Report: func(r ReplicatedHotKeyResult, bound float64) Report {
			return Report{
				Metrics: []Metric{
					{"backends", r3Backends},
					{"replicas", r3Replicas},
					{"baseline_rps", r.Off.AchievedRPS},
					{"fixed_rps", r.On.AchievedRPS},
					{"improvement", r.Improvement},
					{"cache_hit_rate", r.Cache.HitRate()},
					{"spread_promoted_keys", r.HotWrite.Promoted},
					{"salted_writes", r.HotWrite.SaltedWrites},
					{"salted_targeted_reads", r.HotWrite.SaltedReads},
					{"salted_fanin_fallbacks", r.HotWrite.SaltedFanIns},
					{"baseline_hottest_node_share", r.OffMaxShare},
					{"fixed_hottest_node_share", r.OnMaxShare},
					{"max_stale_age_ms", float64(r.Cache.MaxStaleAge) / 1e6},
					{"ttl_ms", float64(r.TTL) / 1e6},
					{"ttl_bounded", r.TTLBounded},
				},
				Gates: []Gate{
					must("staleness probe within the TTL", r.TTLBounded),
					must("write spreading engaged (salted writes > 0)", r.HotWrite.SaltedWrites > 0),
					floor("floor_improvement", "replicated hot-key improvement", r.Improvement, bound),
				},
			}
		},
	})

	Register("lossy", Spec[LossyOptions, LossyResult]{
		Doc: "frame loss at the switch, adaptive-RTO TCP vs the fixed-RTO baseline, gated at the highest loss",
		Presets: []Preset[LossyOptions]{
			{Name: "default"},
			{Name: "smoke", Smoke: true, Bench: "BENCH_lossy.json", Bound: 1.5, Opt: LossyOptions{
				Backends: 2, TargetRPS: 10000, Duration: 60 * sim.Millisecond, LossRates: []float64{0.01, 0.05}}},
		},
		Run:    pure(Lossy),
		Format: FormatLossy,
		Report: func(r LossyResult, bound float64) Report {
			p := r.Points[len(r.Points)-1]
			return Report{
				Metrics: []Metric{
					{"loss_rate", p.LossRate},
					{"adaptive_rps", p.Adaptive.Load.AchievedRPS},
					{"adaptive_p99_us", p.Adaptive.Load.P99.Micros()},
					{"adaptive_retransmits", p.Adaptive.Tcp.Retransmits},
					{"adaptive_fast_retransmits", p.Adaptive.Tcp.FastRetransmits},
					{"adaptive_net_errs", p.Adaptive.Load.NetErrs},
					{"fixed_rps", p.Fixed.Load.AchievedRPS},
					{"fixed_p99_us", p.Fixed.Load.P99.Micros()},
					{"dropped_frames", p.Adaptive.DroppedFrames},
					{"throughput_ratio", p.ThroughputRatio},
				},
				Gates: []Gate{
					floor("floor_throughput_ratio", "adaptive/fixed throughput ratio", p.ThroughputRatio, bound),
					zero("failed client callbacks with adaptive RTO", p.Adaptive.Load.NetErrs),
				},
			}
		},
	})

	mempSmoke := MemoryPressureOptions{TargetRPS: 60000, Duration: 25 * sim.Millisecond, Cache: promote4}
	mempGuard := mempSmoke
	mempGuard.Cache = cluster.HotKeyOptions{}
	Register("memp", Spec[MemoryPressureOptions, MemoryPressureResult]{
		Doc: "bounded stores at 2x memory pressure, slab LRU vs FIFO, memory bound and expiry probe",
		Presets: []Preset[MemoryPressureOptions]{
			{Name: "default", Opt: MemoryPressureOptions{Cache: promote4}},
			{Name: "smoke", Smoke: true, Bound: 0.55, Opt: mempSmoke},
			{Name: "guard", Smoke: true, Bench: "BENCH_memp.json", Bound: 0.55, Opt: mempGuard},
		},
		Run:    pure(MemoryPressure),
		Format: FormatMemoryPressure,
		Report: func(r MemoryPressureResult, bound float64) Report {
			lru, fifo := r.Rows[0], r.Rows[1]
			bounded := lru.MemBounded && fifo.MemBounded
			served := lru.ExpiredServed + fifo.ExpiredServed
			live := lru.StoreLiveExpired + fifo.StoreLiveExpired
			return Report{
				Metrics: []Metric{
					{"backends", mempBackends},
					{"budget_bytes_per_backend", mempBudget},
					{"pressure_factor", mempPressure},
					{"lru_hit_rate", lru.HitRate},
					{"fifo_hit_rate", fifo.HitRate},
					{"lru_advantage", r.LRUAdvantage},
					{"lru_evictions", lru.Stores.Evictions},
					{"lru_expired_reclaims", lru.Stores.Expired},
					{"peak_bytes_per_backend", max(lru.Stores.PeakBytes, fifo.Stores.PeakBytes)},
					{"mem_bounded", bounded},
					{"expiry_probe_keys", lru.ProbeKeys},
					{"expired_served", served},
					{"store_live_expired", live},
				},
				Gates: []Gate{
					must("bounded stores within their byte budget", bounded),
					zero("expired values served post-deadline", served),
					zero("expired entries live in the stores", live),
					floor("floor_lru_hit_rate", "LRU hit rate under memory pressure", lru.HitRate, bound),
					floor("", "LRU hit-rate advantage over FIFO", r.LRUAdvantage, 0),
				},
			}
		},
	})

	Register("frontend", Spec[none, FrontendScalingResult]{
		Doc:     "N hosted frontends x M backends under multiget, batched GETQ rounds vs per-op, gated at N=1",
		Presets: []Preset[none]{{Name: "default", Smoke: true, Bench: "BENCH_frontend.json", Bound: 1.3}},
		Run:     pure(func(none) FrontendScalingResult { return FrontendScaling() }),
		Format:  FormatFrontendScaling,
		Report: func(r FrontendScalingResult, bound float64) Report {
			row := r.Rows[0]
			return Report{
				Metrics: []Metric{
					{"frontends", row.Frontends},
					{"backends", frontBackends},
					{"multiget_keys_per_read", frontMultiGet},
					{"offered_arrivals_per_sec", row.Batched.TargetRPS},
					{"per_op_rps", row.PerOp.AchievedRPS},
					{"batched_rps", row.Batched.AchievedRPS},
					{"batched_over_per_op", row.Ratio},
					{"batched_rounds", row.Stats.Rounds},
					{"multi_op_rounds", row.Stats.Batches},
					{"quiet_misses", row.Stats.QuietMisses},
					{"net_errs", r.NetErrs},
				},
				Gates: []Gate{
					must("batched arm formed multi-op rounds", row.Stats.Batches > 0),
					floor("floor_batched_over_per_op", "batched/per-op throughput at N=1", row.Ratio, bound),
					zero("failed client callbacks", r.NetErrs),
				},
			}
		},
	})
}

// runSequence runs the named presets in order, one titled section each.
func runSequence(names []string) (string, error) {
	var b strings.Builder
	bar := strings.Repeat("=", 62)
	for _, name := range names {
		c, ok := Lookup(name)
		if !ok {
			return "", fmt.Errorf("no preset %s", name)
		}
		out, _, err := c.Run()
		if err != nil {
			return "", fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintf(&b, "\n%s\n%s\n%s\n%s", bar, c.Name(), bar, out)
	}
	return b.String(), nil
}

// sweep is a backend-count sweep at a per-backend offered load, the
// input ClusterScaling and TextVsBinary share.
type sweep struct {
	Backends []int
	Rate     float64
	Duration sim.Time
}

type swept[R any] struct {
	sweep
	rows []R
}

func (s sweep) header(title string) string {
	o := ScalingOptions{Duration: s.Duration}.withDefaults()
	return fmt.Sprintf("%s: ETC workload, %d core(s)/backend, %d conns/backend, %.0f RPS/backend offered\n",
		title, o.CoresPerBackend, o.ConnsPerBackend, s.Rate)
}

// memcachedSweep is a Figure 5/6 sweep: the server configuration plus
// the offered loads.
type memcachedSweep struct {
	MemcachedOptions
	Rates []float64
}

type memcachedRun struct {
	opt    MemcachedOptions
	series []MemcachedSeries
}

// runMemcached sweeps every system of the figure the core count
// selects: Figure 5 (one core, with OSv) or Figure 6 (four cores; the
// paper omits OSv there).
func runMemcached(s memcachedSweep) memcachedRun {
	kinds := []testbed.ServerKind{testbed.EbbRT, testbed.LinuxVM, testbed.LinuxNative, testbed.OSv}
	if s.Cores >= 4 {
		kinds = kinds[:3]
	}
	r := memcachedRun{opt: s.MemcachedOptions}
	for _, kind := range kinds {
		r.series = append(r.series, MemcachedCurve(kind, s.Rates, s.MemcachedOptions))
	}
	return r
}

func formatMemcached(r memcachedRun) string {
	fig := "Figure 5 (single core)"
	if r.opt.Cores >= 4 {
		fig = "Figure 6 (multicore)"
	}
	out := fmt.Sprintf("%s: memcached latency vs throughput, ETC workload, pipeline 4, store=%s polling=%v\n",
		fig, r.opt.Store, !r.opt.DisablePolling) +
		"(paper @500us p99 SLA, 1 core: EbbRT +58% vs Linux VM, +11.7% vs native; 4 cores: +58% vs VM, -5% vs native)\n\n" +
		FormatMemcached(r.series) + "\nThroughput at 500us p99 SLA:\n"
	for _, s := range r.series {
		out += fmt.Sprintf("  %-14s %12.0f RPS\n", s.System, SLAThroughput(s.Points, 500*sim.Microsecond))
	}
	return out
}

// availabilityPreset adds, for the audited preset, the path the run's
// event log is written to.
type availabilityPreset struct {
	AvailabilityOptions
	EventLog string
}

type availabilityRun struct {
	res    AvailabilityResult
	log    string
	events []audit.Event
}

// runAvailability runs the kill/revive scenario. With an event log it
// attaches a file sink and reads the log back the way CI consumers do,
// so the report's event counts come from the artifact itself.
func runAvailability(p availabilityPreset) (availabilityRun, error) {
	if p.EventLog == "" {
		return availabilityRun{res: Availability(p.AvailabilityOptions)}, nil
	}
	sink, err := audit.CreateFileSink(p.EventLog)
	if err != nil {
		return availabilityRun{}, err
	}
	opt := p.AvailabilityOptions
	opt.Audit = audit.NewLog(sink)
	res := Availability(opt)
	if err := sink.Close(); err != nil {
		return availabilityRun{}, fmt.Errorf("event log: %w", err)
	}
	f, err := os.Open(p.EventLog)
	if err != nil {
		return availabilityRun{}, err
	}
	defer f.Close()
	events, err := audit.ReadEvents(f)
	if err != nil {
		return availabilityRun{}, fmt.Errorf("event log: %w", err)
	}
	return availabilityRun{res: res, log: p.EventLog, events: events}, nil
}

// availabilityReport gates the audited run on the failure detector
// having fired - an eviction and a restore logged, the kill-to-eviction
// latency within the bound - so a silently suppressed event stream
// fails even when the throughput numbers look healthy.
func availabilityReport(r availabilityRun, maxEvictMs float64) Report {
	if r.log == "" {
		return Report{}
	}
	x := audit.ExpectEvents(r.events)
	evictions := x.Count(audit.On(audit.HealthEvicted))
	restores := x.Count(audit.On(audit.HealthRestored))
	evictMs := -1.0
	kill, haveKill := x.First(audit.On(audit.NodeKilled))
	evict, haveEvict := x.First(audit.On(audit.HealthEvicted))
	if haveKill && haveEvict {
		evictMs = float64(evict.Time-kill.Time) / 1e6
	}
	return Report{
		Metrics: []Metric{
			{"event_log", r.log},
			{"total_events", len(r.events)},
			{"kill_events", x.Count(audit.On(audit.NodeKilled))},
			{"revive_events", x.Count(audit.On(audit.NodeRevived))},
			{"eviction_events", evictions},
			{"restore_events", restores},
			{"missed_beat_events", x.Count(audit.On(audit.HealthMissedBeat))},
			{"eviction_latency_ms", evictMs},
		},
		Gates: []Gate{
			must("event log recorded an eviction", evictions >= 1),
			must("event log recorded a restore", restores >= 1),
			must("event log recorded the kill and its eviction", evictMs >= 0),
			{Name: "floor_eviction_latency_ms", What: "kill-to-eviction latency (ms)",
				Measured: evictMs, Bound: maxEvictMs, Ceiling: true},
		},
	}
}
