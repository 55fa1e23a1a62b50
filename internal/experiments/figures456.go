package experiments

import (
	"fmt"

	"ebbrt/internal/apps/appnet"
	"ebbrt/internal/apps/memcached"
	"ebbrt/internal/apps/netpipe"
	"ebbrt/internal/load"
	"ebbrt/internal/sim"
	"ebbrt/internal/testbed"
)

// Figure4Series is one system's NetPIPE curve.
type Figure4Series struct {
	System string
	Points []netpipe.Point
}

// Figure4 reproduces the NetPIPE experiment for EbbRT and Linux (both
// virtualized, same system on both ends).
func Figure4(sizes []int, reps int) ([]Figure4Series, error) {
	if len(sizes) == 0 {
		sizes = netpipe.DefaultSizes()
	}
	if reps <= 0 {
		reps = 10
	}
	var out []Figure4Series
	for _, kind := range []testbed.ServerKind{testbed.EbbRT, testbed.LinuxVM} {
		pts, err := netpipe.Run(kind, sizes, reps)
		if err != nil {
			return nil, fmt.Errorf("netpipe %v: %w", kind, err)
		}
		out = append(out, Figure4Series{System: kind.String(), Points: pts})
	}
	return out, nil
}

// FormatFigure4 renders goodput vs message size per system.
func FormatFigure4(series []Figure4Series) string {
	out := fmt.Sprintf("%-10s %12s %12s %12s\n", "System", "Size(B)", "OneWay(us)", "Goodput(Mbps)")
	for _, s := range series {
		for _, p := range s.Points {
			out += fmt.Sprintf("%-10s %12d %12.2f %12.0f\n", s.System, p.Size, p.OneWay.Micros(), p.GoodputMbps)
		}
	}
	return out
}

// ZeroCopyAblation isolates the paper's §3.6 zero-copy claim: EbbRT's
// NetPIPE curve against the same stack copying every byte at the
// application boundary.
func ZeroCopyAblation(reps int) ([]Figure4Series, error) {
	sizes := []int{64, 4096, 65536, 262144, 786432}
	zero, err := netpipe.Run(testbed.EbbRT, sizes, reps)
	if err != nil {
		return nil, err
	}
	copied, err := netpipe.RunWithStack(testbed.EbbRT, sizes, reps, 0.12)
	if err != nil {
		return nil, err
	}
	return []Figure4Series{{"EbbRT", zero}, {"EbbRT+copy", copied}}, nil
}

// MemcachedOptions tunes the Figure 5/6 sweeps. The zero value is the
// paper's configuration: one core, RCU store, adaptive polling on.
type MemcachedOptions struct {
	Cores          int
	Store          string // "rcu" (default) or "locked" ablation
	DisablePolling bool   // ablation: leave the driver interrupt-driven
	Duration       sim.Time
}

// MemcachedSeries is one system's latency-vs-throughput curve.
type MemcachedSeries struct {
	System string
	Points []load.Result
}

// MemcachedCurve sweeps offered load for one system and returns the
// latency/throughput points of Figures 5 and 6.
func MemcachedCurve(kind testbed.ServerKind, rates []float64, opt MemcachedOptions) MemcachedSeries {
	if opt.Cores <= 0 {
		opt.Cores = 1
	}
	series := MemcachedSeries{System: kind.String()}
	for _, rate := range rates {
		series.Points = append(series.Points, memcachedPoint(kind, rate, opt))
	}
	return series
}

func memcachedPoint(kind testbed.ServerKind, rate float64, opt MemcachedOptions) load.Result {
	pair := testbed.NewPair(kind, opt.Cores, 8)
	if opt.DisablePolling {
		if native, ok := pair.Server.(*appnet.Native); ok {
			native.Stack.Cfg.AdaptivePolling = false
		}
	}
	var store memcached.Store
	if opt.Store == "locked" {
		store = memcached.NewLockedStore()
	} else {
		store = memcached.NewRCUStore()
	}
	srv := memcached.NewServer(store, opt.Cores)
	if err := srv.Serve(pair.Server); err != nil {
		panic(err)
	}
	cfg := load.DefaultMutilate(rate)
	cfg.Seed = seed
	if opt.Duration > 0 {
		cfg.Duration = opt.Duration
	}
	return load.Run(load.Conns(pair.Client, []load.Shard{{IP: testbed.ServerIP, Srv: srv}}, nil, false), cfg)
}

// SLAThroughput reports the highest achieved throughput whose p99 latency
// meets the given SLA - the paper's headline comparison at a 500 us 99th
// percentile SLA.
func SLAThroughput(points []load.Result, sla sim.Time) float64 {
	best := 0.0
	for _, p := range points {
		if p.P99 <= sla && p.AchievedRPS > best {
			best = p.AchievedRPS
		}
	}
	return best
}

// FormatMemcached renders curves like the paper's Figures 5/6.
func FormatMemcached(series []MemcachedSeries) string {
	out := fmt.Sprintf("%-14s %12s %12s %12s %12s\n", "System", "Target(RPS)", "Achieved", "Mean(us)", "p99(us)")
	for _, s := range series {
		for _, p := range s.Points {
			out += fmt.Sprintf("%-14s %12.0f %12.0f %12.1f %12.1f\n",
				s.System, p.TargetRPS, p.AchievedRPS, p.Mean.Micros(), p.P99.Micros())
		}
	}
	return out
}
