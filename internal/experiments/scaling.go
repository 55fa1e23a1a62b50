package experiments

import (
	"fmt"

	"ebbrt/internal/apps/appnet"
	"ebbrt/internal/cluster"
	"ebbrt/internal/load"
	"ebbrt/internal/sim"
)

// ScalingOptions tunes the cluster-scaling sweep. The zero value is the
// experiment's default configuration.
type ScalingOptions struct {
	// CoresPerBackend sizes each native backend (default 1).
	CoresPerBackend int
	// ConnsPerBackend sizes the per-backend connection pool (default 8).
	ConnsPerBackend int
	// Duration is the measured window per point (default 150 ms).
	Duration sim.Time
}

// withDefaults fills unset options with the experiments' shared
// defaults.
func (opt ScalingOptions) withDefaults() ScalingOptions {
	orDefault(&opt.CoresPerBackend, 1)
	orDefault(&opt.ConnsPerBackend, 8)
	orDefault(&opt.Duration, 150*sim.Millisecond)
	return opt
}

// ScalingRow is one point of the cluster-scaling curve.
type ScalingRow struct {
	Backends int
	// Result's TargetRPS is the aggregate offered rate (perBackendRPS x
	// Backends).
	Result load.Result
}

// ClusterScaling sweeps backend counts under the ETC workload, offering
// perBackendRPS per backend, and reports aggregate achieved throughput -
// the multi-backend extension of the paper's Figure 5 methodology: the
// keyspace shards across native nodes by consistent hashing and the load
// generator (a separate machine on the same switch, like the paper's
// mutilate host) drives each shard over its own connection pool.
func ClusterScaling(backendCounts []int, perBackendRPS float64, opt ScalingOptions) []ScalingRow {
	opt = opt.withDefaults()
	var rows []ScalingRow
	for _, n := range backendCounts {
		rows = append(rows, scalingPoint(n, perBackendRPS, opt))
	}
	return rows
}

// newShardedTarget boots a fresh cluster of the given size plus a
// dedicated load-generator node, and wires one load.Shard per backend -
// the common target every sharded load experiment drives.
func newShardedTarget(backends int, opt ScalingOptions) (*cluster.Cluster, appnet.Runtime, []load.Shard) {
	cl := cluster.NewCluster(backends, cluster.Options{CoresPerBackend: opt.CoresPerBackend})
	// The load generator must never be the bottleneck: give it more
	// cores than the backends have in total.
	genCores := 2*backends*opt.CoresPerBackend + 2
	gen := cl.AddLoadGenerator(genCores)

	shards := make([]load.Shard, backends)
	for i, b := range cl.Backends {
		shards[i] = load.Shard{IP: b.Node.IP(), Srv: b.Srv}
	}
	return cl, gen.Runtime, shards
}

func scalingPoint(backends int, perBackendRPS float64, opt ScalingOptions) ScalingRow {
	cfg := opt.mutilate(perBackendRPS * float64(backends))
	cl, gen, shards := newShardedTarget(backends, opt)
	res := load.Run(load.Conns(gen, shards, cl.Ring.Lookup, false), cfg)
	return ScalingRow{Backends: backends, Result: res}
}

// mutilate is the sharded experiments' load at targetRPS: the paper's
// mutilate setup over opt's pool size and window, drawing from seed.
func (opt ScalingOptions) mutilate(targetRPS float64) load.Config {
	cfg := load.DefaultMutilate(targetRPS)
	cfg.Connections = opt.ConnsPerBackend
	cfg.Duration = opt.Duration
	cfg.Seed = seed
	return cfg
}

// FormatScaling renders the scaling curve with per-row speedup over the
// first row.
func FormatScaling(rows []ScalingRow) string {
	out := fmt.Sprintf("%-9s %12s %12s %10s %10s %8s\n",
		"Backends", "Offered", "Achieved", "Mean", "p99", "Speedup")
	if len(rows) == 0 {
		return out
	}
	base := rows[0].Result.AchievedRPS
	for _, r := range rows {
		speedup := 0.0
		if base > 0 {
			speedup = r.Result.AchievedRPS / base
		}
		out += fmt.Sprintf("%-9d %12.0f %12.0f %8.1fus %8.1fus %7.2fx\n",
			r.Backends, r.Result.TargetRPS, r.Result.AchievedRPS,
			r.Result.Mean.Micros(), r.Result.P99.Micros(), speedup)
	}
	return out
}
