package experiments

import (
	"fmt"

	"ebbrt/internal/cluster"
	"ebbrt/internal/load"
	"ebbrt/internal/sim"
)

// The frontend-tier scale-out matrix: N hosted frontends x M native
// backends, with the batched submission queue ablated against the
// per-op spine. The hosted tier is the bottleneck under study, so its
// nodes are deliberately small - one core, so a frontend saturates at
// smoke scale - and the 4 backends generously provisioned with 2 cores
// each. Each frontend offers 50000 Poisson read arrivals per second,
// just past the per-op spine's single-frontend ceiling, and each
// arrival expands to 8 key-reads, so the offered key-op rate is
// higher.
const (
	frontBackends     = 4
	frontBackendCores = 2
	frontRPS          = 50000
	frontMultiGet     = 8
	frontKeySpace     = 3000
	frontDuration     = 40 * sim.Millisecond
)

// FrontendScalingRow is one N-frontends matrix point: the same offered
// load, frontRPS arrivals per frontend, driven through the per-op spine
// (MaxBatch 1) and the batched submission queue.
type FrontendScalingRow struct {
	Frontends int
	PerOp     load.Result
	Batched   load.Result
	// Ratio is batched/per-op achieved key-op throughput.
	Ratio float64
	// Stats is the batched arm's submission-queue counters summed over
	// every frontend's client.
	Stats cluster.BatchStats
}

// FrontendScalingResult is the full matrix run.
type FrontendScalingResult struct {
	// Ceiling is the single-frontend profile: offered (TargetRPS) vs
	// achieved key-op throughput.
	Ceiling []load.Result
	Rows    []FrontendScalingRow
	// Ratio is the batched/per-op throughput ratio at N=1 - the
	// ablation the frontend preset gates.
	Ratio float64
	// ScaleOut is batched throughput at max N over batched throughput
	// at N=1.
	ScaleOut float64
	// NetErrs counts failed callbacks across every arm of every row.
	NetErrs uint64
}

// frontendPoint runs one matrix point: a fresh cluster with nFront
// hosted frontends, one client Ebb and one load source per frontend,
// the multiget ETC workload at perFrontRPS arrivals per frontend.
func frontendPoint(nFront int, perFrontRPS float64, batch cluster.BatchOptions) (load.Result, cluster.BatchStats) {
	run := bootCluster(frontBackends, nFront, cluster.Options{
		CoresPerBackend: frontBackendCores,
		FrontendCores:   1,
	}, cluster.ClientOptions{Batch: batch})
	res := run.drive(etcOver(frontKeySpace), load.Config{
		TargetRPS: perFrontRPS * float64(nFront),
		Warmup:    5 * sim.Millisecond,
		Duration:  frontDuration,
		MultiGet:  frontMultiGet,
	})
	var stats cluster.BatchStats
	for _, cli := range run.clis {
		stats.Accumulate(cli.BatchStats())
	}
	return res, stats
}

// FrontendScaling profiles the hosted frontend tier: first the
// single-frontend ceiling (offered load swept past saturation on one
// batched frontend), then the NxM matrix with the batched submission
// queue ablated against the per-op spine at every N. The paper scales
// the native side (Figure 6); this is the same question asked of the
// hosted side, where per-op syscall pricing is exactly what the
// coalesced GETQ+Noop rounds amortize.
func FrontendScaling() FrontendScalingResult {
	var out FrontendScalingResult
	batched := cluster.BatchOptions{MaxBatch: cluster.DefaultMaxBatch}
	perOp := cluster.BatchOptions{MaxBatch: 1}

	// Phase 1: the single-frontend ceiling, batched arm.
	for _, mult := range []float64{0.5, 1.0, 1.5} {
		res, _ := frontendPoint(1, frontRPS*mult, batched)
		out.Ceiling = append(out.Ceiling, res)
		out.NetErrs += res.NetErrs
	}

	// Phase 2: the NxM matrix, per-op vs batched at each N.
	for _, n := range []int{1, 2, 3} {
		po, _ := frontendPoint(n, frontRPS, perOp)
		ba, stats := frontendPoint(n, frontRPS, batched)
		row := FrontendScalingRow{Frontends: n, PerOp: po, Batched: ba, Stats: stats}
		if po.AchievedRPS > 0 {
			row.Ratio = ba.AchievedRPS / po.AchievedRPS
		}
		out.Rows = append(out.Rows, row)
		out.NetErrs += po.NetErrs + ba.NetErrs
	}
	out.Ratio = out.Rows[0].Ratio
	first, last := out.Rows[0].Batched.AchievedRPS, out.Rows[len(out.Rows)-1].Batched.AchievedRPS
	if first > 0 {
		out.ScaleOut = last / first
	}
	return out
}

// FormatFrontendScaling renders the matrix for the command-line driver.
func FormatFrontendScaling(r FrontendScalingResult) string {
	out := fmt.Sprintf("FrontendScaling: %d backends x %d cores, frontends x%d cores, %.0f arrivals/s per frontend, multiget %d, max batch %d\n",
		frontBackends, frontBackendCores, 1, float64(frontRPS), frontMultiGet, cluster.DefaultMaxBatch)
	out += "  single-frontend ceiling (batched):\n"
	out += fmt.Sprintf("  %-12s %12s %10s\n", "offered/s", "achieved/s", "p99(us)")
	for _, p := range r.Ceiling {
		out += fmt.Sprintf("  %-12.0f %12.0f %10.1f\n", p.TargetRPS, p.AchievedRPS, p.P99.Micros())
	}
	out += "  matrix (key-ops/s):\n"
	out += fmt.Sprintf("  %-10s %12s %12s %7s %10s %10s %12s\n",
		"frontends", "per-op", "batched", "ratio", "rounds", "quiet", "p99 b(us)")
	for _, row := range r.Rows {
		out += fmt.Sprintf("  %-10d %12.0f %12.0f %7.2f %10d %10d %12.1f\n",
			row.Frontends, row.PerOp.AchievedRPS, row.Batched.AchievedRPS, row.Ratio,
			row.Stats.Rounds, row.Stats.QuietMisses, row.Batched.P99.Micros())
	}
	if row := r.Rows[0]; row.Stats.Rounds > 0 {
		out += "  batched round sizes (N=1): "
		for i, label := range cluster.OpsPerBatchLabels {
			out += fmt.Sprintf("%s:%d ", label, row.Stats.OpsPerBatch[i])
		}
		out += "\n"
	}
	out += fmt.Sprintf("  batched/per-op at N=1: %.2fx; batched scale-out across the sweep: %.2fx; net errors: %d\n",
		r.Ratio, r.ScaleOut, r.NetErrs)
	return out
}
