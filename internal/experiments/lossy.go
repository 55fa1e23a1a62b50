package experiments

import (
	"fmt"

	"ebbrt/internal/apps/appnet"
	"ebbrt/internal/cluster"
	"ebbrt/internal/gpos"
	"ebbrt/internal/load"
	"ebbrt/internal/machine"
	"ebbrt/internal/netstack"
	"ebbrt/internal/sim"
)

// LossyOptions tunes the lossy-link experiment: the same sharded
// workload as the scaling runs, but with uniform random frame loss
// injected at the switch, comparing the self-tuning TCP data path
// (adaptive RTO + fast retransmit) against the fixed-RTO baseline. The
// backends have one core each and the ETC population is lossyKeySpace
// keys; the experiments' seed feeds the workload, arrivals, and the loss
// process.
type LossyOptions struct {
	// Backends is the native backend count (default 4).
	Backends int
	// Replicas is the replication factor R (default 2).
	Replicas int
	// TargetRPS is the offered load (default 20000).
	TargetRPS float64
	// Duration is the measured window (default 100ms).
	Duration sim.Time
	// LossRates are the frame-loss probabilities swept (default
	// 1%, 5%, 10%). Loss applies to every frame crossing the switch
	// once measurement starts; prepopulation and warmup run clean so
	// the comparison isolates steady-state loss recovery.
	LossRates []float64
}

const lossyKeySpace = 2000

func (o *LossyOptions) applyDefaults() {
	orDefault(&o.Backends, 4)
	orDefault(&o.Replicas, 2)
	orDefault(&o.TargetRPS, 20000)
	orDefault(&o.Duration, 100*sim.Millisecond)
	if len(o.LossRates) == 0 {
		o.LossRates = []float64{0.01, 0.05, 0.10}
	}
}

// LossyRun is one cluster measurement under loss.
type LossyRun struct {
	Load load.Result
	// Tcp aggregates retransmission activity across every node's stack.
	Tcp netstack.TcpStats
	// DroppedFrames counts frames the switch discarded during the run.
	DroppedFrames uint64
}

// LossyPoint compares the two retransmission policies at one loss rate.
type LossyPoint struct {
	LossRate float64
	Adaptive LossyRun
	Fixed    LossyRun
	// ThroughputRatio is adaptive / fixed completed throughput. When
	// the fixed baseline completes nothing inside the window the ratio
	// reports 999 (effectively infinite) rather than dividing by zero.
	ThroughputRatio float64
}

// LossyResult is the full sweep.
type LossyResult struct {
	Opt    LossyOptions
	Points []LossyPoint
}

// lossDropper returns a deterministic per-frame drop decision: a
// splitmix64 hash of the frame index against the loss probability, so
// a given (seed, rate) pair always drops the same frame sequence.
func lossDropper(seed uint64, rate float64) func(index uint64, f machine.Frame) bool {
	threshold := uint64(rate * float64(1<<63) * 2)
	return func(index uint64, f machine.Frame) bool {
		x := index + seed + 0x9e3779b97f4a7c15
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		return x < threshold
	}
}

// aggregateTcpStats sums retransmission counters across every node in
// the deployment (native backends and the GPOS frontend alike).
func aggregateTcpStats(cl *cluster.Cluster) netstack.TcpStats {
	var sum netstack.TcpStats
	for _, n := range cl.Sys.Nodes {
		var itf *netstack.Interface
		switch rt := n.Runtime.(type) {
		case *appnet.Native:
			itf = rt.Itf
		case *gpos.Runtime:
			itf = rt.Itf
		}
		if itf == nil {
			continue
		}
		s := itf.TcpStats()
		sum.Retransmits += s.Retransmits
		sum.FastRetransmits += s.FastRetransmits
		sum.PersistProbes += s.PersistProbes
	}
	return sum
}

// runLossy boots a fresh cluster with the given stack configuration and
// measures the ETC workload with frame loss starting at measurement
// start. The client runs without request timeouts: recovery is the
// transport's job, which is exactly what is under test.
func runLossy(opt LossyOptions, rate float64, net netstack.Config) LossyRun {
	run := bootCluster(opt.Backends, 1, cluster.Options{Replicas: opt.Replicas, Net: net}, cluster.ClientOptions{})
	cl := run.cl

	var droppedFrames uint64
	drop := lossDropper(seed, rate)
	res := run.drive(etcOver(lossyKeySpace), load.Config{
		TargetRPS: opt.TargetRPS,
		Duration:  opt.Duration,
		Events: []load.ChaosEvent{{
			At: 0, // loss begins exactly at measurement start
			Fn: func() {
				cl.Sys.Switch.DropFn = func(index uint64, f machine.Frame) bool {
					if drop(index, f) {
						droppedFrames++
						return true
					}
					return false
				}
			},
		}},
	})
	return LossyRun{Load: res, Tcp: aggregateTcpStats(cl), DroppedFrames: droppedFrames}
}

// AdaptiveNetConfig is the self-tuning data path (the default stack).
func AdaptiveNetConfig() netstack.Config { return netstack.DefaultConfig() }

// FixedNetConfig is the pre-self-tuning baseline: one static 200ms RTO,
// no RTT estimation, no fast retransmit.
func FixedNetConfig() netstack.Config {
	cfg := netstack.DefaultConfig()
	cfg.AdaptiveRTO = false
	cfg.FastRetransmit = false
	return cfg
}

// Lossy sweeps frame-loss rates over identical deployments, one pair of
// runs per rate: the adaptive data path versus the fixed-RTO baseline.
// On the simulated 10Gb/s datacenter link the RTT is microseconds, so a
// fixed 200ms RTO turns every lost segment into a five-orders-of-
// magnitude stall; the estimator retries at ~1ms and fast retransmit
// repairs windowed flows in one RTT. The gap widens with the loss rate
// because pooled connections serialize requests behind each stall.
func Lossy(opt LossyOptions) LossyResult {
	opt.applyDefaults()
	out := LossyResult{Opt: opt}
	for _, rate := range opt.LossRates {
		p := LossyPoint{
			LossRate: rate,
			Adaptive: runLossy(opt, rate, AdaptiveNetConfig()),
			Fixed:    runLossy(opt, rate, FixedNetConfig()),
		}
		if f := p.Fixed.Load.AchievedRPS; f > 0 {
			p.ThroughputRatio = p.Adaptive.Load.AchievedRPS / f
		} else {
			p.ThroughputRatio = 999
		}
		out.Points = append(out.Points, p)
	}
	return out
}

// FormatLossy renders the sweep as a comparison table.
func FormatLossy(r LossyResult) string {
	out := fmt.Sprintf("Lossy link: %d backends, R=%d, %.0f RPS offered, %.0fms window, loss at the switch\n",
		r.Opt.Backends, r.Opt.Replicas, r.Opt.TargetRPS, float64(r.Opt.Duration)/1e6)
	out += fmt.Sprintf("  %-6s | %10s %9s %9s | %10s %9s %9s | %7s\n",
		"loss", "adapt RPS", "p99(us)", "rexmit", "fixed RPS", "p99(us)", "rexmit", "ratio")
	for _, p := range r.Points {
		out += fmt.Sprintf("  %5.1f%% | %10.0f %9.1f %9d | %10.0f %9.1f %9d | %6.1fx\n",
			100*p.LossRate,
			p.Adaptive.Load.AchievedRPS, p.Adaptive.Load.P99.Micros(), p.Adaptive.Tcp.Retransmits,
			p.Fixed.Load.AchievedRPS, p.Fixed.Load.P99.Micros(), p.Fixed.Tcp.Retransmits,
			p.ThroughputRatio)
	}
	for _, p := range r.Points {
		out += fmt.Sprintf("  %4.1f%%: adaptive dropped %d frames, %d fast rexmit, %d persist probes; fixed dropped %d, %d net errors\n",
			100*p.LossRate,
			p.Adaptive.DroppedFrames, p.Adaptive.Tcp.FastRetransmits, p.Adaptive.Tcp.PersistProbes,
			p.Fixed.DroppedFrames, p.Fixed.Load.NetErrs)
	}
	return out
}
