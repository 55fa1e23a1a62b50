package experiments

import (
	"fmt"

	"ebbrt/internal/audit"
	"ebbrt/internal/cluster"
	"ebbrt/internal/load"
	"ebbrt/internal/sim"
)

// AvailabilityOptions tunes the failure-under-load experiment: a
// 4-backend, R=2 deployment of 1-core backends with backend 0 killed
// mid-measurement. The zero value selects the defaults.
type AvailabilityOptions struct {
	// TargetRPS is the offered load (default 40000).
	TargetRPS float64
	// Duration is the measured window (default 160ms).
	Duration sim.Time
	// KillAt is when the victim loses its network, relative to
	// measurement start (default 60ms).
	KillAt sim.Time
	// ReviveAt, when positive, revives the victim at that offset.
	ReviveAt sim.Time
	// Audit, when non-nil, receives the run's typed event stream:
	// chaos.kill/chaos.revive markers from the fault injector here plus
	// everything the cluster's state machines emit (missed beats,
	// evictions, restores, TCP transitions). Wire a FileSink to get a
	// CI-greppable events.jsonl artifact.
	Audit *audit.Log
}

func (o *AvailabilityOptions) applyDefaults() {
	orDefault(&o.TargetRPS, 40000)
	orDefault(&o.Duration, 160*sim.Millisecond)
	orDefault(&o.KillAt, 60*sim.Millisecond)
}

// The availability deployment: 4 backends at R=2, and an ETC key
// population of 4000, smaller than the full workload so prepopulation
// stays cheap.
const (
	availBackends = 4
	availReplicas = 2
	availKeySpace = 4000
)

// AvailabilityResult reports throughput and hit rate through a backend
// failure: before the kill, during the failure window (kill to ring
// eviction), and after the ring has rerouted.
type AvailabilityResult struct {
	Opt  AvailabilityOptions
	Load load.Result
	// EvictedAt/RestoredAt are offsets from measurement start (-1 if
	// the event never happened).
	EvictedAt  sim.Time
	RestoredAt sim.Time
	// Phase throughputs (completed operations per second).
	PreKillRPS   float64
	FailureRPS   float64
	RecoveredRPS float64
	// Phase read hit rates.
	PreKillHitRate   float64
	FailureHitRate   float64
	RecoveredHitRate float64
}

// Availability boots a replicated cluster with health monitoring,
// drives the ETC workload through the frontend's client Ebb, kills a
// backend mid-measurement (and optionally revives it), and reports
// throughput and hit rate through the failure: the multi-backend
// extension of the paper's §4.2 methodology aimed at the question the
// scaling experiment cannot answer - what happens when hardware goes
// away under load.
func Availability(opt AvailabilityOptions) AvailabilityResult {
	opt.applyDefaults()
	run := bootCluster(availBackends, 1, cluster.Options{Replicas: availReplicas, Audit: opt.Audit},
		cluster.ClientOptions{RequestTimeout: replicaTimeout})
	cl := run.cl
	mon := cluster.NewHealthMonitor(cl, cl.Sys.Frontend())
	k := cl.Sys.K
	evictedAt, restoredAt := sim.Time(-1), sim.Time(-1)
	cl.Watch(func(b int, up bool) {
		if b != victim {
			return
		}
		if up {
			restoredAt = k.Now()
		} else {
			evictedAt = k.Now()
		}
	})
	mon.Start()

	victimNode := int(cl.Backends[victim].Node.Id)
	events := []load.ChaosEvent{{
		At: opt.KillAt,
		Fn: func() {
			if a := opt.Audit; a != nil {
				a.Emit(k.Now(), victimNode, audit.NodeKilled, audit.Fields{"backend": victim})
			}
			cl.Backends[victim].Node.Kill()
		},
	}}
	if opt.ReviveAt > 0 {
		events = append(events, load.ChaosEvent{
			At: opt.ReviveAt,
			Fn: func() {
				if a := opt.Audit; a != nil {
					a.Emit(k.Now(), victimNode, audit.NodeRevived, audit.Fields{"backend": victim})
				}
				cl.Backends[victim].Node.Revive()
			},
		})
	}
	res := run.drive(etcOver(availKeySpace), load.Config{
		TargetRPS: opt.TargetRPS,
		Duration:  opt.Duration,
		Bucket:    bucket,
		Events:    events,
	})

	out := AvailabilityResult{Opt: opt, Load: res, EvictedAt: -1, RestoredAt: -1}
	if evictedAt >= 0 {
		out.EvictedAt = evictedAt - res.MeasuredFrom
	}
	if restoredAt >= 0 {
		out.RestoredAt = restoredAt - res.MeasuredFrom
	}

	// Phase boundaries. The failure window runs from the kill to ring
	// eviction; if eviction never happened, assume a generous window so
	// the numbers still mean something.
	failEnd := out.EvictedAt
	if failEnd < 0 {
		failEnd = opt.KillAt + 25*sim.Millisecond
	}
	if failEnd-opt.KillAt < bucket {
		failEnd = opt.KillAt + bucket
	}
	recoverFrom := failEnd + 2*bucket // settle past the eviction bucket
	recoverTo := opt.Duration
	if opt.ReviveAt > 0 && opt.ReviveAt < recoverTo {
		recoverTo = opt.ReviveAt
	}
	out.PreKillRPS, out.PreKillHitRate = res.WindowStats(0, opt.KillAt)
	out.FailureRPS, out.FailureHitRate = res.WindowStats(opt.KillAt, failEnd)
	out.RecoveredRPS, out.RecoveredHitRate = res.WindowStats(recoverFrom, recoverTo)
	return out
}

// FormatAvailability renders the run: phase summary plus the timeline.
func FormatAvailability(r AvailabilityResult) string {
	out := fmt.Sprintf("Availability: %d backends, R=%d, %.0f RPS offered, kill backend %d at %.0fms\n",
		availBackends, availReplicas, r.Opt.TargetRPS, victim, float64(r.Opt.KillAt)/1e6)
	if r.EvictedAt >= 0 {
		out += fmt.Sprintf("  evicted at %.1fms (detection latency %.1fms)\n",
			float64(r.EvictedAt)/1e6, float64(r.EvictedAt-r.Opt.KillAt)/1e6)
	} else {
		out += "  never evicted\n"
	}
	if r.Opt.ReviveAt > 0 {
		if r.RestoredAt >= 0 {
			out += fmt.Sprintf("  revived at %.0fms, restored to ring at %.1fms\n",
				float64(r.Opt.ReviveAt)/1e6, float64(r.RestoredAt)/1e6)
		} else {
			out += fmt.Sprintf("  revived at %.0fms, never restored\n", float64(r.Opt.ReviveAt)/1e6)
		}
	}
	out += fmt.Sprintf("  pre-kill:  %8.0f RPS  hit rate %.4f\n", r.PreKillRPS, r.PreKillHitRate)
	out += fmt.Sprintf("  failure:   %8.0f RPS  hit rate %.4f  (%.0f%% of pre-kill)\n",
		r.FailureRPS, r.FailureHitRate, pct(r.FailureRPS, r.PreKillRPS))
	out += fmt.Sprintf("  recovered: %8.0f RPS  hit rate %.4f  (%.0f%% of pre-kill)\n",
		r.RecoveredRPS, r.RecoveredHitRate, pct(r.RecoveredRPS, r.PreKillRPS))
	out += fmt.Sprintf("  totals: %d completed, %d misses, %d network errors, mean %.1fus p99 %.1fus\n",
		r.Load.Completed, r.Load.Misses, r.Load.NetErrs, r.Load.Mean.Micros(), r.Load.P99.Micros())
	out += fmt.Sprintf("  %-8s %10s %8s %8s %8s\n", "t(ms)", "RPS", "hits", "misses", "netErrs")
	for _, b := range r.Load.Timeline {
		rps := float64(b.Completed) / (float64(r.Load.BucketWidth) / 1e9)
		out += fmt.Sprintf("  %-8.1f %10.0f %8d %8d %8d\n",
			float64(b.Start)/1e6, rps, b.Hits, b.Misses, b.NetErrs)
	}
	return out
}

func pct(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * a / b
}
