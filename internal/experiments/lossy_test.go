package experiments

import (
	"testing"

	"ebbrt/internal/sim"
)

// TestLossyAdaptiveSurvivesLoss is the chaos acceptance check for the
// self-tuning data path: at 5% uniform frame loss the replicated
// workload (no client request timeouts - recovery is the transport's
// job) must complete with zero failed client callbacks, no stuck
// flows, and throughput within 10% of offered, while the fixed-RTO
// baseline on the identical deployment collapses behind 200ms
// head-of-line stalls.
func TestLossyAdaptiveSurvivesLoss(t *testing.T) {
	res := Lossy(LossyOptions{
		Backends:  2,
		Replicas:  2,
		TargetRPS: 10000,
		Duration:  80 * sim.Millisecond,
		LossRates: []float64{0.05},
	})
	t.Logf("\n%s", FormatLossy(res))
	p := res.Points[0]

	if p.Adaptive.DroppedFrames == 0 {
		t.Fatal("loss injection vacuous: the switch dropped nothing")
	}
	if p.Adaptive.Tcp.Retransmits == 0 {
		t.Fatal("no retransmissions despite 5% frame loss")
	}
	// Zero failed client callbacks: every operation either completed or
	// was still riding a live retransmitting connection at window end.
	if n := p.Adaptive.Load.NetErrs; n != 0 {
		t.Errorf("%d failed client callbacks under loss, want 0", n)
	}
	// No stuck flows: the last timeline bucket is still completing work
	// (a deadlocked connection pool would flatline the tail).
	last := p.Adaptive.Load.Timeline[len(p.Adaptive.Load.Timeline)-1]
	if last.Completed == 0 {
		t.Error("no completions in the final bucket: flows stuck at window end")
	}
	if got, want := p.Adaptive.Load.AchievedRPS, 0.9*res.Opt.TargetRPS; got < want {
		t.Errorf("adaptive achieved %.0f RPS under 5%% loss, want >= %.0f", got, want)
	}
	// Fast retransmit must be carrying part of the recovery: windowed
	// flows repair single drops in one RTT instead of waiting out RTO.
	if p.Adaptive.Tcp.FastRetransmits == 0 {
		t.Error("fast-retransmit path never exercised at 5% loss")
	}
	// The headline claim (also enforced as the smoke preset's floor): the
	// adaptive path beats the fixed 200ms RTO by >= 1.5x at 5% loss.
	if p.ThroughputRatio < 1.5 {
		t.Errorf("adaptive/fixed throughput ratio %.2f at 5%% loss, want >= 1.5", p.ThroughputRatio)
	}
}
