package experiments

import (
	"bytes"
	"testing"

	"ebbrt/internal/audit"
	"ebbrt/internal/sim"
)

// TestAvailabilityFailover is the acceptance check for the
// fault-tolerant cluster: with R=2 replication on a 4-backend
// deployment, killing one backend mid-run must leave aggregate
// achieved throughput at >= 60% of the pre-kill rate during the
// failure window (kill to ring eviction) and fully recover once the
// ring has rerouted - with zero false misses throughout, since every
// key the dead backend held has a live replica.
func TestAvailabilityFailover(t *testing.T) {
	res := Availability(AvailabilityOptions{})
	t.Logf("\n%s", FormatAvailability(res))

	if res.EvictedAt < 0 {
		t.Fatal("dead backend was never evicted from the ring")
	}
	if lat := res.EvictedAt - res.Opt.KillAt; lat <= 0 || lat > 50*sim.Millisecond {
		t.Errorf("eviction latency %v outside (0, 50ms]", lat)
	}
	if res.Load.Misses != 0 {
		t.Errorf("%d false misses: replicated reads must be served by surviving replicas", res.Load.Misses)
	}
	if res.PreKillRPS < 0.8*res.Opt.TargetRPS {
		t.Fatalf("pre-kill throughput %.0f RPS below 80%% of offered %.0f - cluster unhealthy before the fault",
			res.PreKillRPS, res.Opt.TargetRPS)
	}
	if res.FailureRPS < 0.6*res.PreKillRPS {
		t.Errorf("failure-window throughput %.0f RPS is %.0f%% of pre-kill %.0f, want >= 60%%",
			res.FailureRPS, pct(res.FailureRPS, res.PreKillRPS), res.PreKillRPS)
	}
	if res.RecoveredRPS < 0.9*res.PreKillRPS {
		t.Errorf("recovered throughput %.0f RPS is %.0f%% of pre-kill %.0f, want >= 90%%",
			res.RecoveredRPS, pct(res.RecoveredRPS, res.PreKillRPS), res.PreKillRPS)
	}
}

// TestAvailabilityReviveRestores: a killed backend that comes back is
// restored to the ring by the health monitor, and the run stays free
// of false misses across both transitions (eviction reroutes reads to
// replicas; restoration's stale primary is healed by read fall-through
// and repair).
func TestAvailabilityReviveRestores(t *testing.T) {
	res := Availability(AvailabilityOptions{
		Duration: 200 * sim.Millisecond,
		KillAt:   50 * sim.Millisecond,
		ReviveAt: 110 * sim.Millisecond,
	})
	t.Logf("\n%s", FormatAvailability(res))

	if res.EvictedAt < 0 {
		t.Fatal("dead backend was never evicted")
	}
	if res.RestoredAt < 0 {
		t.Fatal("revived backend was never restored to the ring")
	}
	if res.RestoredAt <= res.Opt.ReviveAt {
		t.Errorf("restored at %v, before the revive at %v", res.RestoredAt, res.Opt.ReviveAt)
	}
	if lat := res.RestoredAt - res.Opt.ReviveAt; lat > 50*sim.Millisecond {
		t.Errorf("restoration latency %v exceeds 50ms", lat)
	}
	if res.Load.Misses != 0 {
		t.Errorf("%d false misses across kill/revive", res.Load.Misses)
	}
}

// TestAvailabilityAuditDeterministic runs the guard's audited chaos
// scenario - a kill, its eviction, client failover and the revive -
// twice at the same seed and requires byte-identical event logs. Any
// callback or send whose order follows Go's randomised map iteration
// shows up here as diverging failover timestamps.
func TestAvailabilityAuditDeterministic(t *testing.T) {
	run := func() []byte {
		var buf bytes.Buffer
		sink := audit.NewFileSink(&buf)
		Availability(AvailabilityOptions{
			TargetRPS: 25000,
			Duration:  110 * sim.Millisecond,
			KillAt:    40 * sim.Millisecond,
			ReviveAt:  70 * sim.Millisecond,
			Audit:     audit.NewLog(sink),
		})
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("the audited run emitted no events")
	}
	if !bytes.Equal(a, b) {
		al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
		for i := 0; i < len(al) && i < len(bl); i++ {
			if !bytes.Equal(al[i], bl[i]) {
				t.Fatalf("event logs diverge at line %d:\n%s\n%s", i+1, al[i], bl[i])
			}
		}
		t.Fatalf("event logs differ in length: %d vs %d lines", len(al), len(bl))
	}
	for _, want := range []audit.Kind{audit.NodeKilled, audit.HealthEvicted, audit.FailoverRead} {
		if !bytes.Contains(a, []byte(`"`+string(want)+`"`)) {
			t.Errorf("event log has no %s event: the scenario no longer exercises it", want)
		}
	}
}
