package load

import (
	"testing"

	"ebbrt/internal/apps/memcached"
	"ebbrt/internal/sim"
	"ebbrt/internal/testbed"
)

func runPoint(t *testing.T, kind testbed.ServerKind, cores int, rps float64) Result {
	t.Helper()
	pair := testbed.NewPair(kind, cores, 8)
	srv := memcached.NewServer(memcached.NewRCUStore(), cores)
	if err := srv.Serve(pair.Server); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultMutilate(rps)
	cfg.Seed = 42
	cfg.Warmup = 10 * sim.Millisecond
	cfg.Duration = 80 * sim.Millisecond
	return Run(Conns(pair.Client, []Shard{{IP: testbed.ServerIP, Srv: srv}}, nil, false), cfg)
}

func TestMutilateLowLoadLatency(t *testing.T) {
	res := runPoint(t, testbed.EbbRT, 1, 20000)
	if res.Completed < 1000 {
		t.Fatalf("too few samples: %+v", res)
	}
	// At 20k RPS a single EbbRT core is far from saturation: achieved
	// must track target and latency stays in tens of microseconds.
	if res.AchievedRPS < 0.9*res.TargetRPS {
		t.Fatalf("achieved %.0f of target %.0f at low load", res.AchievedRPS, res.TargetRPS)
	}
	if res.P99 > 500*sim.Microsecond {
		t.Fatalf("p99 %v too high at low load", res.P99)
	}
	t.Logf("EbbRT low load: %v", res)
}

func TestMutilateLatencyOrderingAcrossSystems(t *testing.T) {
	ebb := runPoint(t, testbed.EbbRT, 1, 30000)
	lin := runPoint(t, testbed.LinuxVM, 1, 30000)
	if ebb.Mean >= lin.Mean {
		t.Fatalf("EbbRT mean %v should beat Linux VM %v at equal load", ebb.Mean, lin.Mean)
	}
	t.Logf("mean at 30k: EbbRT=%v LinuxVM=%v", ebb.Mean, lin.Mean)
}

func TestMutilateOverloadSaturates(t *testing.T) {
	// Far beyond a single core's capacity: achieved < target and p99
	// blows up (the hockey stick).
	res := runPoint(t, testbed.LinuxVM, 1, 1000000)
	if res.AchievedRPS >= 0.9*res.TargetRPS {
		t.Fatalf("a single Linux core should not sustain 1M RPS: %+v", res)
	}
	low := runPoint(t, testbed.LinuxVM, 1, 20000)
	if res.P99 < 4*low.P99 {
		t.Fatalf("overload p99 %v should dwarf low-load p99 %v", res.P99, low.P99)
	}
}

func TestWorkloadETCShape(t *testing.T) {
	w := NewWorkload(DefaultETC(), 7)
	if len(w.Keys) != DefaultETC().KeySpace {
		t.Fatal("keyspace size wrong")
	}
	seen := map[string]bool{}
	for i, k := range w.Keys {
		if len(k) < 20 || len(k) > 70 {
			t.Fatalf("key %d length %d outside 20-70", i, len(k))
		}
		if seen[string(k)] {
			t.Fatal("duplicate key")
		}
		seen[string(k)] = true
	}
	for i, v := range w.Values {
		if len(v) < 1 || len(v) > 1024 {
			t.Fatalf("value %d length %d outside 1-1024", i, len(v))
		}
	}
	gets := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if _, isGet := w.NextOp(); isGet {
			gets++
		}
	}
	ratio := float64(gets) / n
	if ratio < 0.87 || ratio > 0.93 {
		t.Fatalf("get ratio %.3f, want ~0.9", ratio)
	}
}

func TestWorkloadDeterminism(t *testing.T) {
	a := NewWorkload(DefaultETC(), 99)
	b := NewWorkload(DefaultETC(), 99)
	for i := range a.Keys {
		if string(a.Keys[i]) != string(b.Keys[i]) {
			t.Fatal("same seed produced different keys")
		}
	}
	for i := 0; i < 100; i++ {
		ka, ga := a.NextOp()
		kb, gb := b.NextOp()
		if ka != kb || ga != gb {
			t.Fatal("same seed produced different op stream")
		}
	}
}
