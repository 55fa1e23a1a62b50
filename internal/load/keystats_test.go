package load

import (
	"reflect"
	"testing"

	"ebbrt/internal/sim"
)

func TestKeyCounterTopKDeterministic(t *testing.T) {
	kc := newKeyCounter(10)
	for i := 0; i < 10; i++ {
		for n := 0; n <= i; n++ {
			kc.note(i)
		}
	}
	st := kc.stats(3)
	if st.Total != 55 {
		t.Fatalf("total %d, want 55", st.Total)
	}
	if len(st.TopK) != 3 {
		t.Fatalf("topK len %d", len(st.TopK))
	}
	want := []KeyFreq{
		{KeyIdx: 9, Count: 10, Share: 10.0 / 55},
		{KeyIdx: 8, Count: 9, Share: 9.0 / 55},
		{KeyIdx: 7, Count: 8, Share: 8.0 / 55},
	}
	if !reflect.DeepEqual(st.TopK, want) {
		t.Fatalf("topK %+v, want %+v", st.TopK, want)
	}
	if st.TopShare <= 0.49 || st.TopShare >= 0.50 {
		t.Fatalf("topShare %f, want 27/55", st.TopShare)
	}
	// Ties break by key index so the summary is stable run to run.
	tie := newKeyCounter(4)
	tie.note(2)
	tie.note(1)
	tie.note(3)
	tst := tie.stats(2)
	if tst.TopK[0].KeyIdx != 1 || tst.TopK[1].KeyIdx != 2 {
		t.Fatalf("tie-break not by index: %+v", tst.TopK)
	}
}

// TestShardedExportsPerShardAndKeyStats: a sharded run must report
// each backend's completions alongside the aggregate and expose the
// measured hot-key share directly.
func TestShardedExportsPerShardAndKeyStats(t *testing.T) {
	n := newShardedNet(t, 2, 4)
	shards := []Shard{n.shard(0), n.shard(1)}
	route := func(key []byte) int { return int(key[len(key)-1]) % 2 }

	cfg := DefaultMutilate(40000)
	cfg.Seed = 42
	cfg.Warmup = 10 * sim.Millisecond
	cfg.Duration = 80 * sim.Millisecond
	res := Run(Conns(n.client, shards, route, false), cfg)

	if len(res.PerShard) != 2 {
		t.Fatalf("per-shard breakdown has %d rows", len(res.PerShard))
	}
	var sum uint64
	for s, n := range res.PerShard {
		if n == 0 {
			t.Fatalf("shard %d reported no traffic", s)
		}
		sum += n
	}
	if sum != res.Completed {
		t.Fatalf("per-shard completions sum %d != aggregate %d", sum, res.Completed)
	}
	if want := uint64(res.AchievedRPS * float64(cfg.Duration) / 1e9); sum != want {
		t.Fatalf("per-shard completions sum %d, achieved RPS implies %d", sum, want)
	}

	ks := res.Keys
	if ks.Total == 0 || len(ks.TopK) != DefaultStatsTopK {
		t.Fatalf("key stats empty: %+v", ks)
	}
	for i := 1; i < len(ks.TopK); i++ {
		if ks.TopK[i].Count > ks.TopK[i-1].Count {
			t.Fatalf("topK not sorted: %+v", ks.TopK)
		}
	}
	// The ETC workload is Zipf-skewed: the top 10 of 20000 keys must
	// carry far more than a uniform share (10/20000 = 0.05%).
	if ks.TopShare < 0.05 {
		t.Fatalf("top-10 share %.4f - skew not visible in key stats", ks.TopShare)
	}
}

// TestTextModePerShardStats: the text-protocol target shares the
// engine's accounting, so the per-shard breakdown must hold there too.
func TestTextModePerShardStats(t *testing.T) {
	n := newShardedNet(t, 2, 4)
	shards := []Shard{n.shard(0), n.shard(1)}
	route := func(key []byte) int { return int(key[len(key)-1]) % 2 }

	cfg := DefaultMutilate(20000)
	cfg.Seed = 42
	cfg.Warmup = 10 * sim.Millisecond
	cfg.Duration = 60 * sim.Millisecond
	res := Run(Conns(n.client, shards, route, true), cfg)

	if len(res.PerShard) != 2 {
		t.Fatalf("per-shard breakdown has %d rows", len(res.PerShard))
	}
	for s, n := range res.PerShard {
		if n == 0 {
			t.Fatalf("text shard %d reported no traffic", s)
		}
	}
	if res.Keys.Total == 0 {
		t.Fatal("text run produced no key stats")
	}
}
