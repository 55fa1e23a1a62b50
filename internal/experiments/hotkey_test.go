package experiments

import (
	"testing"

	"ebbrt/internal/cluster"
	"ebbrt/internal/sim"
)

// TestHotKeyCacheImprovesSkewedTail is the experiment's smoke-scale
// acceptance: at 4 backends under the skewed workload, the hot-key
// cache must recover a measurable share of the tail (the full 8-backend
// sweep in CI shows ~1.8x; the floor here is conservative for a short
// window), serve a real fraction of reads locally, and never serve a
// hit staler than the TTL even with the rogue writer hammering the
// hottest keys.
func TestHotKeyCacheImprovesSkewedTail(t *testing.T) {
	res := HotKey(HotKeyOptions{
		BackendCounts: []int{1, 4},
		Duration:      40 * sim.Millisecond,
		KeySpace:      4000,
		Cache:         cluster.HotKeyOptions{PromoteMin: 4},
	})
	t.Log("\n" + FormatHotKey(res))

	tail := res.Rows[len(res.Rows)-1]
	if res.Improvement < 1.1 {
		t.Fatalf("skewed-tail improvement %.2fx at %d backends, want >= 1.1x", res.Improvement, tail.Backends)
	}
	if tail.OnSpeedup <= tail.OffSpeedup {
		t.Fatalf("cache-on speedup %.2fx not above cache-off %.2fx", tail.OnSpeedup, tail.OffSpeedup)
	}
	if hr := tail.Cache.HitRate(); hr < 0.3 {
		t.Fatalf("cache hit rate %.2f, want >= 0.3 under skew %.2f", hr, hotZipfSkew)
	}
	if res.HotShare < 0.3 {
		t.Fatalf("measured hot-key share %.2f - workload not skewed as configured", res.HotShare)
	}
	// The rogue writer guarantees the probe sees genuinely stale hits;
	// the TTL guarantees none of them is older than the bound.
	if res.Probe.StaleServes == 0 {
		t.Fatal("staleness probe never fired despite the rogue writer")
	}
	if !res.TTLBounded {
		t.Fatalf("stale serve exceeded TTL: max age %v > %v", res.Probe.MaxStaleAge, res.TTL)
	}
}
