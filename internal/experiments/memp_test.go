package experiments

import (
	"testing"

	"ebbrt/internal/sim"
)

// TestMemoryPressureBoundsAndPolicy is the experiment's smoke-scale
// acceptance: under a 2x-budget offered dataset every backend must stay
// inside its byte budget, eviction must actually run, LRU must not lose
// to FIFO under the skewed workload, and the post-deadline expiry probe
// must find zero expired values served from any layer.
func TestMemoryPressureBoundsAndPolicy(t *testing.T) {
	res := MemoryPressure(MemoryPressureOptions{
		TargetRPS: 60000,
		Duration:  25 * sim.Millisecond,
	})
	t.Log("\n" + FormatMemoryPressure(res))

	if len(res.Rows) != 2 || res.Rows[0].Policy != "lru" || res.Rows[1].Policy != "fifo" {
		t.Fatalf("unexpected rows: %+v", res.Rows)
	}
	for _, row := range res.Rows {
		if !row.MemBounded {
			t.Fatalf("%s: peak %d exceeded budget %d", row.Policy, row.Stores.PeakBytes, row.Stores.BudgetBytes)
		}
		if row.Stores.Evictions == 0 {
			t.Fatalf("%s: 2x pressure caused no evictions", row.Policy)
		}
		if row.HitRate <= 0 || row.HitRate >= 1 {
			t.Fatalf("%s: hit rate %.3f not in (0, 1) - pressure not biting", row.Policy, row.HitRate)
		}
		if row.Cache.Hits == 0 {
			t.Fatalf("%s: hot-key cache never engaged", row.Policy)
		}
		if row.ProbeKeys == 0 {
			t.Fatalf("%s: expiry probe had no keys", row.Policy)
		}
		if row.ExpiredServed != 0 {
			t.Fatalf("%s: %d expired values served post-deadline", row.Policy, row.ExpiredServed)
		}
		if row.StoreLiveExpired != 0 {
			t.Fatalf("%s: %d expired entries still live in stores", row.Policy, row.StoreLiveExpired)
		}
	}
	if res.LRUAdvantage < 0 {
		t.Fatalf("LRU hit rate below FIFO by %.3f under skew %.2f", -res.LRUAdvantage, hotZipfSkew)
	}
}
