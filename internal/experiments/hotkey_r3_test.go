package experiments

import (
	"testing"

	"ebbrt/internal/cluster"
	"ebbrt/internal/sim"
)

// TestReplicatedHotKeySmoke is the R>1 experiment's smoke-scale
// acceptance: at 8 backends with R=3, the replica-coherent cache plus
// salted write spreading must beat the unfixed baseline by the
// committed 1.5x floor (the hotkey-r3 smoke preset gates on the same
// number), genuinely engage the spread path, leave the cluster less
// concentrated on its hottest node, and never serve a hit staler than
// the TTL even with the rogue writer moving every replica's stamp
// behind the cache's back.
func TestReplicatedHotKeySmoke(t *testing.T) {
	res := ReplicatedHotKey(ReplicatedHotKeyOptions{
		Duration: 40 * sim.Millisecond,
		KeySpace: 4000,
		Cache:    cluster.HotKeyOptions{PromoteMin: 4},
	})
	t.Log("\n" + FormatReplicatedHotKey(res))

	if res.Improvement < 1.5 {
		t.Fatalf("R=%d improvement %.2fx at %d backends, want >= 1.5x",
			r3Replicas, res.Improvement, r3Backends)
	}
	if hr := res.Cache.HitRate(); hr < 0.3 {
		t.Fatalf("cache hit rate %.2f, want >= 0.3 under skew %.2f", hr, hotZipfSkew)
	}
	// The spread path must actually carry load: promoted keys taking
	// round-robined writes, reads going through the targeted-shard path.
	if res.HotWrite.Promoted == 0 || res.HotWrite.SaltedWrites == 0 {
		t.Fatalf("write spreading never engaged: %d promoted, %d salted writes",
			res.HotWrite.Promoted, res.HotWrite.SaltedWrites)
	}
	if res.HotWrite.SaltedReads == 0 {
		t.Fatal("no reads went through the spread-key path")
	}
	// Targeted reads exist to keep spread reads ~1x cost; if most reads
	// fall back to the K-way fan-in the optimization has regressed.
	if res.HotWrite.SaltedFanIns*4 > res.HotWrite.SaltedReads {
		t.Fatalf("fan-in fallbacks %d out of %d spread reads - targeted path not holding",
			res.HotWrite.SaltedFanIns, res.HotWrite.SaltedReads)
	}
	if res.OnMaxShare >= res.OffMaxShare {
		t.Fatalf("hottest-node share %.3f not below baseline %.3f - spreading had no balancing effect",
			res.OnMaxShare, res.OffMaxShare)
	}
	// The rogue writer guarantees the probe sees genuinely stale hits;
	// the TTL guarantees none of them - on any replica of any shard - is
	// older than the bound.
	if res.Cache.StaleServes == 0 {
		t.Fatal("staleness probe never fired despite the rogue writer")
	}
	if !res.TTLBounded {
		t.Fatalf("stale serve exceeded TTL: max age %v > %v", res.Cache.MaxStaleAge, res.TTL)
	}
}
