package experiments

import (
	"testing"

	"ebbrt/internal/sim"
)

// TestClusterScalingSpeedup is the regression check for the sharded
// deployment: aggregate achieved throughput at 4 backends must be at
// least 2x the single backend under the default mutilate workload.
// (Perfect 4x is not expected: the ETC workload's zipf skew
// concentrates hot keys on whichever shard owns them.)
func TestClusterScalingSpeedup(t *testing.T) {
	rows := ClusterScaling([]int{1, 4}, 300000, ScalingOptions{Duration: 60 * sim.Millisecond})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	one, four := rows[0], rows[1]
	if one.Result.Completed == 0 || four.Result.Completed == 0 {
		t.Fatalf("no samples: 1-backend %+v, 4-backend %+v", one.Result, four.Result)
	}
	if speedup := four.Result.AchievedRPS / one.Result.AchievedRPS; speedup < 2.0 {
		t.Errorf("4-backend speedup %.2fx, want >= 2x (1: %v, 4: %v)",
			speedup, one.Result, four.Result)
	}
	t.Logf("\n%s", FormatScaling(rows))
}
