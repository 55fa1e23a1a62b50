package experiments

import (
	"fmt"

	"ebbrt/internal/load"
)

// TextVsBinary: the same sharded cluster and ETC load driven twice, once
// over the binary protocol and once over the ASCII text protocol. The
// two runs differ only in the wire format - the arrival process, key
// routing, connection pools, and backends are identical - so the gap
// between the curves is the text path's cost: per-byte command-line
// tokenization at the server (memcached.textParsePerByte) and the
// larger, line-framed responses. The ROADMAP's motivation for speaking
// text at all is compatibility (stock clients and benchmarks), so the
// experiment's question is what that compatibility costs at cluster
// scale.

// TextVsBinaryRow is one backend-count point measured under both
// protocols.
type TextVsBinaryRow struct {
	Backends int
	// Binary and Text offer the same aggregate rate (their TargetRPS).
	Binary load.Result
	Text   load.Result
}

// Ratio is text achieved throughput over binary achieved throughput.
func (r TextVsBinaryRow) Ratio() float64 {
	if r.Binary.AchievedRPS == 0 {
		return 0
	}
	return r.Text.AchievedRPS / r.Binary.AchievedRPS
}

// TextVsBinary sweeps backend counts, measuring each point under the
// binary and then the text protocol against a fresh cluster each run
// (so neither run sees the other's store mutations or queue state).
func TextVsBinary(backendCounts []int, perBackendRPS float64, opt ScalingOptions) []TextVsBinaryRow {
	opt = opt.withDefaults()
	var rows []TextVsBinaryRow
	for _, n := range backendCounts {
		rows = append(rows, textVsBinaryPoint(n, perBackendRPS, opt))
	}
	return rows
}

func textVsBinaryPoint(backends int, perBackendRPS float64, opt ScalingOptions) TextVsBinaryRow {
	cfg := opt.mutilate(perBackendRPS * float64(backends))
	row := TextVsBinaryRow{Backends: backends}
	cl, gen, shards := newShardedTarget(backends, opt)
	row.Binary = load.Run(load.Conns(gen, shards, cl.Ring.Lookup, false), cfg)
	cl, gen, shards = newShardedTarget(backends, opt)
	row.Text = load.Run(load.Conns(gen, shards, cl.Ring.Lookup, true), cfg)
	return row
}

// FormatTextVsBinary renders the comparison, one backend count per row.
func FormatTextVsBinary(rows []TextVsBinaryRow) string {
	out := fmt.Sprintf("%-9s %10s %12s %12s %9s %10s %10s\n",
		"Backends", "Offered", "Binary", "Text", "Text/Bin", "Bin p99", "Text p99")
	for _, r := range rows {
		out += fmt.Sprintf("%-9d %10.0f %12.0f %12.0f %8.2fx %8.1fus %8.1fus\n",
			r.Backends, r.Binary.TargetRPS, r.Binary.AchievedRPS, r.Text.AchievedRPS,
			r.Ratio(), r.Binary.P99.Micros(), r.Text.P99.Micros())
	}
	return out
}
