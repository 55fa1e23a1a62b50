// Package experiments contains one harness per measured result: the
// tables and figures of the paper's evaluation (§4), and the
// cluster-era experiments the repository has grown beyond them.
//
// Paper reproductions: Table 1 (Ebb dispatch), Figure 3 (memory
// allocation), Figures 4-6 (NetPIPE, memcached latency/throughput,
// multicore scaling), Figure 7 and Table 2 (the node.js-style runtime).
//
// Cluster experiments, each driving the sharded deployment in
// internal/cluster under the ETC workload from internal/load:
// ClusterScaling (throughput vs backend count), TextVsBinary (the ASCII
// protocol's cost), Availability (a backend killed and revived under
// replication), Elasticity (a join and a decommission, streamed vs
// miss-faulting), HotKey (the client Ebb's hot-key cache against a
// skewed tail), ReplicatedHotKey (the same at R=3 with salted write
// spreading), Lossy (adaptive vs fixed RTO under frame loss),
// MemoryPressure (bounded stores, LRU vs FIFO, with an expiry probe)
// and FrontendScaling (hosted frontends, batched vs per-op). Those that
// load the cluster through its client Ebbs share one boot path
// (clusterrun.go): bootCluster, then drive, which owns the seed, the
// ETC shape and the warmup.
//
// The registry (registry.go, filled by scenarios.go) files each
// experiment as a scenario with named presets, a text formatter and a
// uniform Report of ordered metrics and gates; cmd/ebbrt runs it, and
// its guard command writes the committed BENCH_*.json reports. The
// repository's testing.B benchmarks call the experiment functions
// directly.
//
// The experiments run on the deterministic simulation kernel, so every
// number is exactly reproducible for a given seed.
package experiments
