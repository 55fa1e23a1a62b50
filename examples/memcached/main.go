// Memcached example: the paper's flagship workload (§4.2).
//
// It builds the two-machine testbed, serves memcached on a single-core
// EbbRT backend with the RCU store, drives it with the mutilate-style
// Facebook ETC workload, and prints the latency profile - then repeats on
// the Linux-VM baseline for comparison.
//
//	go run ./examples/memcached
package main

import (
	"fmt"

	"ebbrt"
	"ebbrt/internal/apps/memcached"
	"ebbrt/internal/load"
	"ebbrt/internal/sim"
	"ebbrt/internal/testbed"
)

func run(kind ebbrt.ServerKind) load.Result {
	pair := ebbrt.NewTestbed(kind, 1, 8)
	srv := memcached.NewServer(memcached.NewRCUStore(), 1)
	if err := srv.Serve(pair.Server); err != nil {
		panic(err)
	}
	cfg := load.DefaultMutilate(100_000) // 100k RPS offered
	cfg.Duration, cfg.Seed = 150*sim.Millisecond, 42
	return load.Run(load.Conns(pair.Client, []load.Shard{{IP: testbed.ServerIP, Srv: srv}}, nil, false), cfg)
}

func main() {
	fmt.Println("memcached, ETC workload, 100k RPS offered, single core:")
	for _, kind := range []ebbrt.ServerKind{ebbrt.KindEbbRT, ebbrt.KindLinuxVM} {
		res := run(kind)
		fmt.Printf("  %-12s achieved=%8.0f RPS  mean=%6.1fus  p99=%6.1fus\n",
			kind, res.AchievedRPS, res.Mean.Micros(), res.P99.Micros())
	}
}
