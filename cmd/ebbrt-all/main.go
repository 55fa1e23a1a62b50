// Command ebbrt-all regenerates every table and figure of the paper's
// evaluation in one run, printing each section.
package main

import (
	"flag"
	"fmt"
	"os"

	"ebbrt/internal/experiments"
	"ebbrt/internal/sim"
	"ebbrt/internal/testbed"
)

func section(title string) {
	fmt.Println()
	fmt.Println("==============================================================")
	fmt.Println(title)
	fmt.Println("==============================================================")
}

func main() {
	quick := flag.Bool("quick", false, "reduced sweeps for a fast smoke run")
	flag.Parse()

	section("Table 1: Ebb invocation (object dispatch costs, cycles/1000 calls)")
	iters := 20_000_000
	if *quick {
		iters = 2_000_000
	}
	fmt.Print(experiments.FormatTable1(experiments.Table1(iters)))

	section("Figure 3: memory allocation scalability (cycles per 10 pairs)")
	fmt.Print(experiments.FormatFigure3(experiments.Figure3(nil, 0)))

	section("Figure 4: NetPIPE goodput vs message size")
	reps := 10
	if *quick {
		reps = 3
	}
	series4, err := experiments.Figure4(nil, reps)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Print(experiments.FormatFigure4(series4))

	dur := 250 * sim.Millisecond
	rates1 := experiments.DefaultRatesSingleCore()
	rates4 := experiments.DefaultRatesFourCore()
	if *quick {
		dur = 60 * sim.Millisecond
		rates1 = []float64{50000, 150000, 250000}
		rates4 = []float64{200000, 600000, 1000000}
	}

	section("Figure 5: memcached single core (latency vs throughput)")
	var fig5 []experiments.MemcachedSeries
	for _, kind := range []testbed.ServerKind{testbed.EbbRT, testbed.LinuxVM, testbed.LinuxNative, testbed.OSv} {
		fig5 = append(fig5, experiments.MemcachedCurve(kind, rates1, experiments.MemcachedOptions{Cores: 1, Duration: dur}))
	}
	fmt.Print(experiments.FormatMemcached(fig5))
	sla := 500 * sim.Microsecond
	fmt.Println("Throughput at 500us p99 SLA:")
	for _, s := range fig5 {
		fmt.Printf("  %-14s %12.0f RPS\n", s.System, experiments.SLAThroughput(s.Points, sla))
	}

	section("Figure 6: memcached four cores (latency vs throughput)")
	var fig6 []experiments.MemcachedSeries
	for _, kind := range []testbed.ServerKind{testbed.EbbRT, testbed.LinuxVM, testbed.LinuxNative} {
		fig6 = append(fig6, experiments.MemcachedCurve(kind, rates4, experiments.MemcachedOptions{Cores: 4, Duration: dur}))
	}
	fmt.Print(experiments.FormatMemcached(fig6))
	fmt.Println("Throughput at 500us p99 SLA:")
	for _, s := range fig6 {
		fmt.Printf("  %-14s %12.0f RPS\n", s.System, experiments.SLAThroughput(s.Points, sla))
	}

	section("Figure 7: V8 suite scores normalized to Linux")
	fmt.Print(experiments.FormatFigure7(experiments.Figure7()))

	section("Table 2: node.js webserver latency")
	fmt.Print(experiments.FormatTable2(experiments.Table2(0)))
}
