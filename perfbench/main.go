// Command perfbench is the repository's benchmark. It boots one
// workload's memcached-cluster deployment through the public
// constructors, drives it with its own open-loop Poisson generator, and
// prints every metric with its unit; the last line of its output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload etc_native --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured untraced;
// with --trace 1 a separate traced run reports the per-layer metrics and
// checks that tracing moved no virtual-clock number. Any violated check
// (the outcome ledger, a hit's value, multiget alignment, transparency)
// prints "correct": false and exits 1. README.md describes the workloads
// and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"ebbrt/internal/sim"
)

// outDir holds what a traced run writes: spans and profiles.
const outDir = ".bench_build/perfbench"

func main() { os.Exit(run(os.Args[1:])) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "host seconds the nominal window is sized for")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload one of %s, --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)
	fmt.Printf("# meta %s\n", metaJSON(w.name, *seed, *seconds, *trace))

	b := &bench{w: w, seed: *seed, seconds: *seconds, start: time.Now()}
	var res result
	if *trace == 0 {
		res = b.endToEnd()
	} else {
		res = b.perLayer()
	}
	for _, err := range b.errs {
		fmt.Printf("# VIOLATION: %v\n", err)
	}
	res.Correct = len(b.errs) == 0
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# %-32s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Printf("# wall %.3f s\n", time.Since(b.start).Seconds())
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// metaJSON records what a result was measured on.
func metaJSON(name string, seed uint64, seconds, trace int) string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.Index(line, ":"); i >= 0 {
					cpu = strings.TrimSpace(line[i+1:])
				}
				break
			}
		}
	}
	m := map[string]any{
		"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "cpu": cpu,
	}
	b, _ := json.Marshal(m) // a map of plain values always marshals
	return string(b)
}

// bench is one invocation: a workload at a seed.
type bench struct {
	w       *workload
	seed    uint64
	seconds int
	start   time.Time
	setups  []float64
	errs    []error
}

func (b *bench) check(err error) {
	if err != nil {
		b.errs = append(b.errs, err)
	}
}

// deploy boots, prepopulates and warms a deployment - connections up,
// hot keys promoted, the warm-up load drained - and measures all of it
// as one set-up, in process CPU seconds (see hostSlices). The heap is
// collected first so one deployment's garbage is not charged to the next
// one's set-up.
func (b *bench) deploy(traced bool) *deployment {
	runtime.GC()
	cpu0 := cpuNs()
	d := boot(b.w, b.seed, traced)
	b.check(d.warm(b.seed))
	b.setups = append(b.setups, float64(cpuNs()-cpu0)/1e9)
	return d
}

// warm brings the deployment to steady state before any timed window.
func (d *deployment) warm(seed uint64) error {
	k := d.k
	if rt, ok := d.target.(*rawTarget); ok {
		for deadline := k.Now() + 50*sim.Millisecond; !rt.ready() && k.Now() < deadline; {
			k.RunFor(100 * sim.Microsecond)
		}
		if !rt.ready() {
			return errors.New("warm-up: connections not up after 50ms")
		}
	}
	g := newGen(d, seed, 1)
	k.RunUntil(g.window(d.w.nominal, d.w.warmup, d.w.limit))
	for drain := k.Now() + 50*sim.Millisecond; g.unfinished() > 0 && k.Now() < drain; {
		k.RunFor(sim.Millisecond)
	}
	// Nothing may be left over to finish inside the next window.
	g.close(k.Now())
	if g.led.outstanding > 0 {
		return fmt.Errorf("warm-up: %d key-ops never answered", g.led.outstanding)
	}
	if err := g.verify(g.led); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

// window is one measured load window's outcome.
type window struct {
	led                      ledger
	lat, waits, replies, lag *latencies
	hostUsPerOp              float64 // process CPU per key-op, median over slices
	wallUsPerOp              float64 // wall time per key-op over the window
	mallocs, allocBytes      uint64
	backlog                  uint64 // key-ops unanswered when arrivals stopped
	work                     counters
	gen                      *gen
	fingerprint              uint64
}

// hostSlices is how many equal virtual slices a window's host cost is
// measured in. The cost is the process's CPU time (user + system, every
// thread, so the collector's background work counts), not wall time: on
// a shared host, time spent descheduled is noise, not simulator cost.
// The median over slices is robust to a stray pause.
const hostSlices = 20

// measure runs one window at rate key-ops/s for dur on a warmed
// deployment.
func (b *bench) measure(d *deployment, stream uint64, rate float64, dur sim.Time, traced bool) *window {
	k := d.k
	g := newGen(d, b.seed, stream)
	g.trace = traced
	runtime.GC()
	c0 := d.snapshot()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	start := k.Now()
	cutoff := g.window(rate, dur, d.w.limit)
	var backlog uint64
	k.At(g.end, func() { backlog = g.unfinished() })
	var per []float64
	wall0 := nowNano()
	for i := 1; i <= hostSlices; i++ {
		issued := g.led.issued
		cpu0 := cpuNs()
		k.RunUntil(start + (cutoff-start)*sim.Time(i)/hostSlices)
		if n := g.led.issued - issued; n > 0 {
			per = append(per, float64(cpuNs()-cpu0)/1e3/float64(n))
		}
	}
	wall := nowNano() - wall0
	runtime.ReadMemStats(&m1)
	win := &window{gen: g, backlog: backlog, work: d.snapshot().minus(c0)}
	win.fingerprint = g.fingerprint()
	win.lat, win.waits, win.replies, win.lag = g.close(cutoff)
	win.led = g.led
	win.hostUsPerOp = median(per)
	win.mallocs = m1.Mallocs - m0.Mallocs
	win.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	if win.led.issued > 0 {
		win.wallUsPerOp = float64(wall) / 1e3 / float64(win.led.issued)
	}
	b.check(g.verify(win.led))
	return win
}

// fingerprint hashes every request's virtual-time record, so two runs
// can be compared exactly.
func (g *gen) fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x int64) {
		for i := range buf {
			buf[i] = byte(x >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, o := range g.ops {
		put(int64(o.arrival))
		put(int64(o.dispatch))
		put(int64(o.submit))
		put(int64(o.done))
		put(int64(o.kind))
		for _, k := range o.keys {
			put(int64(k))
		}
	}
	return h.Sum64()
}

// verify reports a window's correctness violations: value and alignment
// errors seen as responses arrived, and a ledger that does not balance.
func (g *gen) verify(l ledger) error {
	var errs []error
	errs = append(errs, g.errs...)
	if !l.balanced() {
		errs = append(errs, fmt.Errorf("ledger: issued %d != hit %d + miss %d + stored %d + failed %d + outstanding %d",
			l.issued, l.hit, l.miss, l.stored, l.failed, l.outstanding))
	}
	return errors.Join(errs...)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minRequests is the fewest requests a nominal window is sized for, so
// p99.9 has at least 10 beyond it even at a small --seconds.
const minRequests = 12000

// nominalDur is the nominal window: --seconds x the workload's virtual
// time per second, and never shorter than minRequests arrivals.
func (b *bench) nominalDur() sim.Time {
	d := b.w.virtPerSec * sim.Time(b.seconds)
	if least := sim.Time(minRequests / (b.w.nominal / b.w.mix.keysPerArrival()) * 1e9); d < least {
		d = least
	}
	return d
}

// endToEnd is the untraced run: the nominal window on one deployment,
// then the capacity search, each probe on a fresh one.
func (b *bench) endToEnd() result {
	w := b.w
	d := b.deploy(false)
	win := b.measure(d, 2, w.nominal, b.nominalDur(), false)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(d) // the live heap is measured with the deployment in it
	liveMB := float64(ms.HeapAlloc) / 1e6

	p999, beyond999 := b.tail(win)
	capacity := searchCapacity(w.lo, w.hi, searchSteps, func(rate float64) bool {
		pd := b.deploy(false)
		pw := b.measure(pd, 3, rate, sim.Time(w.probeOps/rate*1e9), false)
		pass := pw.lat.meetsLimit(99, int64(w.limit)) && float64(pw.backlog) <= rate*w.limit.Std().Seconds()
		fmt.Printf("# probe %.0f key-ops/s: p99 %.1fus backlog %d censored %d -> pass=%v\n",
			rate, us(pw.lat.percentile(99)), pw.backlog, len(pw.lat.cAges), pass)
		return pass
	})
	led := win.led
	fmt.Printf("# ledger issued=%d hit=%d miss=%d stored=%d failed=%d outstanding=%d; requests=%d, %d beyond p99.9\n",
		led.issued, led.hit, led.miss, led.stored, led.failed, led.outstanding, win.lat.count(), beyond999)
	if len(win.gen.failedBy) > 0 {
		fmt.Printf("# failed key-ops by status: %v\n", win.gen.failedBy)
	}
	fmt.Printf("# host cpu %.3f us/op (median of %d slices), wall %.3f us/op; setups %v cpu-s\n", win.hostUsPerOp, hostSlices, win.wallUsPerOp, b.setups)
	ops := float64(led.issued)
	m := map[string]metric{
		"p50_us":             {us(win.lat.percentile(50)), "us"},
		"p99_us":             {us(win.lat.percentile(99)), "us"},
		"p999_us":            {p999, "us"},
		"slo_capacity_kops":  {capacity / 1e3, "kop/s"},
		"hit_ratio":          {ratio(led.hit, led.hit+led.miss), "ratio"},
		"host_us_per_op":     {win.hostUsPerOp, "us/op"},
		"allocs_per_op":      {float64(win.mallocs) / ops, "1/op"},
		"alloc_bytes_per_op": {float64(win.allocBytes) / ops, "B/op"},
		"live_heap_mb":       {liveMB, "MB"},
		"setup_s":            {median(b.setups), "s"},
		"cpu_s":              {float64(cpuNs()) / 1e9, "s"},
	}
	return result{Attempted: led.issued, Failed: led.failed + led.outstanding, Metrics: m}
}

// tail returns p99.9 and how many requests lie beyond it, recording a
// violation when the window was too small to support it.
func (b *bench) tail(win *window) (float64, int) {
	n := win.lat.count()
	if p, ok := highestSupported(n, []float64{50, 90, 99, 99.9}); !ok || p < 99.9 {
		b.check(fmt.Errorf("nominal window has %d requests, too few for p99.9", n))
	}
	return us(win.lat.percentile(99.9)), beyond(n, 99.9)
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// perLayer is the traced run: the nominal window untraced, then again on
// a fresh deployment with the store wrapped, the client calls timed and
// the host profiled. The two must agree on every virtual-clock number.
func (b *bench) perLayer() result {
	w := b.w
	plain := b.measure(b.deploy(false), 2, w.nominal, b.nominalDur(), false)

	d := b.deploy(true)
	memRate := runtime.MemProfileRate
	runtime.MemProfileRate = 4096
	allocs0 := takeAllocSnapshot()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		b.check(fmt.Errorf("cpu profile: %w", err))
	}
	tr := b.measure(d, 2, w.nominal, b.nominalDur(), true)
	pprof.StopCPUProfile()
	allocs1 := takeAllocSnapshot()
	runtime.MemProfileRate = memRate

	if tr.fingerprint != plain.fingerprint || tr.led != plain.led {
		b.check(fmt.Errorf("transparency: traced run differs from untraced (fingerprint %x vs %x, ledger %+v vs %+v)",
			tr.fingerprint, plain.fingerprint, tr.led, plain.led))
	}
	samples, err := cpuSamples(prof.Bytes())
	b.check(err)
	cpu := cpuShares(samples)
	alloc := allocShares(allocs0, allocs1, 4096)
	b.writeTrace(tr, prof.Bytes())

	led, c := tr.led, tr.work
	ops := float64(led.issued)
	kops := ops / 1e3
	_, beyond999 := b.tail(tr)
	m := map[string]metric{
		"sim.events_per_op":            {float64(c.events) / ops, "1/op"},
		"event.dispatches_per_op":      {float64(c.dispatches) / ops, "1/op"},
		"nic.frames_per_op":            {float64(c.txFrames) / ops, "1/op"},
		"nic.bytes_per_op":             {float64(c.txBytes) / ops, "B/op"},
		"tcp.retransmits_per_kop":      {float64(c.retransmits) / kops, "1/kop"},
		"server.requests_per_op":       {float64(c.requests) / ops, "1/op"},
		"store.calls_per_op":           {float64(c.storeCalls) / ops, "1/op"},
		"store.vns_per_call":           {fdiv(float64(c.storeVns), float64(c.storeCalls)), "vns"},
		"store.host_ns_per_call":       {fdiv(float64(c.storeHostNs), float64(c.storeCalls)), "ns"},
		"store.evictions_per_kop":      {float64(c.evictions) / kops, "1/kop"},
		"store.peak_fill":              {c.peakFill, "ratio"},
		"client.call_vns_per_op":       {float64(tr.gen.callVirtNs) / ops, "vns/op"},
		"client.call_host_ns_per_op":   {float64(tr.gen.callHostNs) / ops, "ns/op"},
		"batch.ops_per_round":          {fdiv(float64(c.batch.Ops), float64(c.batch.Rounds)), "1/round"},
		"batch.multi_round_share":      {fdiv(float64(c.batch.Batches), float64(c.batch.Rounds)), "ratio"},
		"hotkey.hit_ratio":             {ratio(c.hot.Hits, c.hot.Hits+c.hot.Misses), "ratio"},
		"hotkey.invalidations_per_kop": {float64(c.hot.Invalidations) / kops, "1/kop"},
		"gen.lag_p99_us":               {us(tr.lag.percentile(99)), "us"},
		"span.wait_p50_us":             {us(tr.waits.percentile(50)), "us"},
		"span.wait_p99_us":             {us(tr.waits.percentile(99)), "us"},
		"span.reply_p50_us":            {us(tr.replies.percentile(50)), "us"},
		"span.reply_p99_us":            {us(tr.replies.percentile(99)), "us"},
		"fail_ratio":                   {ratio(led.failed+led.outstanding, led.issued), "ratio"},
		"lat.beyond_p999":              {float64(beyond999), "count"},
		"trace.overhead_ratio":         {fdiv(tr.hostUsPerOp, plain.hostUsPerOp), "ratio"},
	}
	for _, l := range []string{"sim", "event", "runtime_sched", "netstack", "future", "gpos", "gc", "malloc",
		"machine", "iobuf", "memcached", "cluster", "bench"} {
		m["host.self_pct."+l] = metric{cpu[l], "%"}
	}
	for _, l := range []string{"iobuf", "netstack", "memcached", "cluster", "sim", "event", "bench"} {
		m["host.alloc_pct."+l] = metric{alloc[l], "%"}
	}
	fmt.Printf("# ledger issued=%d hit=%d miss=%d stored=%d failed=%d outstanding=%d\n",
		led.issued, led.hit, led.miss, led.stored, led.failed, led.outstanding)
	fmt.Printf("# host untraced %.3f us/op, traced %.3f us/op; %d CPU samples\n", plain.hostUsPerOp, tr.hostUsPerOp, len(samples))
	return result{Attempted: led.issued, Failed: led.failed + led.outstanding, Metrics: m}
}

func fdiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// spanEvery samples which requests' spans are written out.
const spanEvery = 64

// writeTrace writes the traced window's sampled request spans and the CPU
// profile. Spans are kept in memory during the run and written only here.
func (b *bench) writeTrace(win *window, cpuProf []byte) {
	dir := filepath.Join(outDir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: trace output:", err)
		return
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", b.w.name, b.seed))
	var buf bytes.Buffer
	for i := 0; i < len(win.gen.ops); i += spanEvery {
		o := win.gen.ops[i]
		if !o.finished {
			continue
		}
		// One root span per request with its three children: wait
		// (arrival to submit), call (submit into the client/conn layer),
		// reply (submit to last callback). Times are virtual ns.
		fmt.Fprintf(&buf, `{"id":%d,"kind":%d,"keys":%d,"arrival":%d,"dispatch":%d,"submit":%d,"done":%d}`+"\n",
			i, o.kind, len(o.keys), o.arrival, o.dispatch, o.submit, o.done)
	}
	for _, f := range []struct {
		name string
		data []byte
	}{{base + ".spans.jsonl", buf.Bytes()}, {base + ".cpu.pprof", cpuProf}} {
		if err := os.WriteFile(f.name, f.data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: trace output:", err)
		}
	}
}

// cpuNs reads the process's CPU time, user plus system, in nanoseconds.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid buffer cannot fail
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}
