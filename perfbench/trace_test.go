package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		stack []string // leaf first
		want  string
	}{
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.makeslice", "ebbrt/internal/iobuf.New"}, "malloc"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule"}, "runtime_sched"},
		{[]string{"runtime.chanrecv", "runtime.chanrecv1", "ebbrt/internal/event.(*Manager).exec"}, "runtime_sched"},
		// A runtime helper counts against its caller.
		{[]string{"runtime.memmove", "ebbrt/internal/netstack.(*Interface).receive"}, "netstack"},
		{[]string{"container/heap.down", "ebbrt/internal/sim.(*Kernel).Step"}, "sim"},
		// Allocation inside an assist is collector work.
		{[]string{"runtime.scanobject", "runtime.gcAssistAlloc", "runtime.mallocgc", "main.makeValue"}, "gc"},
		// Only the runtime frames beneath the first outside one count.
		{[]string{"ebbrt/internal/cluster.(*Client).Get", "runtime.mallocgc"}, "cluster"},
	} {
		if got := classify(tc.stack); got != tc.want {
			t.Errorf("classify(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

//go:noinline
func spin(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1
		}
	}
	return x
}

func TestCPUProfileDecodes(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	sink := spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	_ = sink
	samples, err := cpuSamples(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var inSpin, total int64
	for _, s := range samples {
		if s.count <= 0 {
			t.Fatalf("sample with count %d", s.count)
		}
		total += s.count
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".spin") {
				inSpin += s.count
				break
			}
		}
	}
	if total == 0 || inSpin*2 < total {
		t.Fatalf("%d of %d samples in the busy loop, want most", inSpin, total)
	}
}
