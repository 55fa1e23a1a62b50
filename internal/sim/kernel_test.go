package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestKernelOrdering(t *testing.T) {
	k := NewKernel()
	var got []int
	k.At(30, func() { got = append(got, 3) })
	k.At(10, func() { got = append(got, 1) })
	k.At(20, func() { got = append(got, 2) })
	k.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if k.Now() != 30 {
		t.Fatalf("Now = %v, want 30", k.Now())
	}
}

func TestKernelFIFOAtSameInstant(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(5, func() { got = append(got, i) })
	}
	k.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-instant order = %v, want FIFO", got)
		}
	}
}

func TestKernelCancel(t *testing.T) {
	k := NewKernel()
	fired := false
	e := k.At(10, func() { fired = true })
	if !e.Cancel() {
		t.Fatal("Cancel of pending event returned false")
	}
	if e.Cancel() {
		t.Fatal("second Cancel returned true")
	}
	k.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if k.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", k.Pending())
	}
}

func TestKernelCancelAfterFire(t *testing.T) {
	k := NewKernel()
	e := k.At(1, func() {})
	k.Run()
	if e.Cancel() {
		t.Fatal("Cancel after fire returned true")
	}
}

func TestKernelNestedScheduling(t *testing.T) {
	k := NewKernel()
	var times []Time
	k.At(10, func() {
		k.After(5, func() { times = append(times, k.Now()) })
	})
	k.Run()
	if len(times) != 1 || times[0] != 15 {
		t.Fatalf("nested event at %v, want [15]", times)
	}
}

func TestKernelRunUntil(t *testing.T) {
	k := NewKernel()
	var fired []Time
	for _, at := range []Time{5, 10, 15, 20} {
		at := at
		k.At(at, func() { fired = append(fired, at) })
	}
	k.RunUntil(12)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 5 and 10 only", fired)
	}
	if k.Now() != 12 {
		t.Fatalf("Now = %v, want 12", k.Now())
	}
	k.RunFor(8)
	if len(fired) != 4 || k.Now() != 20 {
		t.Fatalf("after RunFor: fired=%v now=%v", fired, k.Now())
	}
}

func TestKernelPastSchedulingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	k := NewKernel()
	k.At(10, func() { k.At(5, func() {}) })
	k.Run()
}

func TestKernelNegativeAfterClamps(t *testing.T) {
	k := NewKernel()
	fired := false
	k.At(10, func() { k.After(-5, func() { fired = true }) })
	k.Run()
	if !fired {
		t.Fatal("clamped event did not fire")
	}
}

func TestDurationConversions(t *testing.T) {
	if Duration(3*time.Microsecond) != 3*Microsecond {
		t.Fatal("Duration conversion wrong")
	}
	if (2 * Millisecond).Std() != 2*time.Millisecond {
		t.Fatal("Std conversion wrong")
	}
	if (1500 * Nanosecond).Micros() != 1.5 {
		t.Fatal("Micros conversion wrong")
	}
}

// Property: for any batch of non-negative delays, events fire in
// non-decreasing time order and the count matches.
func TestKernelOrderProperty(t *testing.T) {
	prop := func(delays []uint16) bool {
		k := NewKernel()
		var fired []Time
		for _, d := range delays {
			k.After(Time(d), func() { fired = append(fired, k.Now()) })
		}
		k.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkKernelAtStep measures one event's trip through the queue: it
// is scheduled with At and later popped and fired, against a standing
// backlog of 1024 pending events at scattered times.
func BenchmarkKernelAtStep(b *testing.B) {
	const backlog = 1024
	k := NewKernel()
	r := NewRng(1)
	left := b.N
	var fire func()
	fire = func() {
		if left > 0 {
			left--
			k.At(k.Now()+Time(r.Uint64()%10000), fire)
		}
	}
	for i := 0; i < backlog; i++ {
		k.At(Time(r.Uint64()%10000), fire)
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}
