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

func TestKernelZeroEventCancelsNothing(t *testing.T) {
	var e Event
	if e.Cancel() {
		t.Fatal("zero Event Cancel returned true")
	}
}

// A handle whose event has fired must not cancel a later event that
// reuses the same slot.
func TestKernelStaleHandleCannotCancelReusedSlot(t *testing.T) {
	k := NewKernel()
	stale := k.At(1, func() {})
	k.Run()
	fired := false
	fresh := k.At(2, func() { fired = true })
	if fresh.slot != stale.slot {
		t.Fatalf("fresh event took slot %d, want the freed slot %d", fresh.slot, stale.slot)
	}
	if stale.Cancel() {
		t.Fatal("stale handle cancelled the event reusing its slot")
	}
	k.Run()
	if !fired {
		t.Fatal("event reusing a freed slot did not fire")
	}
	// The same holds for a slot freed by a cancelled event.
	cancelled := k.At(3, func() {})
	cancelled.Cancel()
	k.Run()
	fired = false
	fresh = k.At(4, func() { fired = true })
	if fresh.slot != cancelled.slot || cancelled.Cancel() {
		t.Fatal("cancelled handle cancelled the event reusing its slot")
	}
	k.Run()
	if !fired {
		t.Fatal("event reusing a cancelled slot did not fire")
	}
}

// Once the queue and slot table have grown, scheduling and firing an
// event allocates nothing.
func TestKernelAtStepAllocatesNothing(t *testing.T) {
	k := NewKernel()
	fn := func() {}
	for i := 0; i < 64; i++ {
		k.After(Time(i), fn)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		k.After(100, fn)
		k.Step()
	})
	if allocs != 0 {
		t.Fatalf("At+Step allocates %.1f objects, want 0", allocs)
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

func TestFIFOOrderAndRewind(t *testing.T) {
	var q FIFO[int]
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty FIFO reported an item")
	}
	next := 0
	for round := 0; round < 3; round++ {
		for i := 0; i < 5; i++ {
			q.Push(round*10 + i)
		}
		// Interleave pushes with pops: order stays first-in first-out.
		for want := round * 10; q.Len() > 0; want++ {
			if want == round*10+2 {
				q.Push(round*10 + 5)
			}
			v, ok := q.Pop()
			if !ok || v != want {
				t.Fatalf("round %d: Pop = %d, %v; want %d", round, v, ok, want)
			}
			next = want
		}
		if next != round*10+5 {
			t.Fatalf("round %d ended at %d", round, next)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 6; i++ {
			q.Push(i)
		}
		for q.Len() > 0 {
			q.Pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("a drained FIFO allocates %.1f objects on reuse, want 0", allocs)
	}
}
