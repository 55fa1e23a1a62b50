package main

import (
	"math"
	"testing"
)

func TestHighestSupportedNeedsTenBeyond(t *testing.T) {
	cands := []float64{50, 90, 99, 99.9}
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{5, 0, false},  // not even the median has 10 beyond
		{21, 50, true}, // 10 beyond rank 10
		{99, 50, true}, // p90 has only 9 beyond
		{100, 90, true},
		{101, 90, true},
		{1010, 99, true},
		{9999, 99, true}, // p99.9 has 9 beyond
		{10000, 99.9, true},
	} {
		got, ok := highestSupported(tc.n, cands)
		if got != tc.want || ok != tc.ok {
			t.Errorf("n=%d: got (%v, %v), want (%v, %v)", tc.n, got, ok, tc.want, tc.ok)
		}
		if ok && beyond(tc.n, got) < minBeyond {
			t.Errorf("n=%d: p%v has %d beyond", tc.n, got, beyond(tc.n, got))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var l latencies
	for i := 100; i >= 1; i-- {
		l.add(int64(i))
	}
	for _, tc := range []struct {
		p    float64
		want int64
	}{{50, 50}, {99, 99}, {99.9, 100}, {100, 100}, {0, 1}} {
		if got := l.percentile(tc.p); got != tc.want {
			t.Errorf("p%v = %d, want %d", tc.p, got, tc.want)
		}
	}
}

func TestCensoredCountAtAgeAndMissTheLimit(t *testing.T) {
	const limit = 1000
	var l latencies
	for i := 0; i < 990; i++ {
		l.add(100)
	}
	// Ten requests still outstanding, all younger than the limit: they
	// enter the distribution at their age...
	for i := 0; i < 10; i++ {
		l.addCensored(500)
	}
	if got := l.percentile(100); got != 500 {
		t.Fatalf("max = %d, want the censored age 500", got)
	}
	if got := l.count(); got != 1000 {
		t.Fatalf("count = %d, want 1000: censored requests must be counted", got)
	}
	// ...but each counts as missing the limit: 10 misses in 1000 is
	// exactly what p99 allows,
	if !l.meetsLimit(99, limit) {
		t.Fatal("10 censored of 1000 should still meet a p99 limit")
	}
	// and one more, even a fast censored one, breaks it although every
	// recorded value is under the limit.
	l.addCensored(1)
	if l.meetsLimit(99, limit) {
		t.Fatal("11 censored of 1001 must miss a p99 limit")
	}
	if l.percentile(99) > limit {
		t.Fatal("test premise: the recorded p99 is under the limit")
	}

	// A censored request already older than the limit is one miss, not
	// two.
	var m latencies
	for i := 0; i < 99; i++ {
		m.add(100)
	}
	m.addCensored(5000)
	if !m.meetsLimit(99, limit) {
		t.Fatal("one censored request over the limit, among 100, is one miss")
	}
}

// syntheticP99 is an M/M/1-shaped latency curve with capacity cap: p99
// grows without bound as the rate approaches cap.
func syntheticP99(rate, cap float64) float64 {
	if rate >= cap {
		return math.Inf(1)
	}
	return 10 / (1 - rate/cap) * math.Log(100)
}

func TestCapacitySearchDeterministicAndMonotone(t *testing.T) {
	const lo, hi, steps, limit = 100.0, 2000.0, 6, 300.0
	search := func(cap float64) (float64, int) {
		probes := 0
		got := searchCapacity(lo, hi, steps, func(rate float64) bool {
			probes++
			return syntheticP99(rate, cap) <= limit
		})
		return got, probes
	}
	res := (hi - lo) / (1 << steps)
	prev := 0.0
	for cap := 200.0; cap <= 2100; cap += 37 {
		got, probes := search(cap)
		if probes != steps {
			t.Fatalf("cap %v: %d probes, want a constant %d", cap, probes, steps)
		}
		again, _ := search(cap)
		if again != got {
			t.Fatalf("cap %v: %v then %v", cap, got, again)
		}
		if got < prev {
			t.Fatalf("not monotone: cap %v gave %v after %v", cap, got, prev)
		}
		prev = got
		// The true threshold, where the curve crosses the limit.
		truth := cap * (1 - 10*math.Log(100)/limit)
		if truth >= lo && truth <= hi-res && (got > truth || got < truth-res) {
			t.Errorf("cap %v: got %v, true threshold %v, resolution %v", cap, got, truth, res)
		}
	}
}

func TestValueChecksCatchMisalignedMultiget(t *testing.T) {
	m := mix{keySpace: 4, valueMean: 100, valueMax: 1024}
	g := &gen{mix: m, salt: 7, nextSeq: []uint32{1, 1, 1, 1}}
	g.ops = []op{{kind: kindMulti, keys: []int32{0, 1, 2}}}
	vals := [][]byte{makeValue(m, 7, 0, 0), makeValue(m, 7, 1, 0), makeValue(m, 7, 2, 0)}
	ok := []uint16{0, 0, 0}

	g.finish(0, 0, ok, vals)
	if len(g.errs) != 0 || g.led.hit != 3 {
		t.Fatalf("aligned answers rejected: %v, %+v", g.errs, g.led)
	}

	// The same answers with two swapped must be caught, as must a value
	// from a sequence never written and one with corrupt filler.
	for name, bad := range map[string][][]byte{
		"swapped":   {vals[1], vals[0], vals[2]},
		"unwritten": {makeValue(m, 7, 0, 1), vals[1], vals[2]},
		"corrupt":   {vals[0], append(append([]byte(nil), vals[1][:len(vals[1])-1]...), vals[1][len(vals[1])-1]^1), vals[2]},
	} {
		g := &gen{mix: m, salt: 7, nextSeq: []uint32{1, 1, 1, 1}}
		g.ops = []op{{kind: kindMulti, keys: []int32{0, 1, 2}}}
		g.finish(0, 0, ok, bad)
		if len(g.errs) == 0 {
			t.Errorf("%s answers not caught", name)
		}
	}
}
