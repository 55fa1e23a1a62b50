package main

import (
	"math"
	"sort"
)

// latencies collects one run's request latencies in virtual nanoseconds.
// Completed requests enter at their measured latency; requests still
// outstanding at the cutoff are censored: they enter at their age (the
// least their latency can be) and always count as missing any limit.
type latencies struct {
	v      []int64 // every request: completed latencies and censored ages
	cAges  []int64 // the censored subset of v
	sorted bool
}

func (l *latencies) add(ns int64) {
	l.v = append(l.v, ns)
	l.sorted = false
}

func (l *latencies) addCensored(age int64) {
	l.add(age)
	l.cAges = append(l.cAges, age)
}

func (l *latencies) count() int { return len(l.v) }

func (l *latencies) sort() {
	if !l.sorted {
		sort.Slice(l.v, func(i, j int) bool { return l.v[i] < l.v[j] })
		l.sorted = true
	}
}

// rankOf is the 0-based nearest-rank index of percentile p among n
// samples: the smallest sample with at least p% of the samples at or
// below it.
func rankOf(n int, p float64) int {
	// The epsilon absorbs binary rounding: p99.9 of 10000 is rank 9990,
	// although 99.9/100*10000 computes a hair above it.
	r := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	if r < 0 {
		r = 0
	}
	if r > n-1 {
		r = n - 1
	}
	return r
}

// beyond counts the samples strictly above percentile p's rank.
func beyond(n int, p float64) int { return n - 1 - rankOf(n, p) }

// percentile returns the nearest-rank percentile p in nanoseconds.
func (l *latencies) percentile(p float64) int64 {
	if len(l.v) == 0 {
		return 0
	}
	l.sort()
	return l.v[rankOf(len(l.v), p)]
}

// minBeyond is how many samples must lie beyond a percentile before it
// is reported.
const minBeyond = 10

// highestSupported returns the highest of the candidate percentiles
// (ascending) that has at least minBeyond samples beyond it among n, and
// false when not even the lowest candidate has.
func highestSupported(n int, candidates []float64) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range candidates {
		if beyond(n, p) >= minBeyond {
			best, ok = p, true
		}
	}
	return best, ok
}

// meetsLimit reports whether percentile p of the run stays at or under
// limit, counting every censored request as missing it whatever its age.
func (l *latencies) meetsLimit(p float64, limit int64) bool {
	n := len(l.v)
	if n == 0 {
		return false
	}
	allowed := n - 1 - rankOf(n, p) // requests that may miss the limit
	missed := len(l.cAges)
	for _, v := range l.v {
		if v > limit {
			missed++
		}
	}
	for _, v := range l.cAges {
		if v > limit {
			missed-- // already counted as censored
		}
	}
	return missed <= allowed
}

// searchCapacity finds the highest rate in [lo, hi) that passes, by a
// fixed number of bisection steps: every call probes exactly steps
// rates, so its cost does not depend on where the answer lies. lo is
// taken to pass and hi to fail without being probed; an answer pinned at
// lo means the capacity lies at or below the bracket. pass must be
// deterministic; when it is monotone (passing at r implies passing
// below r) the result is within (hi-lo)/2^steps of the true threshold.
func searchCapacity(lo, hi float64, steps int, pass func(rate float64) bool) float64 {
	good, bad := lo, hi
	for i := 0; i < steps; i++ {
		mid := (good + bad) / 2
		if pass(mid) {
			good = mid
		} else {
			bad = mid
		}
	}
	return good
}
