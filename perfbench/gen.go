package main

import (
	"encoding/binary"
	"fmt"
	"math"

	"ebbrt/internal/apps/memcached"
	"ebbrt/internal/cluster"
	"ebbrt/internal/event"
	"ebbrt/internal/sim"
)

// Op kinds the generator issues.
const (
	kindGet    uint8 = iota // one-key read
	kindSet                 // one-key write
	kindMulti               // multi-key read, one request
	kindRefill              // cache-aside write after a read miss
)

// op is one request's record: its schedule, its span stamps in virtual
// time, and how many of its keys resolved which way.
type op struct {
	arrival  sim.Time // scheduled send time, what latency is measured from
	dispatch sim.Time // when the submitting event ran on the client core
	submit   sim.Time // when the request entered the client or conn layer
	done     sim.Time // when its last callback ran
	keys     []int32
	seq      uint32 // write sequence, for sets
	lane     int32  // the submitter's connection index, where it has one
	kind     uint8
	finished bool
}

// ledger accounts every key-op a run issued. Its invariant:
// issued = hit + miss + stored + failed + outstanding.
type ledger struct {
	issued, hit, miss, stored, failed, outstanding uint64
}

func (l ledger) balanced() bool {
	return l.issued == l.hit+l.miss+l.stored+l.failed+l.outstanding
}

// mix is a workload's request mix.
type mix struct {
	keySpace  int
	zipf      float64
	getRatio  float64 // share of arrivals that are reads
	multiKeys int     // keys per read (1: plain Get)
	valueMean float64
	valueMax  int
	refill    bool // a read miss is followed by a cache-aside set
}

// keysPerArrival is the mean key-ops one arrival offers.
func (m mix) keysPerArrival() float64 {
	return m.getRatio*float64(m.multiKeys) + (1 - m.getRatio)
}

// makeKeys builds the key population: 20-70 bytes, a unique decimal id
// followed by filler, as the ETC workload's keys are.
func makeKeys(n int, rng *sim.Rng) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		id := fmt.Sprintf("k%d:", i)
		klen := rng.IntRange(20, 70)
		if klen < len(id) {
			klen = len(id)
		}
		key := make([]byte, klen)
		copy(key, id)
		for j := len(id); j < klen; j++ {
			key[j] = byte('a' + (i+j)%26)
		}
		keys[i] = key
	}
	return keys
}

// Values carry their own provenance so every hit can be checked: a
// 12-byte header of key id, write sequence and length, then filler
// derived from both. Lengths follow an exponential of the mix's mean,
// drawn from a hash of (salt, key, seq) so any value can be rebuilt.
const valueHeader = 12

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func valueLen(m mix, salt uint64, key int, seq uint32) int {
	h := splitmix(salt ^ uint64(key)<<32 ^ uint64(seq))
	u := (float64(h>>11) + 0.5) / (1 << 53)
	n := int(-m.valueMean*math.Log(u)) + 1
	if n < valueHeader {
		n = valueHeader
	}
	if n > m.valueMax {
		n = m.valueMax
	}
	return n
}

func fillerByte(key int, seq uint32, j int) byte { return byte(key*31 + int(seq)*17 + j) }

func makeValue(m mix, salt uint64, key int, seq uint32) []byte {
	v := make([]byte, valueLen(m, salt, key, seq))
	binary.LittleEndian.PutUint32(v[0:], uint32(key))
	binary.LittleEndian.PutUint32(v[4:], seq)
	binary.LittleEndian.PutUint32(v[8:], uint32(len(v)))
	for j := valueHeader; j < len(v); j++ {
		v[j] = fillerByte(key, seq, j)
	}
	return v
}

// checkValue verifies that v is a value written for key: its header
// names the key, a sequence already issued for it, and its own length,
// and its filler matches.
func (g *gen) checkValue(key int, v []byte) error {
	if len(v) < valueHeader {
		return fmt.Errorf("key %d: %d-byte value has no header", key, len(v))
	}
	k := int(binary.LittleEndian.Uint32(v[0:]))
	seq := binary.LittleEndian.Uint32(v[4:])
	n := int(binary.LittleEndian.Uint32(v[8:]))
	switch {
	case k != key:
		return fmt.Errorf("key %d: value was written for key %d", key, k)
	case seq >= g.nextSeq[key]:
		return fmt.Errorf("key %d: sequence %d never written (next %d)", key, seq, g.nextSeq[key])
	case n != len(v) || n != valueLen(g.mix, g.salt, key, seq):
		return fmt.Errorf("key %d seq %d: length %d, header %d", key, seq, len(v), n)
	}
	for _, j := range []int{valueHeader, (valueHeader + n) / 2, n - 1} {
		if j >= valueHeader && j < n && v[j] != fillerByte(key, seq, j) {
			return fmt.Errorf("key %d seq %d: filler corrupt at %d", key, seq, j)
		}
	}
	return nil
}

// submitter is how a workload reaches the system under test. route
// picks the client core op id is submitted on; submit then runs there
// and must lead to exactly one g.finish call for the op.
type submitter interface {
	route(g *gen, id int32) *event.Manager
	submit(c *event.Ctx, g *gen, id int32)
}

// gen is the benchmark's open-loop Poisson generator for one window.
type gen struct {
	k       *sim.Kernel
	mix     mix
	salt    uint64
	keys    [][]byte
	nextSeq []uint32 // per key: the next write sequence
	target  submitter

	arrRng, opRng *sim.Rng
	zipf          *sim.Zipf

	ops  []op
	led  ledger
	errs []error
	end  sim.Time // when arrivals stop; refills are issued only before it
	// failedBy counts failed key-ops by response status.
	failedBy map[uint16]uint64

	// trace, when set, times each call into the client or conn layer in
	// both clocks.
	trace                  bool
	callHostNs, callVirtNs int64
}

// newGen prepares a generator over a deployment's key population; its
// arrival and key streams derive from seed and stream, so each window of
// a run draws its own reproducible sequence.
func newGen(d *deployment, seed, stream uint64) *gen {
	opRng := sim.NewRng(splitmix(seed ^ stream*0x51ed27))
	m := d.w.mix
	return &gen{
		k: d.k, mix: m, salt: seed, keys: d.keys, nextSeq: d.nextSeq, target: d.target,
		arrRng: sim.NewRng(splitmix(seed ^ stream*0x9e3779b9 ^ 0xa11)),
		opRng:  opRng,
		zipf:   sim.NewZipf(opRng, m.zipf, m.keySpace),

		failedBy: map[uint16]uint64{},
	}
}

func (g *gen) fail(err error) {
	if len(g.errs) < 16 {
		g.errs = append(g.errs, err)
	}
}

// window offers Poisson arrivals at rate key-ops/s from now for dur, then
// lets the system drain for drain more before the cutoff. It returns the
// cutoff time; ops unfinished by then are outstanding.
func (g *gen) window(rate float64, dur, drain sim.Time) sim.Time {
	start := g.k.Now()
	end := start + dur
	g.end = end
	mean := 1e9 / (rate / g.mix.keysPerArrival())
	var next func()
	at := start
	next = func() {
		g.arrive(at)
		at += sim.Time(g.arrRng.Exp(mean))
		if at < end {
			g.k.At(at, next)
		}
	}
	at += sim.Time(g.arrRng.Exp(mean))
	if at < end {
		g.k.At(at, next)
	}
	return end + drain
}

// arrive draws one request and hands it to a client core.
func (g *gen) arrive(at sim.Time) {
	o := op{arrival: at}
	if g.opRng.Float64() < g.mix.getRatio {
		o.kind = kindGet
		o.keys = make([]int32, g.mix.multiKeys)
		if g.mix.multiKeys > 1 {
			o.kind = kindMulti
		}
		for i := range o.keys {
			o.keys[i] = int32(g.zipf.Next())
		}
	} else {
		o.kind = kindSet
		o.keys = []int32{int32(g.zipf.Next())}
	}
	g.issue(o)
}

func (g *gen) issue(o op) {
	id := int32(len(g.ops))
	g.ops = append(g.ops, o)
	g.led.issued += uint64(len(o.keys))
	g.target.route(g, id).Spawn(func(c *event.Ctx) {
		g.ops[id].dispatch = c.Now()
		g.target.submit(c, g, id)
	})
}

// value draws the next write of op id's key: a fresh sequence and the
// value encoding it.
func (g *gen) value(id int32) []byte {
	o := &g.ops[id]
	key := int(o.keys[0])
	o.seq = g.nextSeq[key]
	g.nextSeq[key]++
	return makeValue(g.mix, g.salt, key, o.seq)
}

// call runs one call into the client or conn layer, timing it in both
// clocks when tracing.
func (g *gen) call(c *event.Ctx, id int32, fn func()) {
	g.ops[id].submit = c.Now()
	if !g.trace {
		fn()
		return
	}
	v0 := c.Charged()
	t0 := nowNano()
	fn()
	g.callHostNs += nowNano() - t0
	g.callVirtNs += int64(c.Charged() - v0)
}

// finish scores op id's responses, index-aligned with its keys. For a
// read, status OK is a hit whose value is checked, key-not-found a miss;
// for a write OK is stored; anything else failed.
func (g *gen) finish(now sim.Time, id int32, status []uint16, values [][]byte) {
	o := &g.ops[id]
	if o.finished {
		g.fail(fmt.Errorf("op %d completed twice", id))
		return
	}
	if len(status) != len(o.keys) {
		g.fail(fmt.Errorf("op %d: %d answers for %d keys", id, len(status), len(o.keys)))
		return
	}
	o.finished = true
	o.done = now
	var missed []int32
	for i, st := range status {
		key := int(o.keys[i])
		switch {
		case o.kind == kindSet || o.kind == kindRefill:
			if st == memcached.StatusOK {
				g.led.stored++
			} else {
				g.led.failed++
				g.failedBy[st]++
			}
		case st == memcached.StatusOK:
			g.led.hit++
			if err := g.checkValue(key, values[i]); err != nil {
				g.fail(fmt.Errorf("op %d key index %d: %w", id, i, err))
			}
		case st == memcached.StatusKeyNotFound:
			g.led.miss++
			missed = append(missed, o.keys[i])
		default:
			g.led.failed++
			g.failedBy[st]++
		}
	}
	if g.mix.refill && now < g.end {
		for _, key := range missed {
			g.issue(op{arrival: now, kind: kindRefill, keys: []int32{key}})
		}
	}
}

// statuses adapts cluster responses to finish's form.
func statuses(rs []cluster.Response) ([]uint16, [][]byte) {
	st := make([]uint16, len(rs))
	vs := make([][]byte, len(rs))
	for i, r := range rs {
		st[i], vs[i] = r.Status, r.Value
		if r.NetworkError() {
			st[i] = cluster.StatusNetworkError
		}
	}
	return st, vs
}

// close ends the window at cutoff: it scores every request's latency
// from its scheduled send time, enters the unfinished at their age as
// censored, and counts their key-ops outstanding. waits and replies
// collect the finished requests' arrival-to-submit and submit-to-done
// spans, lag the arrival-to-dispatch delay.
func (g *gen) close(cutoff sim.Time) (lat, waits, replies, lag *latencies) {
	lat, waits, replies, lag = &latencies{}, &latencies{}, &latencies{}, &latencies{}
	for i := range g.ops {
		o := &g.ops[i]
		if !o.finished {
			lat.addCensored(int64(cutoff - o.arrival))
			g.led.outstanding += uint64(len(o.keys))
			continue
		}
		lat.add(int64(o.done - o.arrival))
		waits.add(int64(o.submit - o.arrival))
		replies.add(int64(o.done - o.submit))
		lag.add(int64(o.dispatch - o.arrival))
	}
	return lat, waits, replies, lag
}

// unfinished counts key-ops issued and not yet answered.
func (g *gen) unfinished() uint64 {
	var n uint64
	for i := range g.ops {
		if !g.ops[i].finished {
			n += uint64(len(g.ops[i].keys))
		}
	}
	return n
}
