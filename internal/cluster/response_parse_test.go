package cluster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"ebbrt/internal/apps/memcached"
	"ebbrt/internal/event"
	"ebbrt/internal/iobuf"
	"ebbrt/internal/machine"
	"ebbrt/internal/sim"
)

// roundKeys is the GETQ round the parser tests replay; a key's index is
// its opaque, and roundKeys' length is the fence's.
var roundKeys = [][]byte{[]byte("k0"), []byte("k1"), []byte("k2"), []byte("k3"), []byte("k4"), []byte("k5")}

// roundHits are the members the scripted server answers; the rest stay
// quiet and resolve as misses at the fence.
var roundHits = map[uint32][]byte{0: []byte("value-zero"), 2: []byte(""), 5: bytes.Repeat([]byte("v5"), 20)}

// scriptedRoundResponse encodes the server's side of roundKeys' round:
// a GETQ hit (flags, expiry extras, CAS) per roundHits member, in opaque
// order, then the Noop fence's answer.
func scriptedRoundResponse() []byte {
	var out []byte
	for opaque := uint32(0); opaque < uint32(len(roundKeys)); opaque++ {
		v, ok := roundHits[opaque]
		if !ok {
			continue
		}
		body := memcached.GetResponseExtrasLen + len(v)
		pkt := make([]byte, memcached.HeaderLen+body)
		memcached.WriteHeader(pkt, memcached.Header{
			Magic: memcached.MagicResponse, Opcode: memcached.OpGetQ,
			ExtrasLen: memcached.GetResponseExtrasLen, BodyLen: uint32(body),
			Opaque: opaque, CAS: 100 + uint64(opaque),
		})
		binary.BigEndian.PutUint32(pkt[memcached.HeaderLen:], 7+opaque)
		binary.BigEndian.PutUint64(pkt[memcached.HeaderLen+4:], uint64(1000*(opaque+1)))
		copy(pkt[memcached.HeaderLen+memcached.GetResponseExtrasLen:], v)
		out = append(out, pkt...)
	}
	fence := make([]byte, memcached.HeaderLen)
	memcached.WriteHeader(fence, memcached.Header{
		Magic: memcached.MagicResponse, Opcode: memcached.OpNoop, Opaque: uint32(len(roundKeys)),
	})
	return append(out, fence...)
}

// firedCallback is one callback a round member received. value is the
// Response's own slice, not a copy, so a later overwrite of the
// delivered bytes shows through if it aliases them.
type firedCallback struct {
	member int
	status uint16
	flags  uint32
	cas    uint64
	expiry sim.Time
	value  []byte
}

func (f firedCallback) String() string {
	return fmt.Sprintf("member %d status %#x flags %d cas %d expiry %d value %q",
		f.member, f.status, f.flags, f.cas, f.expiry, f.value)
}

// replayRound sends roundKeys' round on a fresh connection, feeds it
// the given deliveries (overwriting each one's bytes once onData has
// returned), and reports the callbacks in the order they fired.
func replayRound(t *testing.T, c *event.Ctx, deliveries []*iobuf.IOBuf) []firedCallback {
	t.Helper()
	cc := &clientConn{conn: &nullConn{}, connected: true, inflight: map[uint32]inflightOp{}}
	var fired []firedCallback
	ops := make([]pendingRead, len(roundKeys))
	for i, key := range roundKeys {
		ops[i] = pendingRead{key: key, cb: func(c *event.Ctx, r Response) {
			fired = append(fired, firedCallback{i, r.Status, r.Flags, r.CAS, r.ExpiresAt, r.Value})
		}}
	}
	var stats BatchStats
	cc.sendRound(c, ops, &stats)
	for _, d := range deliveries {
		cc.onData(c, d)
		d.ForEach(func(b *iobuf.IOBuf) {
			for i := range b.Data() {
				b.Data()[i] = 0xff
			}
		})
	}
	if len(cc.inflight) != 0 {
		t.Fatalf("%d operations still in flight after the fence", len(cc.inflight))
	}
	if cc.closed {
		t.Fatal("connection torn down by a well-formed round")
	}
	return fired
}

// TestClientParsesPipelinedRoundAnyDelivery: a GETQ round's response -
// hits with values, quiet misses and the Noop fence - fires the same
// callbacks whether it arrives whole, split at any byte offset, or as a
// two-element chain, and no hit's value aliases the delivered bytes.
func TestClientParsesPipelinedRoundAnyDelivery(t *testing.T) {
	wire := scriptedRoundResponse()
	var want []firedCallback
	for opaque := range roundKeys {
		if v, ok := roundHits[uint32(opaque)]; ok {
			var value []byte
			if len(v) > 0 {
				value = v
			}
			want = append(want, firedCallback{opaque, memcached.StatusOK, 7 + uint32(opaque),
				100 + uint64(opaque), sim.Time(1000 * (opaque + 1)), value})
		}
	}
	for opaque := range roundKeys {
		if _, ok := roundHits[uint32(opaque)]; !ok {
			want = append(want, firedCallback{member: opaque, status: memcached.StatusKeyNotFound})
		}
	}
	check := func(name string, got []firedCallback) {
		t.Helper()
		if !slices.EqualFunc(got, want, func(a, b firedCallback) bool { return a.String() == b.String() }) {
			t.Fatalf("%s: callbacks\n%v\nwant\n%v", name, got, want)
		}
	}
	k := sim.NewKernel()
	m := machine.New(k, machine.DefaultConfig("c", 1))
	mgr := event.NewManager(m.Cores[0], event.DefaultCosts())
	done := false
	mgr.Spawn(func(c *event.Ctx) {
		check("whole", replayRound(t, c, []*iobuf.IOBuf{iobuf.FromBytes(wire)}))
		for off := 1; off < len(wire); off++ {
			name := fmt.Sprintf("split at %d", off)
			check(name, replayRound(t, c, []*iobuf.IOBuf{iobuf.FromBytes(wire[:off]), iobuf.FromBytes(wire[off:])}))
		}
		mid := len(wire) / 2
		chain := iobuf.FromBytes(wire[:mid])
		chain.AppendChain(iobuf.FromBytes(wire[mid:]))
		check("2-element chain", replayRound(t, c, []*iobuf.IOBuf{chain}))
		done = true
	})
	k.RunUntil(1 * sim.Second)
	if !done {
		t.Fatal("event did not run")
	}
}

// getMultiRoundAllocs is the pinned allocation count of one 8-key
// GetMulti against a single backend, from the frontend's call to its
// callback: one GETQ+Noop round out, the backend's coalesced hits back,
// through both nodes' stacks, the frontend's gpos sockets and the
// backend's server. Lower it when the path gets cheaper; a rise - such
// as a per-key copy coming back - is a regression.
const getMultiRoundAllocs = 75

// raceEnabled is set by race_test.go in -race builds, whose
// instrumentation moves extra values to the heap.
var raceEnabled bool

func TestGetMultiRoundAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	cl := NewCluster(1, Options{})
	cli := NewClientWithOptions(cl, cl.Sys.Frontend(), ClientOptions{})
	keys := make([][]byte, 8)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("alloc-key-%d", i))
	}
	populate(t, cl, cli, keys, func(i int) []byte { return []byte(fmt.Sprintf("alloc-value-%d", i)) })
	front := cl.Sys.Frontend()
	k := cl.Sys.K
	answered := 0
	done := func(c *event.Ctx, rs []Response) {
		for _, r := range rs {
			if r.OK() {
				answered++
			}
		}
	}
	get := func(c *event.Ctx) { cli.GetMulti(c, keys, done) }
	round := func() {
		front.Spawn(get)
		k.RunFor(250 * sim.Microsecond)
	}
	round() // warm the pools and the connection
	answered = 0
	const runs = 100
	allocs := testing.AllocsPerRun(runs, round)
	if answered != 8*(runs+1) { // AllocsPerRun makes one warm-up call of its own
		t.Fatalf("%d of %d reads answered", answered, 8*(runs+1))
	}
	if allocs != getMultiRoundAllocs {
		t.Fatalf("one 8-key GetMulti round allocates %.2f objects, pinned at %d", allocs, getMultiRoundAllocs)
	}
}
