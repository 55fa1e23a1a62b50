package main

import (
	"fmt"

	"ebbrt/internal/apps/appnet"
	"ebbrt/internal/apps/memcached"
	"ebbrt/internal/cluster"
	"ebbrt/internal/event"
	"ebbrt/internal/hosted"
	"ebbrt/internal/iobuf"
	"ebbrt/internal/sim"
)

// workload is one benchmark scenario: a deployment shape, a request mix,
// the nominal offered rate its end-to-end latencies are reported at, and
// the latency limit and brackets of its capacity search.
type workload struct {
	name string
	mix  mix
	// nominal is the offered key-op rate of the nominal run.
	nominal float64
	// virtPerSec is the nominal window's virtual length per second of
	// --seconds: a fixed constant, so virtual results depend only on the
	// seed and --seconds, never on how fast the host is.
	virtPerSec sim.Time
	// limit is the p99 latency limit of the capacity search; it is also
	// the drain each window gets after its last arrival.
	limit sim.Time
	// lo and hi bracket the capacity search in key-ops/s.
	lo, hi float64
	// probeOps is each capacity probe's offered key-ops: a probe's window
	// is probeOps/rate long, so every probe costs about the same and has
	// the same number of samples, whichever rates the search visits.
	probeOps float64
	// warmup is the load offered at the nominal rate before any window,
	// as the last step of set-up.
	warmup sim.Time
	// boot builds the deployment and prepopulates it.
	boot func(d *deployment)
}

// deployment is one booted, prepopulated system plus the benchmark's
// handle on it.
type deployment struct {
	w       *workload
	cl      *cluster.Cluster
	k       *sim.Kernel
	keys    [][]byte
	nextSeq []uint32
	target  submitter
	// client is the client Ebb the target submits through (nil for raw
	// connections).
	client *cluster.Client
	// stores are every backend's store as the benchmark wrapped it.
	stores []*countingStore
	traced bool
}

// searchSteps is the number of capacity-search probes per run.
const searchSteps = 6

var workloads = []*workload{
	{
		name: "etc_native",
		mix: mix{keySpace: 20000, zipf: 1.05, getRatio: 0.9, multiKeys: 1,
			valueMean: 220, valueMax: 1024},
		nominal:    700e3,
		virtPerSec: 20 * sim.Millisecond,
		limit:      200 * sim.Microsecond,
		lo:         500e3,
		hi:         2500e3,
		probeOps:   30000,
		warmup:     2 * sim.Millisecond,
		boot:       bootETCNative,
	},
	{
		name: "replicated_rw",
		mix: mix{keySpace: replicatedKeySpace(1000), zipf: 1.2, getRatio: 0.7, multiKeys: 1,
			// 3900 B keeps every item inside the bounded store's largest
			// slab class: larger items fail once its large list drains (see
			// README.md).
			valueMean: 1000, valueMax: 3900, refill: true},
		nominal:    200e3,
		virtPerSec: 50 * sim.Millisecond,
		limit:      1 * sim.Millisecond,
		lo:         100e3,
		hi:         600e3,
		probeOps:   18000,
		warmup:     4 * sim.Millisecond,
		boot:       bootReplicatedRW,
	},
	{
		name: "multiget_frontend",
		mix: mix{keySpace: 3000, zipf: 1.05, getRatio: 0.9, multiKeys: 8,
			valueMean: 220, valueMax: 1024},
		nominal:    250e3,
		virtPerSec: 100 * sim.Millisecond,
		limit:      1 * sim.Millisecond,
		lo:         100e3,
		hi:         900e3,
		probeOps:   80000,
		warmup:     4 * sim.Millisecond,
		boot:       bootMultiget,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// storeFor returns the cluster.Options.Store hook: in a traced run it
// wraps each backend store so its calls are counted and timed; untraced,
// the deployment gets the bare store.
func (d *deployment) storeFor(inner func() memcached.Store) func() memcached.Store {
	return func() memcached.Store {
		if !d.traced {
			return inner()
		}
		s := &countingStore{Store: inner()}
		d.stores = append(d.stores, s)
		return s
	}
}

// prepopulate writes every key's first value (sequence 0) straight into
// each of its replicas' stores, coldest key first so the hottest end up
// resident under a bounded budget. Every replica gets the same version
// stamp, as a replicated write would leave them.
func (d *deployment) prepopulate(seed uint64) {
	m := d.w.mix
	d.nextSeq = make([]uint32, len(d.keys))
	for i := len(d.keys) - 1; i >= 0; i-- {
		v := makeValue(m, seed, i, 0)
		for _, b := range d.cl.ReplicaSet(d.keys[i]) {
			d.cl.Backends[b].Srv.Store.Set(string(d.keys[i]), &memcached.Entry{Value: v, CAS: uint64(i) + 1})
		}
		d.nextSeq[i] = 1
	}
}

// bootETCNative: 4 single-core native backends on RCU stores, driven by
// a native load-generator node over pooled, pipelined binary conns.
func bootETCNative(d *deployment) {
	d.cl = cluster.NewCluster(4, cluster.Options{
		CoresPerBackend: 1,
		Store:           d.storeFor(func() memcached.Store { return memcached.NewRCUStore() }),
	})
	d.target = newRawTarget(d.cl, d.cl.AddLoadGenerator(8), 8, 4)
}

// bootReplicatedRW: one 4-core hosted frontend's client Ebb over 8
// single-core backends at R=3, hot-key cache on, each backend a bounded
// store at its minimum budget; the key population is sized so its
// replicated footprint is about twice the combined budget.
func bootReplicatedRW(d *deployment) {
	const backends, budget = 8, 8 << 20
	var k *sim.Kernel
	clock := func() sim.Time {
		if k == nil {
			return 0
		}
		return k.Now()
	}
	d.cl = cluster.NewCluster(backends, cluster.Options{
		CoresPerBackend: 1,
		Replicas:        3,
		FrontendCores:   4,
		HotKey:          cluster.HotKeyOptions{Enable: true},
		Store: d.storeFor(func() memcached.Store {
			return memcached.NewBoundedStore(budget, memcached.EvictLRU, clock)
		}),
	})
	k = d.cl.Sys.K
	cli := cluster.NewClientWithOptions(d.cl, d.cl.Frontends[0], cluster.ClientOptions{})
	d.client = cli
	d.target = &clientTarget{cli: cli, mgrs: d.cl.Frontends[0].Runtime.Mgrs()}
}

// replicatedKeySpace sizes replicated_rw's population: 2x the combined
// budget, at the bounded store's charge for the mix's mean item.
func replicatedKeySpace(valueMean float64) int {
	const backends, budget, replicas, overhead, meanKey = 8, 8 << 20, 3, 56, 45
	perItem := valueMean + meanKey + overhead
	return int(2 * backends * budget / (replicas * perItem))
}

// bootMultiget: one 1-core hosted frontend, R=1, hot-key cache off, 4
// backends of 2 cores each.
func bootMultiget(d *deployment) {
	d.cl = cluster.NewCluster(4, cluster.Options{
		CoresPerBackend: 2,
		FrontendCores:   1,
		Store:           d.storeFor(func() memcached.Store { return memcached.NewRCUStore() }),
	})
	cli := cluster.NewClientWithOptions(d.cl, d.cl.Frontends[0], cluster.ClientOptions{
		HotKey: cluster.HotKeyOptions{Disable: true},
	})
	d.client = cli
	d.target = &clientTarget{cli: cli, mgrs: d.cl.Frontends[0].Runtime.Mgrs()}
}

// datasetSeed fixes the key population: the names, and so where each key
// lands on the ring, are the same at every seed. The seed drives the
// request stream and the values; a seed-dependent placement would move
// the hottest keys between backends and with them the capacity, burying
// a real change under placement luck.
const datasetSeed = 0x5eed

// boot builds and prepopulates one deployment of w.
func boot(w *workload, seed uint64, traced bool) *deployment {
	d := &deployment{w: w, traced: traced}
	w.boot(d)
	d.k = d.cl.Sys.K
	d.keys = makeKeys(d.w.mix.keySpace, sim.NewRng(datasetSeed))
	d.prepopulate(seed)
	return d
}

// clientTarget submits through the cluster client Ebb's public calls.
type clientTarget struct {
	cli  *cluster.Client
	mgrs []*event.Manager
	rr   int
}

func (t *clientTarget) route(g *gen, id int32) *event.Manager {
	t.rr++
	return t.mgrs[t.rr%len(t.mgrs)]
}

func (t *clientTarget) submit(c *event.Ctx, g *gen, id int32) {
	o := g.ops[id]
	switch o.kind {
	case kindGet:
		key := g.keys[o.keys[0]]
		g.call(c, id, func() {
			t.cli.Get(c, key, func(c *event.Ctx, r cluster.Response) {
				st, vs := statuses([]cluster.Response{r})
				g.finish(c.Now(), id, st, vs)
			})
		})
	case kindMulti:
		keys := make([][]byte, len(o.keys))
		for i, k := range o.keys {
			keys[i] = g.keys[k]
		}
		g.call(c, id, func() {
			t.cli.GetMulti(c, keys, func(c *event.Ctx, rs []cluster.Response) {
				st, vs := statuses(rs)
				g.finish(c.Now(), id, st, vs)
			})
		})
	default:
		key, v := g.keys[o.keys[0]], g.value(id)
		g.call(c, id, func() {
			t.cli.Set(c, key, v, 0, func(c *event.Ctx, r cluster.Response) {
				st, vs := statuses([]cluster.Response{r})
				g.finish(c.Now(), id, st, vs)
			})
		})
	}
}

// rawConn is one pooled, pipelined binary-protocol connection from the
// load generator to a backend. Responses arrive in request order, so the
// in-flight ops form a FIFO whose head must match each response's opaque.
type rawConn struct {
	mgr      *event.Manager
	conn     appnet.Conn
	up       bool
	closed   bool
	queue    []int32 // ops waiting for a pipeline slot
	inflight []int32 // ops sent, oldest first
	opaque   uint32  // opaque of inflight[0]
	sent     uint32  // next opaque to send
	rx       []byte
}

// rawTarget drives the backends directly, as the paper's mutilate host
// does: each key routes to its ring owner and round-robins over that
// backend's pool.
type rawTarget struct {
	pools [][]*rawConn
	conns []*rawConn
	rr    []int
	depth int
	cl    *cluster.Cluster
	g     *gen // the window currently using the conns
}

func newRawTarget(cl *cluster.Cluster, node *hosted.Node, perBackend, depth int) *rawTarget {
	t := &rawTarget{cl: cl, depth: depth, rr: make([]int, len(cl.Backends))}
	mgrs := node.Runtime.Mgrs()
	for _, be := range cl.Backends {
		ip := be.Node.IP()
		var pool []*rawConn
		for i := 0; i < perBackend; i++ {
			rc := &rawConn{mgr: mgrs[len(t.conns)%len(mgrs)]}
			t.conns = append(t.conns, rc)
			pool = append(pool, rc)
			rc.mgr.Spawn(func(c *event.Ctx) {
				node.Runtime.Dial(c, ip, memcached.Port, appnet.Callbacks{
					OnData: func(c *event.Ctx, conn appnet.Conn, payload *iobuf.IOBuf) {
						t.onData(c, rc, payload)
					},
					OnClose: func(c *event.Ctx, conn appnet.Conn, err error) {
						t.onClose(c, rc)
					},
				}, func(c *event.Ctx, conn appnet.Conn) {
					rc.conn, rc.up = conn, true
					t.pump(c, rc)
				})
			})
		}
		t.pools = append(t.pools, pool)
	}
	return t
}

// ready reports whether every connection is up.
func (t *rawTarget) ready() bool {
	for _, rc := range t.conns {
		if !rc.up {
			return false
		}
	}
	return true
}

func (t *rawTarget) route(g *gen, id int32) *event.Manager {
	t.g = g
	b := t.cl.Ring.Lookup(g.keys[g.ops[id].keys[0]])
	pool := t.pools[b]
	i := t.rr[b] % len(pool)
	t.rr[b]++
	g.ops[id].lane = int32(b*len(pool) + i)
	return pool[i].mgr
}

func (t *rawTarget) connOf(g *gen, id int32) *rawConn {
	lane := int(g.ops[id].lane)
	per := len(t.pools[0])
	b := lane / per
	return t.pools[b][lane%per]
}

func (t *rawTarget) submit(c *event.Ctx, g *gen, id int32) {
	rc := t.connOf(g, id)
	if rc.closed {
		g.finish(c.Now(), id, []uint16{cluster.StatusNetworkError}, [][]byte{nil})
		return
	}
	rc.queue = append(rc.queue, id)
	t.pump(c, rc)
}

// pump sends queued ops while the connection has pipeline slots.
func (t *rawTarget) pump(c *event.Ctx, rc *rawConn) {
	if !rc.up || rc.closed {
		return
	}
	for len(rc.inflight) < t.depth && len(rc.queue) > 0 {
		g := t.g
		id := rc.queue[0]
		rc.queue = rc.queue[1:]
		o := g.ops[id]
		key := g.keys[o.keys[0]]
		var pkt []byte
		if o.kind == kindGet {
			pkt = memcached.BuildGet(key, rc.sent)
		} else {
			pkt = memcached.BuildSet(key, g.value(id), 0, rc.sent)
		}
		if len(rc.inflight) == 0 {
			rc.opaque = rc.sent
		}
		rc.sent++
		rc.inflight = append(rc.inflight, id)
		g.call(c, id, func() { rc.conn.Send(c, iobuf.Wrap(pkt)) })
	}
}

func (t *rawTarget) onData(c *event.Ctx, rc *rawConn, payload *iobuf.IOBuf) {
	g := t.g
	rc.rx = append(rc.rx, payload.CopyOut()...)
	used := 0
	for {
		hdr, body, n, err := memcached.NextFrame(rc.rx[used:], memcached.MagicResponse)
		if err != nil {
			g.fail(fmt.Errorf("raw conn: %w", err))
			rc.conn.Close(c)
			return
		}
		if n == 0 {
			break
		}
		used += n
		if len(rc.inflight) == 0 || hdr.Opaque != rc.opaque {
			g.fail(fmt.Errorf("raw conn: response opaque %d, want %d (%d in flight)", hdr.Opaque, rc.opaque, len(rc.inflight)))
			continue
		}
		id := rc.inflight[0]
		rc.inflight = rc.inflight[1:]
		rc.opaque++
		value := body[int(hdr.ExtrasLen)+int(hdr.KeyLen):]
		g.finish(c.Now(), id, []uint16{hdr.Status}, [][]byte{value})
	}
	rc.rx = append(rc.rx[:0], rc.rx[used:]...)
	t.pump(c, rc)
}

// onClose fails everything the connection still holds.
func (t *rawTarget) onClose(c *event.Ctx, rc *rawConn) {
	rc.closed = true
	if t.g == nil {
		return
	}
	for _, id := range append(rc.inflight, rc.queue...) {
		t.g.finish(c.Now(), id, []uint16{cluster.StatusNetworkError}, [][]byte{nil})
	}
	rc.inflight, rc.queue = nil, nil
}
