package load

import (
	"ebbrt/internal/apps/appnet"
	"ebbrt/internal/event"
	"ebbrt/internal/sim"
)

// KVClient abstracts the replicated client Ebb for the load generator,
// keeping this package decoupled from the cluster package (the
// experiment harness adapts cluster.Client to it).
type KVClient interface {
	Get(c *event.Ctx, key []byte, done func(c *event.Ctx, o OpOutcome))
	Set(c *event.Ctx, key, value []byte, done func(c *event.Ctx, o OpOutcome))
}

// KVBatchClient is a KVClient that can read several keys as one batch;
// outs is index-aligned with keys. A KV target's clients must be batch
// clients when Config.MultiGet is set.
type KVBatchClient interface {
	KVClient
	GetMulti(c *event.Ctx, keys [][]byte, done func(c *event.Ctx, outs []OpOutcome))
}

// KV is the replicated-cluster target: every operation takes the full
// client data path - ring lookup, write fan-out, read failover - rather
// than a raw connection to its shard. Each (runtime, client) pair is one
// frontend: one arrival source offering an equal share of the target
// rate from that runtime's cores through its own client, and one shard
// of Result.PerShard. The keyspace is prepopulated through the first
// client with acknowledged (quorum) writes, so reads during later faults
// have live replicas to fail over to. All runtimes must share one
// simulation kernel.
func KV(rts []appnet.Runtime, kvs []KVClient) Target {
	if len(rts) == 0 || len(rts) != len(kvs) {
		panic("load: KV needs one runtime per client")
	}
	t := &kvTarget{kvs: kvs, k: rts[0].Kernel()}
	for _, rt := range rts {
		t.mgrs = append(t.mgrs, rt.Mgrs())
	}
	return t
}

type kvTarget struct {
	kvs  []KVClient
	mgrs [][]*event.Manager // per frontend, its cores
	k    *sim.Kernel
}

// populateTimeout bounds a KV target's prepopulation.
const populateTimeout = 2 * sim.Second

func (t *kvTarget) start(e *engine) (*sim.Kernel, int, int) {
	populated := 0
	kv, mgrs := t.kvs[0], t.mgrs[0]
	for i := range e.work.Keys {
		mgrs[i%len(mgrs)].Spawn(func(c *event.Ctx) {
			kv.Set(c, e.work.Keys[i], e.work.Values[i], func(c *event.Ctx, o OpOutcome) {
				if o == OK {
					populated++
				}
			})
		})
	}
	deadline := t.k.Now() + populateTimeout
	for populated < len(e.work.Keys) && t.k.Now() < deadline {
		t.k.RunFor(1 * sim.Millisecond)
	}
	return t.k, len(t.kvs), len(t.kvs)
}

// route spreads a frontend's arrivals over its cores by arrival time.
func (t *kvTarget) route(e *engine, o *op) *event.Manager {
	mgrs := t.mgrs[o.src]
	o.shard, o.lane = o.src, int(o.arrival/sim.Microsecond)%len(mgrs)
	return mgrs[o.lane]
}

// submit issues o through its frontend's client; a batched read goes
// through GetMulti.
func (t *kvTarget) submit(c *event.Ctx, e *engine, o *op) {
	kv := t.kvs[o.src]
	done := func(c *event.Ctx, out OpOutcome) { e.finish(c, o, out) }
	switch {
	case o.keys != nil:
		keys := make([][]byte, len(o.keys))
		for j, idx := range o.keys {
			keys[j] = e.work.Keys[idx]
		}
		kv.(KVBatchClient).GetMulti(c, keys, func(c *event.Ctx, outs []OpOutcome) {
			for _, out := range outs {
				e.finish(c, o, out)
			}
		})
	case o.get:
		kv.Get(c, e.work.Keys[o.key], done)
	default:
		kv.Set(c, e.work.Keys[o.key], e.work.newValue(), done)
	}
}
