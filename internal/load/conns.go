package load

import (
	"bytes"
	"fmt"
	"strconv"

	"ebbrt/internal/apps/appnet"
	"ebbrt/internal/apps/memcached"
	"ebbrt/internal/event"
	"ebbrt/internal/iobuf"
	"ebbrt/internal/netstack"
	"ebbrt/internal/sim"
)

// Shard is one memcached server a Conns target drives: its address and
// the server whose store is prepopulated with the shard's keys.
type Shard struct {
	IP  netstack.Ipv4Addr
	Srv *memcached.Server
}

// connectTime is how long connection targets get to finish their
// handshakes before arrivals start.
const connectTime = 5 * sim.Millisecond

// pipeline caps each Conns connection's requests in flight: mutilate's
// depth in the paper's setup (§4.2).
const pipeline = 4

// Conns is the mutilate target: each key routes (via route over the
// workload's keys; nil for one shard) to one shard, which receives it
// on that shard's private pool of Config.Connections pipelined
// connections, so client-side parallelism scales with the shard count as
// it does when mutilate agents are added per server. Each shard's store
// is prepopulated with exactly the keys it owns. text switches from the
// binary protocol to the ASCII text protocol: requests are command
// lines, and responses are matched in connection FIFO order rather than
// by opaque.
func Conns(client appnet.Runtime, shards []Shard, route func(key []byte) int, text bool) Target {
	return &connTarget{client: client, shards: shards, shardOfKey: route, text: text}
}

type connTarget struct {
	client     appnet.Runtime
	shards     []Shard
	shardOfKey func(key []byte) int
	text       bool
	shardOf    []int      // key index -> shard
	pools      [][]*mconn // per shard, its connection pool
	rr         []int      // per shard, the pool's round-robin cursor
}

// mconn is one load-generator connection.
type mconn struct {
	t          *connTarget
	e          *engine
	conn       appnet.Conn
	mgr        *event.Manager
	queue      []*op
	inflight   map[uint32]*op // binary: opaque -> op
	fifo       []*op          // text: outstanding ops in send order
	nextOpaque uint32
	rx         []byte
	connected  bool
	skip       int // text: bytes of a VALUE data block (+CRLF) still to skip
}

func (t *connTarget) start(e *engine) (*sim.Kernel, int, int) {
	// Route the keyspace once, prepopulating each shard with its share.
	t.shardOf = make([]int, len(e.work.Keys))
	keys := make([][][]byte, len(t.shards))
	vals := make([][][]byte, len(t.shards))
	for i, key := range e.work.Keys {
		s := 0
		if t.shardOfKey != nil {
			s = t.shardOfKey(key)
		}
		t.shardOf[i] = s
		keys[s] = append(keys[s], key)
		vals[s] = append(vals[s], e.work.Values[i])
	}
	for s, sh := range t.shards {
		sh.Srv.Prepopulate(keys[s], vals[s])
	}

	// Open each shard's pool, spreading connections round-robin across
	// client cores.
	mgrs := t.client.Mgrs()
	t.pools = make([][]*mconn, len(t.shards))
	t.rr = make([]int, len(t.shards))
	next := 0
	for s, sh := range t.shards {
		for i := 0; i < e.cfg.Connections; i++ {
			mc := &mconn{t: t, e: e, mgr: mgrs[next%len(mgrs)], inflight: map[uint32]*op{}}
			next++
			t.pools[s] = append(t.pools[s], mc)
			mc.mgr.Spawn(func(c *event.Ctx) {
				t.client.Dial(c, sh.IP, memcached.Port, appnet.Callbacks{
					OnData: func(c *event.Ctx, conn appnet.Conn, payload *iobuf.IOBuf) {
						mc.onData(c, payload)
					},
				}, func(c *event.Ctx, conn appnet.Conn) {
					mc.conn = conn
					mc.connected = true
				})
			})
		}
	}
	k := t.client.Kernel()
	k.RunUntil(k.Now() + connectTime)
	return k, 1, len(t.shards)
}

// route sends an op to its key's shard, round-robin within the pool.
func (t *connTarget) route(e *engine, o *op) *event.Manager {
	s := t.shardOf[o.key]
	o.shard, o.lane = s, t.rr[s]%len(t.pools[s])
	t.rr[s]++
	return t.pools[s][o.lane].mgr
}

// submit queues an op on its connection and pumps the pipeline.
func (t *connTarget) submit(c *event.Ctx, e *engine, o *op) {
	mc := t.pools[o.shard][o.lane]
	mc.queue = append(mc.queue, o)
	mc.pump(c)
}

// pump sends queued requests up to the pipeline limit.
func (mc *mconn) pump(c *event.Ctx) {
	if !mc.connected {
		return
	}
	for len(mc.inflight)+len(mc.fifo) < pipeline && len(mc.queue) > 0 {
		o := mc.queue[0]
		mc.queue = mc.queue[1:]
		var packet []byte
		if mc.t.text {
			packet = mc.encodeText(o)
		} else {
			opaque := mc.nextOpaque
			mc.nextOpaque++
			key := mc.e.work.Keys[o.key]
			if o.get {
				packet = memcached.BuildGet(key, opaque)
			} else {
				packet = memcached.BuildSet(key, mc.e.work.newValue(), 0, opaque)
			}
			mc.inflight[opaque] = o
		}
		mc.conn.Send(c, iobuf.Wrap(packet))
	}
}

// onData parses responses and finishes their ops, in place when the
// delivery is a single buffer and no partial response is held.
func (mc *mconn) onData(c *event.Ctx, payload *iobuf.IOBuf) {
	data := payload.Data()
	if len(mc.rx) > 0 || payload.IsChained() {
		mc.rx = payload.AppendTo(mc.rx)
		data = mc.rx
	}
	var consumed int
	if mc.t.text {
		consumed = mc.decodeText(c, data)
	} else {
		consumed = mc.decodeBinary(c, data)
	}
	if !mc.connected {
		return // desynced
	}
	if consumed < len(data) {
		mc.rx = append(mc.rx[:0], data[consumed:]...)
	} else {
		mc.rx = mc.rx[:0]
	}
	mc.pump(c)
}

// decodeBinary finishes the op of every complete response frame in data
// and returns the bytes consumed.
func (mc *mconn) decodeBinary(c *event.Ctx, data []byte) int {
	consumed := 0
	for {
		hdr, _, n, err := memcached.NextFrame(data[consumed:], memcached.MagicResponse)
		if err != nil {
			// Desynced response stream: retire the connection (its ops
			// are lost; the run continues on the rest of the pool).
			mc.rx = nil
			mc.connected = false
			mc.conn.Close(c)
			return consumed
		}
		if n == 0 {
			return consumed
		}
		consumed += n
		o, ok := mc.inflight[hdr.Opaque]
		if !ok {
			continue
		}
		delete(mc.inflight, hdr.Opaque)
		out := OK
		if hdr.Status != memcached.StatusOK {
			out = Miss
		}
		mc.e.finish(c, o, out)
	}
}

// encodeText builds the text command for o and appends o to the
// connection's FIFO.
func (mc *mconn) encodeText(o *op) []byte {
	mc.fifo = append(mc.fifo, o)
	key := mc.e.work.Keys[o.key]
	if o.get {
		return fmt.Appendf(nil, "get %s\r\n", key)
	}
	value := mc.e.work.newValue()
	return fmt.Appendf(nil, "set %s 0 0 %d\r\n%s\r\n", key, len(value), value)
}

// decodeText consumes complete response units from data - one
// "VALUE...END" or bare "END" unit per get, one status line per set -
// finishing FIFO-head ops as their terminating line arrives. It returns
// the number of bytes consumed; the caller retains the tail.
func (mc *mconn) decodeText(c *event.Ctx, data []byte) int {
	consumed := 0
	for {
		// Mid data block: skip the announced VALUE payload (+CRLF).
		if mc.skip > 0 {
			n := min(len(data)-consumed, mc.skip)
			consumed += n
			mc.skip -= n
			if mc.skip > 0 {
				return consumed
			}
		}
		idx := bytes.IndexByte(data[consumed:], '\n')
		if idx < 0 {
			return consumed
		}
		line := data[consumed : consumed+idx]
		consumed += idx + 1
		line = bytes.TrimSuffix(line, []byte("\r"))
		if len(mc.fifo) == 0 {
			continue // stray line with nothing outstanding; drop it
		}
		head := mc.fifo[0]
		if head.get && bytes.HasPrefix(line, []byte("VALUE ")) {
			// VALUE <key> <flags> <bytes>[ <cas>]: skip the data block and
			// keep reading the same response unit (more VALUEs or END).
			toks := bytes.Fields(line)
			if len(toks) >= 4 {
				if n, err := strconv.Atoi(string(toks[3])); err == nil && n >= 0 {
					mc.skip = n + 2
					continue
				}
			}
			// Unparseable VALUE line: fall through and complete the get,
			// abandoning sync recovery to the stray-line path above.
		}
		// Any other line terminates the unit: END for gets, STORED (or an
		// error line) for sets. Every unit scores as served, a bare END
		// included: ETC keys whose varint prefix holds a space or a line
		// break cannot be spoken in text, and their replies count as they
		// always have.
		mc.fifo = mc.fifo[1:]
		mc.e.finish(c, head, OK)
	}
}
