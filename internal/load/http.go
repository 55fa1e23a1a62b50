package load

import (
	"bytes"

	"ebbrt/internal/apps/appnet"
	"ebbrt/internal/apps/httpd"
	"ebbrt/internal/event"
	"ebbrt/internal/iobuf"
	"ebbrt/internal/netstack"
	"ebbrt/internal/sim"
)

// HTTP is the wrk target: Config.Connections keep-alive connections to
// the webserver at ip, each with at most one request in flight (wrk's
// default behaviour); arrivals round-robin the connections and queue
// client-side behind a busy one.
func HTTP(client appnet.Runtime, ip netstack.Ipv4Addr) Target {
	return &httpTarget{client: client, ip: ip}
}

type httpTarget struct {
	client appnet.Runtime
	ip     netstack.Ipv4Addr
	conns  []*wconn
	rr     int
}

// wconn is one keep-alive connection.
type wconn struct {
	e         *engine
	conn      appnet.Conn
	mgr       *event.Manager
	queue     []*op
	inflight  *op
	rx        []byte
	connected bool
}

func (t *httpTarget) start(e *engine) (*sim.Kernel, int, int) {
	mgrs := t.client.Mgrs()
	for i := 0; i < e.cfg.Connections; i++ {
		wc := &wconn{e: e, mgr: mgrs[i%len(mgrs)]}
		t.conns = append(t.conns, wc)
		wc.mgr.Spawn(func(c *event.Ctx) {
			t.client.Dial(c, t.ip, httpd.Port, appnet.Callbacks{
				OnData: func(c *event.Ctx, conn appnet.Conn, payload *iobuf.IOBuf) {
					wc.onData(c, payload)
				},
			}, func(c *event.Ctx, conn appnet.Conn) {
				wc.conn = conn
				wc.connected = true
			})
		})
	}
	k := t.client.Kernel()
	k.RunUntil(k.Now() + connectTime)
	return k, 1, 1
}

func (t *httpTarget) route(e *engine, o *op) *event.Manager {
	o.lane = t.rr % len(t.conns)
	t.rr++
	return t.conns[o.lane].mgr
}

func (t *httpTarget) submit(c *event.Ctx, e *engine, o *op) {
	wc := t.conns[o.lane]
	wc.queue = append(wc.queue, o)
	wc.pump(c)
}

func (wc *wconn) pump(c *event.Ctx) {
	if !wc.connected || wc.inflight != nil || len(wc.queue) == 0 {
		return
	}
	wc.inflight = wc.queue[0]
	wc.queue = wc.queue[1:]
	wc.conn.Send(c, iobuf.Wrap(append([]byte(nil), httpd.Request...)))
}

func (wc *wconn) onData(c *event.Ctx, payload *iobuf.IOBuf) {
	wc.rx = payload.AppendTo(wc.rx)
	for len(wc.rx) >= len(httpd.Response) {
		if !bytes.HasPrefix(wc.rx, httpd.Response[:17]) {
			// Desynchronized: drop connection state.
			wc.rx = nil
			return
		}
		wc.rx = wc.rx[len(httpd.Response):]
		if o := wc.inflight; o != nil {
			wc.inflight = nil
			wc.e.finish(c, o, OK)
		}
	}
	wc.pump(c)
}
